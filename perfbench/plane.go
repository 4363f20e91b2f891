package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"repro/internal/controlplane"
	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/workload"
)

// plane_replay: the multi-tenant control plane replaying tenant traces on a
// 3072-GPU fleet of four teams with borrowing, through Submit and Tick. op is
// one tick (its Submits plus the Tick); op2 is one Submit, the time a tenant
// waits for its admission answer. Only controlplane, sched and workload run.
type planeWorkload struct {
	p      params
	seed   uint64
	traces [][]workload.JobSpec
	// ref holds each trace's decision count and decision-log hash from its
	// first replay; every later replay must repeat them.
	ref map[int][2]uint64
}

const (
	planeJobs  = 400
	planeTicks = 300
	planeTick  = 10.0 // seconds of simulated time per tick
	// planeTraces is how many distinct traces a run replays in turn: one
	// trace's tick costs move by a fifth from seed to seed, so the figures
	// of one run average over several arrival patterns.
	planeTraces = 6
	planeTail   = 0.99
)

var planeTeams = []string{"ads", "nlp", "rec", "vis"}

func planeInventory() sched.Resources {
	return sched.Resources{device.V100: 1536, device.P100: 768, device.T4: 768}
}

func planeConfig() controlplane.Config {
	quota := sched.Resources{device.V100: 384, device.P100: 192, device.T4: 192}
	var teams []controlplane.TeamConfig
	for _, name := range planeTeams {
		teams = append(teams, controlplane.TeamConfig{Name: name, Quota: quota.Clone()})
	}
	return controlplane.Config{Inventory: planeInventory(), Teams: teams, AllowBorrowing: true}
}

// traceSeed derives the seed of the i-th trace of a run.
func traceSeed(seed uint64, i int) uint64 { return seed*planeTraces + uint64(i) }

func (w *planeWorkload) setup(seed uint64) error {
	w.seed = seed
	w.traces = make([][]workload.JobSpec, planeTraces)
	for i := range w.traces {
		w.traces[i] = workload.GenerateTenants(planeJobs, planeTeams, 5, traceSeed(seed, i))
		if len(w.traces[i]) != planeJobs {
			return fmt.Errorf("trace %d has %d jobs, want %d", i, len(w.traces[i]), planeJobs)
		}
	}
	w.ref = map[int][2]uint64{}
	return nil
}

func (w *planeWorkload) close() {}

// replay drives one trace through a fresh plane, appending tick times to r.op
// and Submit times to r.op2, and checks after every tick that the fleet is
// fully accounted for. It returns the plane for inspection.
func (w *planeWorkload) replay(trace []workload.JobSpec, tr *tracer, track int, r *result) *controlplane.Plane {
	inv := planeInventory()
	p := controlplane.New(planeConfig())
	next := 0
	for tick := 0; tick < planeTicks; tick++ {
		now := float64(tick) * planeTick
		sTick, t0 := tr.now(), wallNow()
		for next < len(trace) && trace[next].ArrivalSec <= now {
			s, t1 := tr.now(), wallNow()
			p.Submit(trace[next])
			r.op2 = append(r.op2, msSince(t1))
			tr.span(track, obs.CatPlane, "controlplane.Plane.Submit", s)
			next++
		}
		s := tr.now()
		p.Tick(now)
		tr.span(track, obs.CatPlane, "controlplane.Plane.Tick", s)
		r.op = append(r.op, msSince(t0))
		tr.span(track, obs.CatPlane, "plane.tick", sTick)
		r.check(accounted(p, inv))
	}
	return p
}

// accounted reports whether every GPU of the inventory is either free or
// allocated, and no type's free count leaves [0, inventory].
func accounted(p *controlplane.Plane, inv sched.Resources) bool {
	free := p.Free()
	for t, n := range free {
		if n < 0 || n > inv[t] {
			return false
		}
	}
	return p.Allocated()+free.Total() == inv.Total()
}

// fingerprint is a replay's decision count and decision-log hash.
func fingerprint(p *controlplane.Plane) [2]uint64 {
	h := fnv.New64a()
	for _, line := range p.DecisionLog() {
		h.Write([]byte(line))
		h.Write([]byte{'\n'})
	}
	return [2]uint64{uint64(p.Decisions()), h.Sum64()}
}

// repeats checks a replay against the first replay of the same trace.
func (w *planeWorkload) repeats(i int, p *controlplane.Plane) bool {
	fp := fingerprint(p)
	ref, ok := w.ref[i]
	if !ok {
		w.ref[i] = fp
		return true
	}
	return fp == ref
}

func (w *planeWorkload) run(length time.Duration, tr *tracer) (*result, error) {
	r := &result{opTail: planeTail, op2Tail: planeTail}
	track := tr.track("plane")
	need := w.p.need(planeTail)
	win, err := startWindow(length)
	if err != nil {
		return nil, err
	}
	// whole cycles over the traces only, so every trace weighs the same
	for !win.done(min(len(r.op), len(r.op2)), need) {
		for i, trace := range w.traces {
			p := w.replay(trace, tr, track, r)
			r.check(w.repeats(i, p))
		}
	}
	r.rounds = len(r.op)
	if err := win.finish(r); err != nil {
		return nil, err
	}
	return r, nil
}

func (w *planeWorkload) layers(tr *tracer, m metrics, r *result) error {
	track := tr.track("plane/calls")
	seed := traceSeed(w.seed, 0)
	gen, err := tr.timed(track, obs.CatSched, "workload.GenerateTenants", min(w.p.reps, 5), func() error {
		if n := len(workload.GenerateTenants(planeJobs, planeTeams, 5, seed)); n != planeJobs {
			return fmt.Errorf("generated %d jobs, want %d", n, planeJobs)
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("workload.generate_ms", gen, "ms")

	pass := &result{}
	var allocMB, allocs []float64
	var first *controlplane.Plane
	for i, trace := range w.traces {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		p := w.replay(trace, tr, track, pass)
		runtime.ReadMemStats(&ms1)
		allocMB = append(allocMB, float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
		allocs = append(allocs, float64(ms1.Mallocs-ms0.Mallocs))
		r.check(w.repeats(i, p))
		if first == nil {
			first = p
		}
	}
	r.attempted += pass.attempted
	r.fails += pass.fails
	ds := tr.durations()
	submitUs := make([]float64, 0, len(ds["controlplane.Plane.Submit"]))
	for _, d := range ds["controlplane.Plane.Submit"] {
		submitUs = append(submitUs, d*1000)
	}
	m.set("controlplane.submit_us.p50", quantile(submitUs, 0.5), "us")
	m.set("controlplane.submit_us.p99", quantile(submitUs, 0.99), "us")
	m.set("controlplane.tick_self_ms", median(ds["controlplane.Plane.Tick"]), "ms")
	m.set("go.alloc_mb_per_replay", median(allocMB), "MB")
	m.set("go.allocs_per_replay", median(allocs), "count")

	var rep controlplane.Report
	reportMs, err := tr.timed(track, obs.CatPlane, "controlplane.Plane.Report", w.p.reps, func() error {
		rep = first.Report()
		return nil
	})
	if err != nil {
		return err
	}
	m.set("controlplane.report_ms", reportMs, "ms")
	m.set("controlplane.decisions", float64(first.Decisions()), "count")
	m.set("controlplane.leases_minted", float64(rep.LeasesMinted), "count")
	m.set("controlplane.borrows", float64(rep.Borrows), "count")
	m.set("controlplane.reclaims", float64(rep.Reclaims), "count")
	m.set("controlplane.reservations_open", float64(rep.ReservationsOpen), "count")
	return nil
}
