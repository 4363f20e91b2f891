package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/dist"
	"repro/internal/obs"
)

// elastic_neumf: whole elastic jobs through dist.Run over one fixed scale
// schedule, alternating the live runtime (op, WithLiveMigration) with the
// stop-restart runtime (op2, the plain call) so both run on the same machine
// at the same time. NeuMF's compute is tiny: worker spawn, rendezvous,
// checkpoint and shard shipping, restore and attach dominate.
type elasticWorkload struct {
	p      params
	cfg    core.Config
	phases []dist.Phase
	iter   int // pairs run so far; odd pairs run stop-restart first
}

const (
	elasticModel = "neumf"
	elasticTail  = 0.90
	// elasticLayerPairs is the length of the traced pass and of the fixed
	// (single-phase) comparison runs.
	elasticLayerPairs = 5
)

// elasticSchedule is six phases of two steps on one or two workers, over
// mixed GPU types: five scale events per job.
func elasticSchedule() []dist.Phase {
	v, p, t := device.V100, device.P100, device.T4
	placements := []core.Placement{
		core.EvenPlacement(4, v, v),
		core.EvenPlacement(4, v),
		core.EvenPlacement(4, v, p),
		core.EvenPlacement(4, t),
		core.EvenPlacement(4, p, t),
		core.EvenPlacement(4, v, v),
	}
	phases := make([]dist.Phase, len(placements))
	for i, pl := range placements {
		phases[i] = dist.Phase{Placement: pl, Steps: 2}
	}
	return phases
}

func elasticConfig(seed uint64) core.Config {
	cfg := core.DefaultConfig(4)
	cfg.BatchPerEST = 4
	cfg.Seed = seed
	return cfg
}

func (w *elasticWorkload) setup(seed uint64) error {
	w.cfg = elasticConfig(seed)
	w.phases = elasticSchedule()
	// one cold pair: the first jobs pay for listener, goroutine and arena
	// growth that every later job reuses
	_, _, err := w.pair(nil, &result{}, -1)
	return err
}

func (w *elasticWorkload) close() {}

// job runs one elastic job over phases, on the live runtime or the
// stop-restart one, inside a span; it returns the final checkpoint and the
// call's wall time in milliseconds.
func (w *elasticWorkload) job(tr *tracer, track int, phases []dist.Phase, live bool) ([]byte, float64, error) {
	var opts []dist.Option
	name := "dist.Run.restart"
	if live {
		opts = append(opts, dist.WithLiveMigration())
		name = "dist.Run.live"
	}
	s, t0 := tr.now(), wallNow()
	ck, err := dist.Run(w.cfg, elasticModel, phases, opts...)
	d := msSince(t0)
	tr.span(track, obs.CatPhase, name, s)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", name, err)
	}
	return ck, d, nil
}

// pair runs one live and one stop-restart job over the schedule, in an
// order that alternates between calls, and returns their final checkpoints,
// appending their times to r's op (live) and op2 (stop-restart).
func (w *elasticWorkload) pair(tr *tracer, r *result, track int) ([]byte, []byte, error) {
	var live, restart []byte
	liveFirst := w.iter%2 == 0
	w.iter++
	for _, isLive := range []bool{liveFirst, !liveFirst} {
		ck, d, err := w.job(tr, track, w.phases, isLive)
		if err != nil {
			return nil, nil, err
		}
		if isLive {
			live, r.op = ck, append(r.op, d)
		} else {
			restart, r.op2 = ck, append(r.op2, d)
		}
	}
	return live, restart, nil
}

func (w *elasticWorkload) run(length time.Duration, tr *tracer) (*result, error) {
	r := &result{opTail: elasticTail, op2Tail: elasticTail}
	track := tr.track("elastic")
	need := w.p.need(elasticTail)
	type ckpts struct{ live, restart []byte }
	var done []ckpts
	win, err := startWindow(length)
	if err != nil {
		return nil, err
	}
	for !win.done(len(done), need) {
		live, restart, err := w.pair(tr, r, track)
		r.check(err == nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: elastic pair failed:", err)
			continue
		}
		done = append(done, ckpts{live, restart})
	}
	r.rounds = len(done)
	if err := win.finish(r); err != nil {
		return nil, err
	}
	for _, c := range done {
		ok, err := sameParams(w.cfg, c.live, c.restart)
		if err != nil {
			return nil, err
		}
		r.check(ok)
	}
	return r, nil
}

// sameParams restores both checkpoints and compares the parameters bitwise.
func sameParams(cfg core.Config, a, b []byte) (bool, error) {
	ja, err := core.RestoreJob(cfg, a)
	if err != nil {
		return false, err
	}
	jb, err := core.RestoreJob(cfg, b)
	if err != nil {
		return false, err
	}
	return core.ParamsEqual(ja, jb), nil
}

func (w *elasticWorkload) layers(tr *tracer, m metrics, r *result) error {
	track := tr.track("elastic/jobs")
	pass := &result{}
	for i := 0; i < elasticLayerPairs; i++ {
		live, restart, err := w.pair(tr, pass, track)
		if err != nil {
			return err
		}
		ok, err := sameParams(w.cfg, live, restart)
		if err != nil {
			return err
		}
		r.check(ok)
	}
	// the same twelve steps in one phase: no scale event to pay for
	total := 0
	for _, ph := range w.phases {
		total += ph.Steps
	}
	fixed := []dist.Phase{{Placement: w.phases[0].Placement, Steps: total}}
	var fixedLive, fixedRestart []float64
	for i := 0; i < elasticLayerPairs; i++ {
		for _, isLive := range []bool{i%2 == 0, i%2 != 0} {
			_, d, err := w.job(tr, track, fixed, isLive)
			if err != nil {
				return err
			}
			if isLive {
				fixedLive = append(fixedLive, d)
			} else {
				fixedRestart = append(fixedRestart, d)
			}
		}
	}
	events := float64(len(w.phases) - 1)
	m.set("dist.fixed_ms.live", median(fixedLive), "ms")
	m.set("dist.fixed_ms.restart", median(fixedRestart), "ms")
	m.set("dist.reconfig_ms.live", (median(pass.op)-median(fixedLive))/events, "ms")
	m.set("dist.reconfig_ms.restart", (median(pass.op2)-median(fixedRestart))/events, "ms")
	return w.coreLayers(tr, m)
}

// coreLayers times the core.Job and checkpoint calls a scale event is made
// of, on an in-process job of the workload's configuration. Every repetition
// trains a step first, so no call is served from the unchanged-shard cache.
func (w *elasticWorkload) coreLayers(tr *tracer, m metrics) error {
	track := tr.track("elastic/core")
	j, err := newAttachedJob(w.cfg, elasticModel, w.phases[0].Placement)
	if err != nil {
		return err
	}
	var (
		ck, enc []byte
		man     checkpoint.Manifest
		set     *checkpoint.ShardSet
		next    core.Placement
	)
	// trained marks the calls that follow a training step
	calls := []struct {
		name    string
		cat     obs.Cat
		trained bool
		f       func() error
	}{
		{"core.checkpoint_ms", obs.CatShard, true, func() error { ck = j.Checkpoint(); return nil }},
		{"core.build_shards_ms", obs.CatShard, true, func() error { man, set = j.BuildShards(); return nil }},
		{"checkpoint.encode_container_ms", obs.CatShard, false, func() (err error) { enc, err = checkpoint.EncodeContainer(man, set); return err }},
		{"checkpoint.decode_container_ms", obs.CatShard, false, func() error { _, _, err := checkpoint.DecodeContainer(enc); return err }},
		{"core.restore_ms", obs.CatShard, false, func() error { _, err := core.RestoreJob(w.cfg, ck); return err }},
		{"core.scale_live_ms", obs.CatPhase, false, func() error { return j.ScaleLive(next) }},
		{"core.scale_restart_ms", obs.CatPhase, false, func() error { return j.Scale(w.phases[0].Placement) }},
	}
	ds := make([][]float64, len(calls))
	for i := 0; i < w.p.reps; i++ {
		next = w.phases[1+i%(len(w.phases)-1)].Placement
		for k, c := range calls {
			if c.trained {
				if err := j.RunStep(); err != nil {
					return err
				}
			}
			s, t0 := tr.now(), wallNow()
			err := c.f()
			ds[k] = append(ds[k], msSince(t0))
			tr.span(track, c.cat, c.name, s)
			if err != nil {
				return fmt.Errorf("%s: %w", c.name, err)
			}
		}
	}
	for k, c := range calls {
		m.set(c.name, median(ds[k]), "ms")
	}
	m.set("checkpoint.bytes", float64(len(ck)), "bytes")
	return nil
}
