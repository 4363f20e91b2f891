package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"time"

	"repro/internal/device"
	"repro/internal/dist"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// serve_open: an open loop of predict requests into Server.Dispatch,
// in-process, for neumf and mlp deployed from serve.TrainContainers with the
// default batching options. Requests arrive as a Poisson process at two fixed
// rates below the knee, each for half the window: op is the latency at the
// light rate, where batches rarely fill and the MaxWait flush sets latency;
// op2 at the heavy rate, where batches fill and forward passes and queueing
// set it. Latency runs from when a request was due, so a stalled generator
// shows. The loop stays in-process because serve.Client carries one request
// per connection: an open loop over TCP would need more connections than
// cores.
type serveWorkload struct {
	p          params
	seed       uint64
	containers map[string][]byte
	srv        *serve.Server
	// rows are each model's request inputs and want the output hash each
	// row gave when it was first served; every later reply must match.
	rows  map[string][][]float32
	want  map[string][]uint64
	phase int // open-loop phases run so far; seeds each phase's arrivals
}

const (
	serveLightRate = 4000  // requests/s: a few per MaxWait window per model
	serveHeavyRate = 60000 // requests/s: about 40% of this box's knee
	serveRows      = 256   // distinct input rows per model
	serveTail      = 0.99
	// serveDefaultMaxBatch is serve.Options' default MaxBatch, the batch the
	// heavy rate fills.
	serveDefaultMaxBatch = 16
	// serveLayerPass is the length of the traced heavy-rate pass the queue
	// depth is sampled over.
	serveLayerPass = 2 * time.Second
)

var serveModels = []string{"neumf", "mlp"}

func (w *serveWorkload) setup(seed uint64) error {
	w.seed = seed
	containers, err := serve.TrainContainers(serveModels, 2, seed)
	if err != nil {
		return err
	}
	w.containers = containers
	w.srv = serve.NewServer(serve.Options{}, nil)
	for _, name := range serveModels {
		if err := w.srv.Deploy(name, containers[name], 1); err != nil {
			return err
		}
	}
	w.rows = map[string][][]float32{}
	w.want = map[string][]uint64{}
	pick := rng.NewNamed(seed, "perfbench/serve-rows")
	for _, name := range serveModels {
		wl, err := models.Build(name, seed)
		if err != nil {
			return err
		}
		dim := 1
		for _, d := range wl.Dataset.InputShape() {
			dim *= d
		}
		rows := make([][]float32, serveRows)
		for i := range rows {
			rows[i] = make([]float32, dim)
			wl.Dataset.Sample(pick.Intn(wl.Dataset.Len()), rows[i], nil)
		}
		w.rows[name] = rows
	}
	// warm-up: serve every row once, concurrently, and keep its output hash
	for _, name := range serveModels {
		hashes := make([]uint64, serveRows)
		errs := make([]string, serveRows)
		var wg sync.WaitGroup
		for i, row := range w.rows[name] {
			wg.Add(1)
			go func(i int, row []float32) {
				defer wg.Done()
				rep := w.srv.Dispatch(dist.PredictRequest{ID: uint64(i), Model: name, Input: row})
				hashes[i], errs[i] = outputHash(rep.Output), rep.Err
			}(i, row)
		}
		wg.Wait()
		for i, e := range errs {
			if e != "" {
				return fmt.Errorf("warm-up request %d to %s: %s", i, name, e)
			}
		}
		w.want[name] = hashes
	}
	return nil
}

func (w *serveWorkload) close() {
	if w.srv != nil {
		w.srv.Close()
	}
}

func outputHash(out []float32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range out {
		bits := math.Float32bits(v)
		b[0], b[1], b[2], b[3] = byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24)
		h.Write(b[:])
	}
	return h.Sum64()
}

// phaseResult is one fixed-rate phase's outcome.
type phaseResult struct {
	latencyMs []float64
	ok        []bool // reply carried no error and the row's expected output
	maxLateMs float64
}

// openLoop issues Poisson arrivals at rate for length (and at least need
// requests), each request in its own goroutine so none waits for another,
// and returns once every reply is in.
func (w *serveWorkload) openLoop(rate float64, length time.Duration, need int, tr *tracer, track int) phaseResult {
	arr := rng.NewNamed(w.seed, fmt.Sprintf("perfbench/serve-arrivals/%d", w.phase))
	pick := rng.NewNamed(w.seed, fmt.Sprintf("perfbench/serve-requests/%d", w.phase))
	w.phase++
	var due []time.Duration
	for t := time.Duration(0); t < length || len(due) < need; {
		due = append(due, t)
		t += time.Duration(-math.Log(1-arr.Float64()) / rate * float64(time.Second))
	}
	res := phaseResult{latencyMs: make([]float64, len(due)), ok: make([]bool, len(due))}
	var wg sync.WaitGroup
	start := wallNow()
	for i, d := range due {
		at := start.Add(d)
		if wait := at.Sub(wallNow()); wait > 0 {
			time.Sleep(wait)
		} else if late := durMs(-wait); late > res.maxLateMs {
			res.maxLateMs = late
		}
		model := serveModels[pick.Intn(len(serveModels))]
		row := pick.Intn(serveRows)
		wg.Add(1)
		go func(i int, at time.Time) {
			defer wg.Done()
			s := tr.now()
			rep := w.srv.Dispatch(dist.PredictRequest{ID: uint64(i), Model: model, Input: w.rows[model][row]})
			res.latencyMs[i] = msSince(at)
			tr.span(track, obs.CatServe, "serve.Server.Dispatch", s)
			res.ok[i] = rep.Err == "" && outputHash(rep.Output) == w.want[model][row]
		}(i, at)
	}
	wg.Wait()
	return res
}

func (w *serveWorkload) run(length time.Duration, tr *tracer) (*result, error) {
	r := &result{opTail: serveTail, op2Tail: serveTail}
	track := tr.track("serve/client")
	need := w.p.need(serveTail)
	win, err := startWindow(length)
	if err != nil {
		return nil, err
	}
	light := w.openLoop(serveLightRate, length/2, need, tr, track)
	heavy := w.openLoop(serveHeavyRate, length/2, need, tr, track)
	r.op, r.op2 = light.latencyMs, heavy.latencyMs
	r.rounds = len(r.op) + len(r.op2)
	if err := win.finish(r); err != nil {
		return nil, err
	}
	for _, ph := range []phaseResult{light, heavy} {
		for _, ok := range ph.ok {
			r.check(ok)
		}
	}
	return r, nil
}

func (w *serveWorkload) layers(tr *tracer, m metrics, r *result) error {
	track := tr.track("serve/calls")
	deploy, err := tr.timed(track, obs.CatServe, "serve.Server.Deploy", min(w.p.reps, 10), func() error {
		srv := serve.NewServer(serve.Options{}, nil)
		defer srv.Close()
		return srv.Deploy(serveModels[0], w.containers[serveModels[0]], 1)
	})
	if err != nil {
		return err
	}
	m.set("serve.deploy_ms", deploy, "ms")

	var b1, bmax float64
	for _, name := range serveModels {
		sv, err := models.Load(name, w.containers[name])
		if err != nil {
			return err
		}
		ctx := &nn.Context{Dev: device.New(device.V100, device.Config{DeterministicKernels: true, Selection: device.SelectHeuristic})}
		for _, batch := range []int{1, serveDefaultMaxBatch} {
			x := tensor.New(append([]int{batch}, sv.InShape...)...)
			for b := 0; b < batch; b++ {
				copy(x.Data[b*sv.InDim():], w.rows[name][b%serveRows])
			}
			ms, err := tr.timed(track, obs.CatServe, "models.Servable.Net.Forward", w.p.reps, func() error {
				sv.Net.Forward(ctx, x)
				return nil
			})
			if err != nil {
				return err
			}
			if batch == 1 {
				b1 += ms
			} else {
				bmax += ms
			}
		}
	}
	m.set("models.forward_ms.b1", b1, "ms")
	m.set("models.forward_ms.bmax", bmax, "ms")

	// a traced heavy-rate pass with the queues sampled every millisecond
	stop := make(chan struct{})
	var depths []float64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				q := 0
				for _, l := range w.srv.Loads() {
					q += l.Queued
				}
				depths = append(depths, float64(q))
			}
		}
	}()
	heavy := w.openLoop(serveHeavyRate, serveLayerPass, 1, tr, tr.track("serve/pass"))
	close(stop)
	wg.Wait()
	for _, ok := range heavy.ok {
		r.check(ok)
	}
	m.set("serve.queue_depth.p99", quantile(depths, serveTail), "count")
	m.set("serve.rejected", float64(w.srv.Rejected()), "count")
	m.set("serve.gen_late_ms.max", heavy.maxLateMs, "ms")
	return nil
}
