package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/kernels"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/optim"
	"repro/internal/pool"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// train_resnet50: in-process training of resnet50 with 4 ESTs of batch 4 on
// one V100. op is one global step (core.Job.RunStep); op2 is the on-demand
// checkpoint taken after it (core.Job.Checkpoint), the state every scale
// event starts from. Kernels, nn, optim, comm and pool do the work.
type trainWorkload struct {
	p   params
	cfg core.Config
	job *core.Job
}

const (
	trainModel = "resnet50"
	trainESTs  = 4
	// trainWarmSteps brings the pooled arena and the kernel worker pool to
	// their steady state; the first steps allocate what later ones reuse.
	trainWarmSteps = 20
	// trainCheckSteps is the length of the cross-placement check.
	trainCheckSteps = 4
	// trainLayerSteps is the length of the traced pass the runtime counters
	// are read around.
	trainLayerSteps = 200
	trainTail       = 0.99
)

func trainConfig(seed uint64) core.Config {
	cfg := core.DefaultConfig(trainESTs)
	cfg.BatchPerEST = 4
	cfg.Seed = seed
	return cfg
}

func trainPlacement() core.Placement { return core.EvenPlacement(trainESTs, device.V100) }

// trainOtherPlacement is the heterogeneous placement the output check
// compares against: D2 makes it bitwise equal to one V100.
func trainOtherPlacement() core.Placement {
	return core.EvenPlacement(trainESTs, device.V100, device.P100, device.T4)
}

func (w *trainWorkload) setup(seed uint64) error {
	w.cfg = trainConfig(seed)
	j, err := newAttachedJob(w.cfg, trainModel, trainPlacement())
	if err != nil {
		return err
	}
	if err := j.RunSteps(trainWarmSteps); err != nil {
		return err
	}
	w.job = j
	return nil
}

func (w *trainWorkload) close() {}

func newAttachedJob(cfg core.Config, model string, p core.Placement) (*core.Job, error) {
	j, err := core.NewJob(cfg, model)
	if err != nil {
		return nil, err
	}
	if err := j.Attach(p); err != nil {
		return nil, err
	}
	return j, nil
}

func lossesFinite(j *core.Job) bool {
	for _, l := range j.LastLosses() {
		if math.IsNaN(float64(l)) || math.IsInf(float64(l), 0) {
			return false
		}
	}
	return true
}

func (w *trainWorkload) run(length time.Duration, tr *tracer) (*result, error) {
	j := w.job
	r := &result{opTail: trainTail, op2Tail: trainTail}
	track := tr.track("train")
	need := w.p.need(trainTail)
	win, err := startWindow(length)
	if err != nil {
		return nil, err
	}
	for !win.done(len(r.op), need) {
		s, t0 := tr.now(), wallNow()
		err := j.RunStep()
		r.op = append(r.op, msSince(t0))
		tr.span(track, obs.CatStep, "core.Job.RunStep", s)
		if err != nil {
			return nil, err
		}
		r.check(lossesFinite(j))

		s, t0 = tr.now(), wallNow()
		ck := j.Checkpoint()
		r.op2 = append(r.op2, msSince(t0))
		tr.span(track, obs.CatShard, "core.Job.Checkpoint", s)
		r.check(len(ck) > 0)
	}
	r.rounds = len(r.op)
	if err := win.finish(r); err != nil {
		return nil, err
	}
	ok, err := w.placementsAgree()
	if err != nil {
		return nil, err
	}
	r.check(ok)
	return r, nil
}

// placementsAgree trains two fresh jobs from the benchmark's seed for the
// same steps, one on the benchmark placement and one on a heterogeneous
// placement, and compares their parameters bitwise.
func (w *trainWorkload) placementsAgree() (bool, error) {
	var hashes [2]uint64
	for i, p := range []core.Placement{trainPlacement(), trainOtherPlacement()} {
		j, err := newAttachedJob(w.cfg, trainModel, p)
		if err != nil {
			return false, err
		}
		if err := j.RunSteps(trainCheckSteps); err != nil {
			return false, err
		}
		hashes[i] = j.ParamsHash()
	}
	return hashes[0] == hashes[1], nil
}

func (w *trainWorkload) layers(tr *tracer, m metrics, r *result) error {
	j := w.job
	track := tr.track("train/steps")
	var ms0, ms1 runtime.MemStats
	p0 := pool.Stats()
	runtime.ReadMemStats(&ms0)
	t0 := wallNow()
	for i := 0; i < trainLayerSteps; i++ {
		s := tr.now()
		err := j.RunStep()
		tr.span(track, obs.CatStep, "core.Job.RunStep", s)
		if err != nil {
			return err
		}
		r.check(lossesFinite(j))
	}
	elapsed := wallNow().Sub(t0)
	runtime.ReadMemStats(&ms1)
	p1 := pool.Stats()
	m.set("pool.gets_per_step", float64(p1.Gets-p0.Gets)/trainLayerSteps, "count")
	m.set("go.allocs_per_step", float64(ms1.Mallocs-ms0.Mallocs)/trainLayerSteps, "count")
	m.set("go.gc_pause_ms_per_s", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6/elapsed.Seconds(), "ms/s")
	step := median(tr.durations()["core.Job.RunStep"])

	// The probes run on a separately built model of the same seed, at the
	// shapes one EST's local step sees, so the job's state is untouched.
	wl, err := models.Build(trainModel, w.cfg.Seed)
	if err != nil {
		return err
	}
	pt := &probe{tr: tr, track: tr.track("train/layers"), reps: w.p.reps, cfg: w.cfg}
	dataMs, err := pt.data(wl)
	if err != nil {
		return err
	}
	m.set("data.batch_ms", dataMs, "ms")
	leaves, err := pt.leaves(wl)
	if err != nil {
		return err
	}
	nnTotal := 0.0
	for _, c := range []string{"conv", "norm", "other"} {
		fwd, bwd := pt.nn(leaves, c)
		m.set("nn."+c+".fwd_ms", fwd, "ms")
		m.set("nn."+c+".bwd_ms", bwd, "ms")
		nnTotal += fwd + bwd
	}
	im2col, matmul, col2im := pt.kernels(leaves)
	m.set("kernels.im2col_ms", im2col, "ms")
	m.set("kernels.matmul_ms", matmul, "ms")
	m.set("kernels.col2im_ms", col2im, "ms")
	opt := pt.optim(wl)
	m.set("optim.step_ms", opt, "ms")
	reduce, calls, bytes := pt.comm(wl)
	m.set("comm.reduce_ms", reduce, "ms")
	m.set("comm.calls_per_step", calls, "count")
	m.set("comm.bytes_per_step", bytes, "bytes")
	m.set("core.residual_ms", step-(dataMs+nnTotal+opt+reduce), "ms")
	return nil
}

// probe times isolated calls into one layer's public API, each inside a
// benchmark-side span, and reports per-global-step medians.
type probe struct {
	tr    *tracer
	track int
	reps  int
	cfg   core.Config
}

// data is the time Dataset.Sample takes to materialise one global batch.
func (pt *probe) data(wl *models.Workload) (float64, error) {
	ds := wl.Dataset
	dim := 1
	for _, d := range ds.InputShape() {
		dim *= d
	}
	n := pt.cfg.NumESTs * pt.cfg.BatchPerEST
	buf := make([]float32, n*dim)
	pick := rng.NewNamed(pt.cfg.Seed, "perfbench/data")
	aug := rng.NewNamed(pt.cfg.Seed, "perfbench/augment")
	return pt.tr.timed(pt.track, obs.CatStep, "data.Dataset.Sample", pt.reps, func() error {
		for i := 0; i < n; i++ {
			ds.Sample(pick.Intn(ds.Len()), buf[i*dim:(i+1)*dim], aug)
		}
		return nil
	})
}

// leaf is one parameter-bearing or elementwise layer of the net with the
// input shape it sees in a local step.
type leaf struct {
	layer nn.Layer
	kind  string // conv, norm or other
	in    []int
	fwdMs []float64
	bwdMs []float64
}

// leaves walks the net with one EST's batch, records every leaf layer with
// its exact input shape, and times each leaf's Forward and Backward there.
func (pt *probe) leaves(wl *models.Workload) ([]*leaf, error) {
	ctx := &nn.Context{Dev: pt.device(), RNG: rng.NewNamed(pt.cfg.Seed, "perfbench/nn"), Training: true, Scratch: pool.NewScope()}
	shape := append([]int{pt.cfg.BatchPerEST}, wl.Dataset.InputShape()...)
	var out []*leaf
	var walk func(l nn.Layer, x *tensor.Tensor) *tensor.Tensor
	walk = func(l nn.Layer, x *tensor.Tensor) *tensor.Tensor {
		switch v := l.(type) {
		case *nn.Sequential:
			for _, c := range v.Layers {
				x = walk(c, x)
			}
			return x
		case *nn.Residual:
			walk(v.Body, x)
			return x
		}
		kind := "other"
		switch l.(type) {
		case *nn.Conv2D:
			kind = "conv"
		case *nn.BatchNorm2D, *nn.LayerNorm:
			kind = "norm"
		}
		out = append(out, &leaf{layer: l, kind: kind, in: append([]int(nil), x.Shape()...)})
		return l.Forward(ctx, x)
	}
	x := randomTensor(rng.NewNamed(pt.cfg.Seed, "perfbench/input"), shape)
	walk(wl.Net, x)
	ctx.Scratch.ReleaseAll()
	if len(out) == 0 {
		return nil, fmt.Errorf("%s has no layers", wl.Name)
	}
	fill := rng.NewNamed(pt.cfg.Seed, "perfbench/grad")
	for _, lf := range out {
		x := randomTensor(fill, lf.in)
		for i := 0; i < pt.reps; i++ {
			s, t0 := pt.tr.now(), wallNow()
			y := lf.layer.Forward(ctx, x)
			lf.fwdMs = append(lf.fwdMs, msSince(t0))
			pt.tr.span(pt.track, obs.CatStep, "nn."+lf.kind+".Forward", s)
			g := randomTensor(fill, y.Shape())
			s, t0 = pt.tr.now(), wallNow()
			lf.layer.Backward(ctx, g)
			lf.bwdMs = append(lf.bwdMs, msSince(t0))
			pt.tr.span(pt.track, obs.CatStep, "nn."+lf.kind+".Backward", s)
			ctx.Scratch.ReleaseAll()
		}
	}
	return out, nil
}

// device is the simulated GPU the job's configuration runs on; its kernel
// block fixes the GEMM accumulation order.
func (pt *probe) device() *device.Device { return device.New(device.V100, pt.cfg.DeviceConfig()) }

// nn sums the median forward and backward times of every leaf of the kind
// over one global step (every EST runs each leaf once).
func (pt *probe) nn(leaves []*leaf, kind string) (fwd, bwd float64) {
	for _, lf := range leaves {
		if lf.kind == kind {
			fwd += median(lf.fwdMs)
			bwd += median(lf.bwdMs)
		}
	}
	return fwd * trainESTs, bwd * trainESTs
}

// kernels times the explicit im2col, GEMM and col2im kernels at every conv
// leaf's shapes, per image, over one global step: the forward GEMM and both
// backward GEMMs count as matmul.
func (pt *probe) kernels(leaves []*leaf) (im2col, matmul, col2im float64) {
	type convCase struct {
		d                                kernels.ConvDims
		img, cols, w, out, dw, dcols, dx []float32
		kc, images                       int
	}
	var cases []convCase
	fill := rng.NewNamed(pt.cfg.Seed, "perfbench/kernels")
	kc := pt.device().KernelBlock()
	for _, lf := range leaves {
		c, ok := lf.layer.(*nn.Conv2D)
		if !ok {
			continue
		}
		d := kernels.ConvDims{Batch: 1, CIn: c.CIn, H: lf.in[2], W: lf.in[3], COut: c.COut,
			KH: c.KH, KW: c.KW, StrideH: c.StrideH, StrideW: c.StrideW, PadH: c.PadH, PadW: c.PadW}
		kdim, spatial := d.ColRows(), d.ColCols()
		cases = append(cases, convCase{
			d: d, kc: kc, images: lf.in[0] * trainESTs,
			img:  randomSlice(fill, d.CIn*d.H*d.W),
			cols: make([]float32, kdim*spatial), w: randomSlice(fill, d.COut*kdim),
			out: randomSlice(fill, d.COut*spatial), dw: make([]float32, d.COut*kdim),
			dcols: make([]float32, kdim*spatial), dx: make([]float32, d.CIn*d.H*d.W),
		})
	}
	var a, b, c []float64
	for i := 0; i < pt.reps; i++ {
		var ta, tb, tc time.Duration
		for _, k := range cases {
			kdim, spatial := k.d.ColRows(), k.d.ColCols()
			for n := 0; n < k.images; n++ {
				s, t0 := pt.tr.now(), wallNow()
				kernels.Im2Col(k.cols, k.img, k.d)
				ta += wallNow().Sub(t0)
				pt.tr.span(pt.track, obs.CatKernel, "kernels.Im2Col", s)

				s, t0 = pt.tr.now(), wallNow()
				kernels.MatMul(k.out, k.w, k.cols, k.d.COut, kdim, spatial, k.kc)
				kernels.MatMulABT(k.dw, k.out, k.cols, k.d.COut, spatial, kdim, k.kc)
				kernels.MatMulATB(k.dcols, k.w, k.out, kdim, k.d.COut, spatial, k.kc)
				tb += wallNow().Sub(t0)
				pt.tr.span(pt.track, obs.CatKernel, "kernels.MatMul", s)

				s, t0 = pt.tr.now(), wallNow()
				kernels.Col2Im(k.dx, k.dcols, k.d)
				tc += wallNow().Sub(t0)
				pt.tr.span(pt.track, obs.CatKernel, "kernels.Col2Im", s)
			}
		}
		a, b, c = append(a, durMs(ta)), append(b, durMs(tb)), append(c, durMs(tc))
	}
	return median(a), median(b), median(c)
}

// optim times one SGD step over the model's parameters.
func (pt *probe) optim(wl *models.Workload) float64 {
	opt := optim.NewSGD(wl.Params(), pt.cfg.LR, pt.cfg.Momentum, pt.cfg.WeightDecay)
	ms, _ := pt.tr.timed(pt.track, obs.CatStep, "optim.SGD.Step", pt.reps, func() error { opt.Step(); return nil })
	return ms
}

// comm times the all-reduce of one global step's gradient buckets (one
// gradient set per EST) and reports the buckets and bytes it reduces.
func (pt *probe) comm(wl *models.Workload) (ms, calls, bytes float64) {
	cfg := pt.cfg
	params := wl.Params()
	sizes := make([]int, len(params))
	total := 0
	for i, p := range params {
		sizes[i] = p.Value.Size()
		total += sizes[i]
	}
	ddp := comm.NewElasticDDP(sizes, cfg.BucketCapElems)
	fill := rng.NewNamed(cfg.Seed, "perfbench/comm")
	sets := make([][]*tensor.Tensor, cfg.NumESTs)
	for r := range sets {
		for _, p := range params {
			sets[r] = append(sets[r], randomTensor(fill, p.Value.Shape()))
		}
	}
	ms, _ = pt.tr.timed(pt.track, obs.CatComm, "comm.ElasticDDP.AllReduce", pt.reps, func() error {
		ddp.AllReduce(sets, cfg.NumESTs)
		return nil
	})
	return ms, float64(ddp.NumBuckets()), float64(cfg.NumESTs * total * 4)
}

func randomSlice(s *rng.Stream, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = s.NormFloat32()
	}
	return out
}

func randomTensor(s *rng.Stream, shape []int) *tensor.Tensor {
	t := tensor.New(shape...)
	copy(t.Data, randomSlice(s, t.Size()))
	return t
}
