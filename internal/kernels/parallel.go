package kernels

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Host-side parallel execution of the deterministic kernels. Parallelism
// here never touches numerics: work is split along dimensions whose outputs
// are disjoint (GEMM cache blocks), each unit computed with exactly the
// sequential kernel's accumulation order. The results are bitwise identical
// to the sequential kernels — asserted by tests — so the simulation runs on
// all cores without perturbing the determinism story.
//
// The parallel GEMMs dispatch whole cache blocks of the tiled implementation
// (gemm.go): operand A is packed once by the caller, then contiguous runs of
// row or column strips of the output go to the worker pool, each unit
// running its own ascending-kc loop over the shared read-only packed panel.
//
// Dispatch runs on a persistent worker pool: helper goroutines are started
// once and fed closures through a channel, so a kernel call costs a few
// channel sends instead of goroutine spawns. The per-call state — the chunk
// counter, the wait group, the kernel's operands — lives in pooled structs
// whose helper closures are built once, so a dispatch allocates nothing at
// GOMAXPROCS > 1 either. The submitting goroutine always
// participates in the work itself, which both uses its cycles and guarantees
// progress even if every helper is busy elsewhere. Which goroutine executes
// which chunk is scheduler-dependent, but chunk boundaries are deterministic
// and chunk outputs disjoint, so the worker count is invisible to numerics.

const (
	// defaultWorkerCap bounds kernel-level concurrency when no explicit
	// parallelism is configured.
	defaultWorkerCap = 8
	// defaultParallelThreshold is the approximate FLOP count below which
	// parallel dispatch is not worth the dispatch overhead.
	defaultParallelThreshold = 1 << 16
)

var (
	// cfgWorkers > 0 overrides the automatic worker count. Changing it only
	// changes how disjoint output ranges are dispatched — never the numbers.
	cfgWorkers atomic.Int32
	// cfgThreshold > 0 overrides the parallel-dispatch FLOP threshold.
	cfgThreshold atomic.Int64
)

// SetParallelism overrides the kernel worker count (also settable via the
// EASYSCALE_KERNEL_WORKERS environment variable, resolved by
// core.ConfigFromEnv at process start). workers <= 0 restores the default
// min(GOMAXPROCS, 8). The setting never affects numerics: it governs only
// how many disjoint chunks run concurrently.
func SetParallelism(workers int) {
	if workers < 0 {
		workers = 0
	}
	cfgWorkers.Store(int32(workers))
}

// Parallelism returns the resolved worker count kernels currently dispatch
// with.
func Parallelism() int { return maxWorkers() }

// SetParallelThreshold overrides the FLOP count below which the parallel
// GEMMs (MatMulParallel and its transposed forms) run sequentially (also
// settable via EASYSCALE_PARALLEL_THRESHOLD, resolved by core.ConfigFromEnv
// at process start); convolutions always run on one core. flops <= 0
// restores the default. Like the worker count, the threshold is invisible
// to numerics.
func SetParallelThreshold(flops int) {
	if flops < 0 {
		flops = 0
	}
	cfgThreshold.Store(int64(flops))
}

// ParallelThreshold returns the current parallel-dispatch FLOP threshold.
func ParallelThreshold() int {
	if t := cfgThreshold.Load(); t > 0 {
		return int(t)
	}
	return defaultParallelThreshold
}

// maxWorkers resolves the kernel-level concurrency.
func maxWorkers() int {
	if w := int(cfgWorkers.Load()); w > 0 {
		return w
	}
	w := runtime.GOMAXPROCS(0)
	if w > defaultWorkerCap {
		w = defaultWorkerCap
	}
	if w < 1 {
		w = 1
	}
	return w
}

// The persistent worker pool: helperCh feeds closures to goroutines started
// once, on first parallel dispatch.
var (
	helperOnce sync.Once
	helperCh   chan func()
	helperN    int
)

func startHelpers() {
	helperOnce.Do(func() {
		helperN = runtime.GOMAXPROCS(0)
		if helperN < 1 {
			helperN = 1
		}
		helperCh = make(chan func(), 4*helperN)
		for i := 0; i < helperN; i++ {
			go func() {
				for f := range helperCh {
					f()
				}
			}()
		}
	})
}

// chunksFor splits [0,n) into at most `workers` contiguous chunks and returns
// the chunk size and count. Boundaries depend only on n and workers.
func chunksFor(n, workers int) (chunk, nchunks int) {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	chunk = (n + workers - 1) / workers
	nchunks = (n + chunk - 1) / chunk
	return chunk, nchunks
}

// chunkTask is one parallel kernel call: runChunk computes the disjoint
// output of units [lo, hi).
type chunkTask interface {
	runChunk(lo, hi int)
}

// dispatch is the shared state of one parallelChunks call, pooled with its
// helper closure built once, so a dispatch costs one channel send per
// helper and no allocation.
type dispatch struct {
	task              chunkTask
	n, chunk, nchunks int
	next              atomic.Int64 // next chunk index to claim
	wg                sync.WaitGroup
	help              func() // d.helper, bound once
}

var dispatches sync.Pool

func getDispatch() *dispatch {
	if d, ok := dispatches.Get().(*dispatch); ok {
		return d
	}
	d := &dispatch{}
	d.help = d.helper
	return d
}

// run claims and computes chunks until the counter is exhausted.
func (d *dispatch) run() {
	for {
		ci := int(d.next.Add(1) - 1)
		if ci >= d.nchunks {
			return
		}
		lo := ci * d.chunk
		d.task.runChunk(lo, min(lo+d.chunk, d.n))
	}
}

func (d *dispatch) helper() {
	defer d.wg.Done()
	d.run()
}

// parallelChunks runs t.runChunk for every chunk concurrently: helper
// goroutines and the caller pull chunk indices from a shared counter until
// exhausted. Tasks never block inside runChunk, so the pool cannot deadlock
// even when every helper is occupied — the caller alone drains the counter.
// The caller then waits for every helper it sent to return, so no helper
// still holds the dispatch when it is recycled.
//
// This is the kernel dispatch seam: when a process-default tracer is
// installed (obs.SetDefault), each multi-chunk dispatch records one span on
// the runtime track — an atomic ring write in the caller goroutine, so the
// zero-alloc hot path survives with tracing enabled, and a nil-check when
// tracing is off.
//
//easyscale:hotpath
func parallelChunks(n, chunk, nchunks int, t chunkTask) {
	if nchunks <= 1 {
		t.runChunk(0, n)
		return
	}
	tr := obs.Default()
	start := tr.Now()
	startHelpers()
	d := getDispatch()
	d.task, d.n, d.chunk, d.nchunks = t, n, chunk, nchunks
	d.next.Store(0)
	helpers := min(nchunks-1, helperN)
	d.wg.Add(helpers)
	for i := 0; i < helpers; i++ {
		helperCh <- d.help
	}
	d.run()
	d.wg.Wait()
	d.task = nil
	dispatches.Put(d)
	tr.Span(obs.RuntimeTrack, obs.CatKernel, "kernels.dispatch", start, int64(n), int64(nchunks))
}

// MatMulParallel computes C = A·B exactly as MatMul (same kc blocking, same
// per-element accumulation order) with whole cache blocks dispatched to the
// worker pool.
//
//easyscale:hotpath
func MatMulParallel(dst, a, b []float32, m, k, n, kc int) {
	checkGemm(dst, a, b, m, k, n, m*k, k*n, "MatMulParallel")
	if 2*m*k*n < ParallelThreshold() {
		MatMul(dst, a, b, m, k, n, kc)
		return
	}
	pa := packA(a, m, k, normKC(kc, k), k, 1)
	bsrc := bPanelSrc{kind: bRowMajor, data: b, ld: n}
	gemmParallel(dst, n, &pa, &bsrc)
	pa.release()
}

// MatMulATBParallel computes C = Aᵀ·B exactly as MatMulATB with whole cache
// blocks dispatched to the worker pool.
//
//easyscale:hotpath
func MatMulATBParallel(dst, a, b []float32, m, k, n, kc int) {
	checkGemm(dst, a, b, m, k, n, k*m, k*n, "MatMulATBParallel")
	if 2*m*k*n < ParallelThreshold() {
		MatMulATB(dst, a, b, m, k, n, kc)
		return
	}
	pa := packA(a, m, k, normKC(kc, k), 1, m)
	bsrc := bPanelSrc{kind: bRowMajor, data: b, ld: n}
	gemmParallel(dst, n, &pa, &bsrc)
	pa.release()
}

// MatMulABTParallel computes C = A·Bᵀ exactly as MatMulABT with whole cache
// blocks dispatched to the worker pool.
//
//easyscale:hotpath
func MatMulABTParallel(dst, a, b []float32, m, k, n, kc int) {
	checkGemm(dst, a, b, m, k, n, m*k, n*k, "MatMulABTParallel")
	if 2*m*k*n < ParallelThreshold() {
		MatMulABT(dst, a, b, m, k, n, kc)
		return
	}
	pa := packA(a, m, k, normKC(kc, k), k, 1)
	bsrc := bPanelSrc{kind: bColMajor, data: b, ld: k}
	gemmParallel(dst, n, &pa, &bsrc)
	pa.release()
}

// Conv2DParallel is Conv2D. A conv runs on one core: its natural split is
// by batch image, and at the model zoo's conv sizes a helper's wake-up
// outlasts the images it would take (on a 2-vCPU Xeon, splitting
// resnet50's batch-4 convs across 2 cores made the training step 11%
// slower than one core).
//
// Deprecated: call Conv2D.
func Conv2DParallel(dst, src, weight, bias []float32, d ConvDims, kc int) {
	Conv2D(dst, src, weight, bias, d, kc)
}

// Conv2DBackwardParallel is Conv2DBackward; see Conv2DParallel.
//
// Deprecated: call Conv2DBackward.
func Conv2DBackwardParallel(gradSrc, gradWeight, gradBias, src, weight, gradOut []float32, d ConvDims, kc int) {
	Conv2DBackward(gradSrc, gradWeight, gradBias, src, weight, gradOut, d, kc)
}
