package kernels

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pack/compute overlap for the parallel GEMM path.
//
// gemmRange consumes B panels in a fixed sequence; packing panel p+1 while
// the micro-kernel chews on panel p hides the pack's memory traffic behind
// compute. The handoff is a two-slot double buffer driven by a tiny per-slot
// state machine instead of channels-per-panel, for three reasons:
//
//  1. Determinism: a packed panel's bits are a pure function of its
//     coordinates (bPanelSrc.pack is pure data movement), so WHO packs it —
//     a pool helper, a stale helper task from a previous owner of the
//     pipeline, or the consumer itself stealing the job — cannot matter.
//     The state machine only decides who; the bits are fixed either way.
//
//  2. No new deadlock: gemmRange already runs inside parallelChunks tasks,
//     whose pool invariant is "tasks never block inside runChunk". submit
//     uses a non-blocking send (a full helper channel just means nobody
//     picks the job up), and await STEALS a still-queued job and packs it
//     inline rather than waiting. The only spin is against a helper actively
//     packing, which is bounded by one panel's pack time.
//
//  3. Zero steady-state allocation: pipelines are pooled, and each carries
//     one pre-built task closure; a dispatch costs at most one channel send
//     per panel, keeping TestTrainStepAllocRegression bounds intact.
//
// Slot lifecycle: idle → queued (submit) → packing (helper or stealing
// consumer) → ready (await returns) → idle (consumed). Job fields are
// written before the queued store and read after the queued CAS or the
// ready load, so Go's sequentially-consistent atomics give the needed
// happens-before edges in both directions.

// panelJob describes one B panel to pack: the destination buffer and the
// pack coordinates (see bPanelSrc.pack). The source descriptor is embedded
// by value: jobs live in heap-resident pipeline slots, and holding a pointer
// here would make every caller's bPanelSrc escape.
type panelJob struct {
	dst            []float32
	src            bPanelSrc
	k0, kb, j0, jw int
	nr             int
}

const (
	slotIdle uint32 = iota
	slotQueued
	slotPacking
	slotReady
)

type packAhead struct {
	state [2]atomic.Uint32
	jobs  [2]panelJob
	task  func() // pre-built helper closure; scans both slots
}

// packOverlapMode gates the overlap: 0 auto (on when GOMAXPROCS > 1),
// > 0 forced on, < 0 forced off.
var packOverlapMode atomic.Int32

// SetPackOverlap overrides the pack/compute overlap gate in the parallel
// GEMM path: mode > 0 forces it on (tests exercise the handoff even on one
// CPU), mode < 0 forces it off, mode == 0 restores the default (on when
// GOMAXPROCS > 1). Like the worker count, the setting is invisible to
// numerics: packed panel bits do not depend on who packs them.
func SetPackOverlap(mode int) {
	switch {
	case mode > 0:
		packOverlapMode.Store(1)
	case mode < 0:
		packOverlapMode.Store(-1)
	default:
		packOverlapMode.Store(0)
	}
}

func packOverlapOn() bool {
	switch m := packOverlapMode.Load(); {
	case m > 0:
		return true
	case m < 0:
		return false
	default:
		return runtime.GOMAXPROCS(0) > 1
	}
}

var packAheadPool = sync.Pool{New: func() any {
	pa := &packAhead{}
	pa.task = pa.runQueued
	return pa
}}

// takePackAhead returns a pipeline for one gemmRange call, or nil when the
// overlap is disabled. Helpers are started so submitted jobs have someone to
// run them.
func takePackAhead() *packAhead {
	if !packOverlapOn() {
		return nil
	}
	startHelpers()
	return packAheadPool.Get().(*packAhead)
}

// putPackAhead returns a drained pipeline (both slots idle) to the pool. A
// stale task closure may still sit in the helper channel; it is harmless by
// construction — it either finds both slots unclaimed and no-ops, or
// legitimately packs a job queued by the pipeline's next owner.
func putPackAhead(pa *packAhead) {
	if pa != nil {
		packAheadPool.Put(pa)
	}
}

// submit queues job into slot (which must be idle) and offers it to the
// helper pool without blocking. If the pool is saturated the job simply
// stays queued until await steals it.
func (pa *packAhead) submit(slot int, job panelJob) {
	pa.jobs[slot] = job
	pa.state[slot].Store(slotQueued)
	select {
	case helperCh <- pa.task:
	default:
	}
}

// runQueued is the helper-side task: claim and pack any queued slot. It
// makes no assumption about which submit it corresponds to, which is what
// makes stale deliveries after pooling safe.
func (pa *packAhead) runQueued() {
	for slot := 0; slot < 2; slot++ {
		if pa.state[slot].CompareAndSwap(slotQueued, slotPacking) {
			j := &pa.jobs[slot]
			j.src.pack(j.dst, j.k0, j.kb, j.j0, j.jw, j.nr)
			pa.state[slot].Store(slotReady)
		}
	}
}

// await blocks until slot is ready, stealing the pack if no helper has
// claimed it — so progress never depends on pool capacity.
func (pa *packAhead) await(slot int) {
	for {
		switch pa.state[slot].Load() {
		case slotReady:
			return
		case slotQueued:
			if pa.state[slot].CompareAndSwap(slotQueued, slotPacking) {
				j := &pa.jobs[slot]
				j.src.pack(j.dst, j.k0, j.kb, j.j0, j.jw, j.nr)
				pa.state[slot].Store(slotReady)
				return
			}
		default: // a helper is packing right now; bounded wait
			runtime.Gosched()
		}
	}
}

// consumed releases slot for the next submit.
func (pa *packAhead) consumed(slot int) {
	pa.jobs[slot] = panelJob{}
	pa.state[slot].Store(slotIdle)
}
