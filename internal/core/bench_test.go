package core

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/device"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/pool"
)

// benchJob builds an attached 4-EST job on one simulated V100 for the named
// workload — the configuration the training-step benchmarks and the
// allocation-regression tests share.
func benchJob(tb testing.TB, name string) *Job {
	tb.Helper()
	cfg := DefaultConfig(4)
	cfg.BatchPerEST = 4
	j, err := NewJob(cfg, name)
	if err != nil {
		tb.Fatal(err)
	}
	if err := j.Attach(EvenPlacement(4, device.V100)); err != nil {
		tb.Fatal(err)
	}
	return j
}

// BenchmarkTrainStep measures one global training step (4 ESTs, one V100) per
// workload, with allocation reporting — the hot path the pooled arena and the
// persistent kernel worker pool target.
func BenchmarkTrainStep(b *testing.B) {
	for _, name := range []string{"vgg19", "resnet50"} {
		b.Run(name, func(b *testing.B) {
			j := benchJob(b, name)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := j.RunStep(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestTrainStepAllocRegression pins the steady-state allocation count of a
// pooled training step so regressions reintroducing per-op `make` calls on
// the hot path fail loudly. The bounds are deliberately loose (~2× the
// measured steady state at the time of writing) to stay robust across Go
// versions; a regression to per-op allocation blows past them by orders of
// magnitude. testing.AllocsPerRun runs under GOMAXPROCS(1), so this pins the
// sequential (worker count 1) path.
func TestTrainStepAllocRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation regression needs steady-state warmup")
	}
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are only meaningful uninstrumented")
	}
	bounds := map[string]float64{
		"vgg19":    700,
		"resnet50": 1600,
	}
	for name, bound := range bounds {
		t.Run(name, func(t *testing.T) {
			j := benchJob(t, name)
			// Warm the arena and the worker pool out of the measurement.
			if err := j.RunSteps(2); err != nil {
				t.Fatal(err)
			}
			before := pool.Stats()
			avg := testing.AllocsPerRun(3, func() {
				if err := j.RunStep(); err != nil {
					t.Fatal(err)
				}
			})
			after := pool.Stats()
			if avg > bound {
				t.Fatalf("steady-state allocs/step = %.0f, want <= %.0f", avg, bound)
			}
			// Leak check: everything drawn from the arena during the steps
			// must have been returned by their step boundaries.
			if leaked := after.InUse() - before.InUse(); leaked != 0 {
				t.Fatalf("arena leak: %d buffers outstanding after %d steps", leaked, j.GlobalStep())
			}
		})
	}
}

// TestTrainStepAllocsParallel pins the allocations of the kernel dispatch:
// a resnet50 step whose GEMMs hand chunks to the worker pool at
// GOMAXPROCS=2 must allocate no more than the same step on one core.
// testing.AllocsPerRun forces GOMAXPROCS=1, so it cannot see dispatch
// allocations; this counts runtime.MemStats.Mallocs around the steps
// instead. A batch-4 resnet50 step stays under the default parallel
// threshold everywhere (and convs always run on one core), so the
// GOMAXPROCS=2 rounds force the dispatch with two workers and a threshold
// of one FLOP, and a traced step asserts the dispatches happen. The garbage
// collector is off while counting: each cycle empties every sync.Pool,
// whose per-P shards then reallocate their internals — a per-GC cost that
// grows with GOMAXPROCS and is not the dispatch's. Each setting reports its
// best of five 20-step rounds; the step's own count still jitters by about
// ±0.5 per step between rounds, so the comparison allows one allocation per
// step. The forced step makes several dispatches (asserted ≥ 2), so one
// allocation per dispatch still fails it.
func TestTrainStepAllocsParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts need steady-state warmup")
	}
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are only meaningful uninstrumented")
	}
	j := benchJob(t, "resnet50")
	const steps = 20
	perStep := func(procs int) float64 {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		if err := j.RunSteps(3); err != nil {
			t.Fatal(err)
		}
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		best := math.Inf(1)
		for round := 0; round < 5; round++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := j.RunSteps(steps); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			best = math.Min(best, float64(after.Mallocs-before.Mallocs)/steps)
		}
		return best
	}
	seq := perStep(1)

	kernels.SetParallelism(2)
	kernels.SetParallelThreshold(1)
	defer kernels.SetParallelism(0)
	defer kernels.SetParallelThreshold(0)
	par := perStep(2)

	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	tr := obs.New()
	obs.SetDefault(tr)
	err := j.RunStep()
	obs.SetDefault(nil)
	if err != nil {
		t.Fatal(err)
	}
	dispatches := 0
	for _, sp := range tr.Spans()[obs.RuntimeTrack] {
		if sp.Name == "kernels.dispatch" {
			dispatches++
		}
	}
	t.Logf("allocs/step: GOMAXPROCS=1 %.1f, GOMAXPROCS=2 forced %.1f; %d dispatches/step", seq, par, dispatches)
	if dispatches < 2 {
		t.Fatalf("forced step made %d kernel dispatches, want >= 2 — the gate does not reach the dispatch", dispatches)
	}
	if par > seq+1 {
		t.Fatalf("allocs/step at GOMAXPROCS=2 = %.1f, want <= %.1f (GOMAXPROCS=1) + 1", par, seq)
	}
}
