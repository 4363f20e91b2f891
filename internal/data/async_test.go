package data

import (
	"sync"
	"testing"
	"time"
)

func TestAsyncLoaderBitwiseEqualsSync(t *testing.T) {
	ref := newLoader(4, 4, 2)
	al := NewAsyncLoader(newLoader(4, 4, 2), 3, 4)
	defer al.Close()
	steps := ref.Sampler.StepsPerEpoch()
	for step := 0; step < steps; step++ {
		for r := 0; r < 4; r++ {
			want, wantL := ref.Batch(step, r)
			got, gotL := al.Batch(step, r)
			if !got.Equal(want) {
				t.Fatalf("async batch (%d,%d) differs from sync", step, r)
			}
			for i := range wantL {
				if gotL[i] != wantL[i] {
					t.Fatal("labels differ")
				}
			}
		}
	}
}

// TestAsyncLoaderConcurrentConsumers drains all ESTs from separate
// goroutines (as physical training workers would) while the shared pool
// races — exercised under -race by the normal test run.
func TestAsyncLoaderConcurrentConsumers(t *testing.T) {
	const world = 4
	ref := newLoader(world, 4, 2)
	al := NewAsyncLoader(newLoader(world, 4, 2), 2, 3)
	defer al.Close()
	steps := al.l.Sampler.StepsPerEpoch()

	hashes := make([][]uint64, world)
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for step := 0; step < steps; step++ {
				x, _ := al.Batch(step, r)
				hashes[r] = append(hashes[r], x.Hash64())
			}
		}(r)
	}
	wg.Wait()
	for r := 0; r < world; r++ {
		for step := 0; step < steps; step++ {
			want, _ := ref.Batch(step, r)
			if hashes[r][step] != want.Hash64() {
				t.Fatalf("concurrent async batch (%d,%d) differs", step, r)
			}
		}
	}
}

// TestAsyncLoaderCheckpointMidFlight: snapshotting the underlying loader
// while prefetched-but-unconsumed batches sit in the queuing buffer must
// restore to bitwise-identical future batches.
func TestAsyncLoaderCheckpointMidFlight(t *testing.T) {
	ref := newLoader(2, 4, 2)
	base := newLoader(2, 4, 2)
	al := NewAsyncLoader(base, 2, 4)
	// consume a few steps; the pool is prefetching ahead the whole time
	for step := 0; step < 3; step++ {
		for r := 0; r < 2; r++ {
			ref.Batch(step, r)
			al.Batch(step, r)
		}
	}
	al.Close() // quiesce, pending batches remain recorded in the buffer
	st := base.State()

	restored := newLoader(2, 4, 2)
	restored.Restore(st)
	for step := 3; step < 6; step++ {
		for r := 0; r < 2; r++ {
			want, _ := ref.Batch(step, r)
			got, _ := restored.Batch(step, r)
			if !got.Equal(want) {
				t.Fatalf("restored-from-async batch (%d,%d) differs", step, r)
			}
		}
	}
}

// TestAsyncLoaderNoLostWakeup drives the token channel to full on purpose:
// with the only worker parked, rank 0 is kicked far past the channel's
// capacity, then rank 1 consumes a batch and gains headroom. Rank 1's next
// batch must still be produced once the worker resumes — a kick may never
// be dropped while its rank has headroom and no token queued.
func TestAsyncLoaderNoLostWakeup(t *testing.T) {
	al := NewAsyncLoader(newLoader(2, 4, 2), 1, 1)
	defer al.Close()
	if steps := al.l.Sampler.StepsPerEpoch(); steps < 3 {
		t.Fatalf("need >= 3 steps per epoch, have %d", steps)
	}
	al.Batch(0, 0)
	al.Batch(0, 1)
	// wait until step 1 of both ranks sits in the queuing buffer: the
	// pool then has no headroom left and goes idle
	deadline := time.Now().Add(10 * time.Second)
	for {
		al.bufMu.Lock()
		_, ok0 := al.l.pending[al.l.Sampler.GlobalOrder(1, 0)]
		_, ok1 := al.l.pending[al.l.Sampler.GlobalOrder(1, 1)]
		al.bufMu.Unlock()
		if ok0 && ok1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("prefetch of step 1 never completed")
		}
		time.Sleep(time.Millisecond)
	}
	// park the worker: any token it takes now blocks on a rank lock
	al.rankMu[0].Lock()
	al.rankMu[1].Lock()
	for i := 0; i < 4*cap(al.tasks)+4; i++ {
		al.kick(0)
	}
	al.Batch(1, 1) // rank 1 gains headroom and kicks itself
	al.rankMu[1].Unlock()
	al.rankMu[0].Unlock()

	done := make(chan struct{})
	go func() {
		al.Batch(2, 1)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("rank 1's batch was never produced: its prefetch token was lost")
	}
}

func TestAsyncLoaderOutOfOrderPanics(t *testing.T) {
	al := NewAsyncLoader(newLoader(2, 4, 2), 1, 2)
	defer al.Close()
	al.Batch(0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-order consumption")
		}
	}()
	al.Batch(2, 0)
}

func TestAsyncLoaderValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewAsyncLoader(newLoader(2, 4, 2), 0, 2)
}
