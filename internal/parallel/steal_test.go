package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// spin burns deterministic CPU work (no sleeping, no allocation) so
// scheduling tests and benchmarks measure wall-clock redistribution.
func spin(units int) uint64 {
	x := uint64(88172645463325252)
	for i := 0; i < units*400; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

var spinSink atomic.Uint64

// TestStealRunsEveryItemExactlyOnce: the shared-cursor pool must cover
// 0..n-1 with no duplicates and no gaps for every pool width and item
// count.
func TestStealRunsEveryItemExactlyOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64, 1000} {
		for _, workers := range []int{1, 2, 3, 8, 16} {
			counts := make([]atomic.Int32, n)
			if err := ForEachCtx(context.Background(), n, workers, func(i int) error {
				counts[i].Add(1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Fatalf("n=%d workers=%d: item %d ran %d times", n, workers, i, c)
				}
			}
		}
	}
}

// TestStealSingleWorkerInOrder pins the in-order guarantee: with one
// worker, items run strictly ascending. ForEachCtx covers the public
// surface; forEachCursor is also driven directly at workers=1 so the
// cursor's own order is pinned.
func TestStealSingleWorkerInOrder(t *testing.T) {
	for _, n := range []int{5, 64, 300} {
		next := 0
		if err := ForEachCtx(context.Background(), n, 1, func(i int) error {
			if i != next {
				return fmt.Errorf("item %d ran out of order (want %d)", i, next)
			}
			next++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if next != n {
			t.Fatalf("ran %d of %d", next, n)
		}
		// Direct cursor path: one worker — visits must still ascend.
		next = 0
		errs := forEachCursor(context.Background(), n, 1, func(i int) error {
			if i != next {
				return fmt.Errorf("cursor pool: item %d ran out of order (want %d)", i, next)
			}
			next++
			return nil
		})
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		if next != n {
			t.Fatalf("cursor pool ran %d of %d", next, n)
		}
	}
}

// TestStealSkewedWorkIsRedistributed: with a pathologically heavy
// first item and idle siblings, every worker pool must still complete
// all items, and under >= 2 workers the light items must not all be
// executed by the heavy item's worker after it finishes — i.e. another
// worker took them from the cursor while item 0 was running.
func TestStealSkewedWorkIsRedistributed(t *testing.T) {
	const n = 16
	var mu sync.Mutex
	doneLight := 0
	lightBeforeHeavyDone := 0
	heavyDone := false
	err := ForEachCtx(context.Background(), n, 2, func(i int) error {
		if i == 0 {
			// Heavy cell: wait until every light item has finished —
			// only possible if the other worker stole them all. The
			// iteration bound turns a broken scheduler into a test
			// failure instead of a hang.
			for iter := 0; ; iter++ {
				mu.Lock()
				d := doneLight
				mu.Unlock()
				if d == n-1 {
					break
				}
				if iter > 1_000_000_000 {
					return errors.New("light items never stolen")
				}
				spinSink.Add(spin(1))
			}
			mu.Lock()
			heavyDone = true
			mu.Unlock()
			return nil
		}
		mu.Lock()
		if !heavyDone {
			lightBeforeHeavyDone++
		}
		doneLight++
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if lightBeforeHeavyDone != n-1 {
		t.Fatalf("only %d of %d light items ran while the heavy cell was in flight", lightBeforeHeavyDone, n-1)
	}
}

// TestStealErrorAndCancelSemantics: the first error is propagated with
// its item annotation and stops the pool, and context cancellation
// surfaces as the bare ctx error.
func TestStealErrorAndCancelSemantics(t *testing.T) {
	boom := errors.New("boom")
	err := ForEachCtx(context.Background(), 200, 4, func(i int) error {
		if i == 97 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}

	// A failure stops the pool: with one worker, nothing after the
	// failing item runs.
	ran0 := 0
	err = ForEachCtx(context.Background(), 100, 1, func(i int) error {
		ran0++
		if i == 10 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
	if ran0 != 11 {
		t.Fatalf("failing worker ran %d items, want 11 (its queued remainder must be dropped)", ran0)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err = ForEachCtx(ctx, 100_000, 4, func(i int) error {
		if ran.Add(1) == 5 {
			cancel()
		}
		return nil
	})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if ran.Load() >= 100_000 {
		t.Fatal("cancellation did not stop the pool")
	}
}

// BenchmarkStealSkewedBatch is the scheduler acceptance benchmark: a
// 16-cell batch where cell 0 carries 8x the work of every other cell —
// the shape of a mixed batch with one slow request. Static assignment
// pins the heavy cell plus half the light cells on one worker; the
// shared cursor lets the idle worker take the light cells. On a
// multi-core host the cursor pool wins wall-clock at >= 2 workers and
// matches at 1 (same total work, same order).
func BenchmarkStealSkewedBatch(b *testing.B) {
	const cells = 16
	const heavy = 8
	work := func(i int) error {
		units := 20
		if i == 0 {
			units *= heavy
		}
		spinSink.Add(spin(units))
		return nil
	}
	// staticForEach is the static scheduler: one contiguous range per
	// worker.
	staticForEach := func(n, workers int) {
		var wg sync.WaitGroup
		chunk := (n + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo, hi := w*chunk, (w+1)*chunk
			if hi > n {
				hi = n
			}
			if lo >= hi {
				continue
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					work(i)
				}
			}(lo, hi)
		}
		wg.Wait()
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("cursor/workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := ForEachCtx(context.Background(), cells, workers, work); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("static/workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				staticForEach(cells, workers)
			}
		})
	}
}
