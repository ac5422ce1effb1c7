// Package parallel runs a request's work as one queue of units, each
// with an upper bound on what it can score (Queue). TopK drains the
// queue best-first on the caller's goroutine, alone. Pruning is strict
// (a bound tied with the floor still runs), so the result is the exact
// top-K. ForEachCtx runs independent items from one atomic cursor
// (BatchTopK runs a batch's requests as its units), and Weighted is the
// admission semaphore that bounds how many run at once.
package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"modelir/internal/topk"
)

// Queue is one request's work, drained by one goroutine.
type Queue interface {
	// Pop takes the next unit. floor is the drainer's screening floor,
	// topk.Floor of its heap under the shared bound. Pop reports false
	// once the queue is empty, once the request's budget is spent, or
	// when the best unit's bound is strictly below floor: no unit left
	// can enter the top-K, so the queue drops them all.
	Pop(floor float64) (unit int, ok bool)
	// Run scores unit into h. sb is the shared bound; a unit that can
	// screen its own candidates reads topk.Floor(h, sb.Get()).
	Run(unit int, h *topk.Heap, sb *topk.Bound) error
}

// TopK drains q into the top k items, best first: it pops units into
// one heap on the caller's goroutine, publishing the heap's threshold
// to bound after each unit, and stops when Pop reports false. The
// context is checked before every unit, and a cancelled context returns
// ctx.Err() bare. bound may be nil; a caller that holds it (a MinScore
// floor, a floor spliced in from other processes) must not reuse it
// across requests.
func TopK(ctx context.Context, q Queue, k int, bound *topk.Bound) ([]topk.Item, error) {
	if q == nil {
		return nil, errors.New("parallel: nil queue")
	}
	h, err := topk.GetHeap(k)
	if err != nil {
		return nil, fmt.Errorf("parallel: %w", err)
	}
	defer topk.PutHeap(h)
	if bound == nil {
		bound = topk.NewBound()
	}
	done := ctx.Done()
	for {
		if done != nil {
			select {
			case <-done:
				return nil, ctx.Err()
			default:
			}
		}
		unit, ok := q.Pop(topk.Floor(h, bound.Get()))
		if !ok {
			break
		}
		if err := q.Run(unit, h, bound); err != nil {
			return nil, firstErr(ctx, []error{err})
		}
		if t, ok := h.Threshold(); ok {
			bound.Raise(t)
		}
	}
	// A context cancelled after the last unit still never yields a
	// normal result.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return h.Results(), nil
}

// firstErr picks the error to report of errs: the context's, bare, when
// cancellation caused any failure (it is the one the caller acted on),
// else the first.
func firstErr(ctx context.Context, errs []error) error {
	if ce := ctx.Err(); ce != nil {
		for _, err := range errs {
			if errors.Is(err, ce) {
				return ce
			}
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ForEachCtx runs fn over 0..n-1 with `workers` goroutines (0 =
// GOMAXPROCS) taking items from one atomic cursor, so a slow item holds
// up only its own worker; with one worker items run in ascending order.
// The context is checked before every item. The first failure stops
// every worker at its next item and is returned annotated with its
// item; a context error is returned bare.
func ForEachCtx(ctx context.Context, n, workers int, fn func(i int) error) error {
	if n < 0 {
		return errors.New("parallel: negative item count")
	}
	if fn == nil {
		return errors.New("parallel: nil function")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return firstErr(ctx, forEachCursor(ctx, n, min(workers, n), fn))
}

// forEachCursor is ForEachCtx's pool: `workers` goroutines (the caller's
// alone when workers <= 1) take items from one atomic cursor. It returns
// each worker's error.
func forEachCursor(ctx context.Context, n, workers int, fn func(i int) error) []error {
	var next atomic.Int64
	errs := make([]error, max(workers, 1))
	work := func(w int) {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			if err := ctx.Err(); err != nil {
				errs[w] = err
				return
			}
			if err := fn(i); err != nil {
				errs[w] = fmt.Errorf("parallel: item %d: %w", i, err)
				next.Store(int64(n))
				return
			}
		}
	}
	if workers <= 1 {
		work(0)
		return errs
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			work(w)
		}(w)
	}
	wg.Wait()
	return errs
}
