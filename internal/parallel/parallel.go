// Package parallel provides deterministic multi-core fan-out for the
// library's scan-shaped workloads: score N items across W workers, merge
// per-shard top-K heaps. Because each shard's heap is deterministic and
// the merge uses the same (score, ID) ordering as a serial scan, the
// result set is bit-identical to the sequential baseline no matter how
// the scheduler interleaves workers — parallelism changes wall-clock
// time only, never answers.
//
// The paper's archives are large enough that even the *indexed* paths
// shard well (per-region FSM runs, per-well SPROC evaluations), and the
// sequential-scan baselines the evaluation compares against benefit
// symmetrically, keeping the reported speedup ratios honest.
package parallel

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"modelir/internal/topk"
)

// Scorer grades item i. Returning keep=false skips the item (it does
// not enter the top-K); returning an error aborts the whole run.
type Scorer func(i int) (score float64, keep bool, err error)

// TopK scores items 0..n-1 with `workers` goroutines (0 = GOMAXPROCS)
// and returns the merged top-K, best first. IDs are the item indices.
func TopK(n, k, workers int, score Scorer) ([]topk.Item, error) {
	if n < 0 {
		return nil, errors.New("parallel: negative item count")
	}
	if score == nil {
		return nil, errors.New("parallel: nil scorer")
	}
	if k < 1 {
		return nil, errors.New("parallel: k must be >= 1")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		h, err := topk.NewHeap(k)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			s, keep, err := score(i)
			if err != nil {
				return nil, fmt.Errorf("parallel: item %d: %w", i, err)
			}
			if keep {
				h.OfferScore(int64(i), s)
			}
		}
		return h.Results(), nil
	}

	heaps := make([]*topk.Heap, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			heaps[w] = topk.MustHeap(k)
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			h := topk.MustHeap(k)
			for i := lo; i < hi; i++ {
				s, keep, err := score(i)
				if err != nil {
					errs[w] = fmt.Errorf("parallel: item %d: %w", i, err)
					return
				}
				if keep {
					h.OfferScore(int64(i), s)
				}
			}
			heaps[w] = h
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	merged := topk.MustHeap(k)
	for _, h := range heaps {
		if h != nil {
			topk.Merge(merged, h)
		}
	}
	return merged.Results(), nil
}

// ShardRunner produces one shard's partial top-K, appended to dst in
// any order (the merge heap orders the request's items once; a sorted
// partial is wasted work) and returned. dst is the shard's pooled
// partial slot, and the returned slice takes its place: both belong to
// the fan-out, which zeroes and reuses them once it has merged, so a
// runner must not retain either. The shared bound carries the highest
// full-heap threshold published by any shard; a runner should Raise it
// whenever its local heap fills and may prune any candidate whose upper
// bound falls strictly below Get().
type ShardRunner func(shard int, bound *topk.Bound, dst []topk.Item) ([]topk.Item, error)

// ShardTopK evaluates one runner per shard on a pool of `workers`
// goroutines (0 = GOMAXPROCS) and merges the partial top-Ks into the
// global top-K, best first. Shards exchange progressive-screening
// thresholds through a fresh atomic Bound, so a hot shard's results
// prune cold shards' scans mid-flight. Because pruning is strict
// (upper bound < floor), the merged result is exactly the top-K of the
// union no matter how the scheduler interleaves shards.
func ShardTopK(shards, k, workers int, run ShardRunner) ([]topk.Item, error) {
	return ShardTopKCtx(context.Background(), shards, k, workers, math.Inf(-1), run)
}

// ShardTopKCtx is ShardTopK with cooperative cancellation and a seeded
// screening floor. The context is checked between shard dispatches (and
// runners are expected to check it inside their scan loops); once
// ctx.Done() fires, no further shards start, in-flight runners abort at
// their next check, and the first context error is returned. `floor`
// pre-raises the shared bound — pass a minimum acceptable score to
// prune candidates that could never be returned, or -Inf for none.
func ShardTopKCtx(ctx context.Context, shards, k, workers int, floor float64, run ShardRunner) ([]topk.Item, error) {
	bound := topk.NewBound()
	bound.Raise(floor)
	return ShardTopKBoundCtx(ctx, shards, k, workers, bound, run)
}

// ShardTopKBoundCtx is ShardTopKCtx over a caller-supplied bound
// instead of a fresh one. The cluster layer uses it to splice one
// logical query's screening floor across processes: raises published by
// remote shards flow in through the shared bound, and local raises are
// observable to whoever else holds it. The caller owns seeding (a
// MinScore floor, a remote floor already in flight) and must not lower
// or reuse the bound across queries. Determinism is unaffected — the
// bound only ever tightens, and pruning against it stays strict.
func ShardTopKBoundCtx(ctx context.Context, shards, k, workers int, bound *topk.Bound, run ShardRunner) ([]topk.Item, error) {
	if shards < 0 {
		return nil, errors.New("parallel: negative shard count")
	}
	if run == nil {
		return nil, errors.New("parallel: nil shard runner")
	}
	if bound == nil {
		bound = topk.NewBound()
	}
	merged, err := topk.GetHeap(k)
	if err != nil {
		return nil, fmt.Errorf("parallel: %w", err)
	}
	defer topk.PutHeap(merged)
	if shards == 0 {
		return merged.Results(), nil
	}
	partialsP := getPartials(shards)
	defer putPartials(partialsP)
	partials := *partialsP
	err = ForEachCtx(ctx, shards, workers, func(s int) error {
		items, err := run(s, bound, partials[s])
		partials[s] = items
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, items := range partials {
		topk.MergeItems(merged, items)
	}
	// Publish the merged heap's threshold: the global K-th best over all
	// shards, which can be tighter than any single shard's raise. The
	// local scan is already done, but a caller-held bound may be feeding
	// a concurrent consumer (the cluster layer piggybacks it to peers).
	if t, ok := merged.Threshold(); ok {
		bound.Raise(t)
	}
	return merged.Results(), nil
}

// partialsPool recycles the per-shard partial-result table across
// requests, slots included: a slot keeps its backing array, so in steady
// state a shard runner appends its items without allocating. The table
// is owned by the fan-out that drew it, and slots are emptied and their
// items zeroed on return so a pooled table never pins a previous
// request's payloads.
var partialsPool sync.Pool

func getPartials(n int) *[][]topk.Item {
	if v, ok := partialsPool.Get().(*[][]topk.Item); ok && cap(*v) >= n {
		*v = (*v)[:n]
		return v
	}
	s := make([][]topk.Item, n)
	return &s
}

func putPartials(p *[][]topk.Item) {
	s := *p
	for i := range s {
		clear(s[i])
		s[i] = s[i][:0]
	}
	partialsPool.Put(p)
}

// ForEach runs fn over 0..n-1 with `workers` goroutines (0 = GOMAXPROCS)
// and returns the first error encountered. The failing worker stops
// and discards the chunks still queued to it; items another worker
// already stole or is running complete normally (work-stealing moves
// ownership, see steal.go).
func ForEach(n, workers int, fn func(i int) error) error {
	return ForEachCtx(context.Background(), n, workers, fn)
}

// ForEachCtx is ForEach with cooperative cancellation: the context is
// checked before every item, so a cancelled context stops each worker
// at its next item boundary. Context errors are returned unwrapped
// (ctx.Err() itself), so callers can compare with errors.Is without
// peeling the per-item annotation other failures carry.
//
// Scheduling is work-stealing (steal.go): items are partitioned into
// bounded per-worker chunk deques, and a worker that drains its own
// deque steals the oldest chunk from a sibling, so a skewed item (one
// slow shard, one heavy batch cell) no longer strands the rest of the
// pool. With one worker items run in ascending order, exactly as
// before; with many, only the item→worker assignment changes — results
// are scheduling-invariant by the package's determinism contract.
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
	if workers > n {
		workers = n
	}
	wrap := func(i int, err error) error {
		if ctxErr := ctx.Err(); ctxErr != nil && errors.Is(err, ctxErr) {
			return ctxErr
		}
		return fmt.Errorf("parallel: item %d: %w", i, err)
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return wrap(i, err)
			}
		}
		return nil
	}
	errs := forEachSteal(ctx.Err, n, workers, fn, wrap)
	// Prefer reporting the context error when cancellation is the cause:
	// several workers may fail at once, and the ctx error is the one the
	// caller acted on.
	if ctxErr := ctx.Err(); ctxErr != nil {
		for _, err := range errs {
			if err != nil && errors.Is(err, ctxErr) {
				return ctxErr
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
