// Admission control: a weighted semaphore bounding the total workers in
// flight across all concurrent requests. A request waits for the one
// unit its caller's goroutine runs on; helpers join it only on units
// free right now (parallel.TopK), and a batch takes what the budget can
// spare up to its pool width. Without it, N concurrent callers each
// adding helpers oversubscribe the scheduler; with it, contended
// requests run alone instead of stacking goroutines, and callers block
// only when the budget is fully committed. Clamping a request's workers
// is always result-safe: every query path returns identical items and
// scores for any worker count (DESIGN.md §2).

package core

import (
	"context"
	"runtime"
)

// DefaultMaxWorkers is the admission budget used when Options.MaxWorkers
// is zero: enough oversubscription to keep cores busy through the
// blocking-free scan loops, small enough that heavy concurrent traffic
// degrades width instead of exploding goroutine counts.
func DefaultMaxWorkers() int { return 4 * runtime.GOMAXPROCS(0) }

// effectiveWorkers resolves the widest a request may run: the requested
// count (0 = GOMAXPROCS) clamped to the plan's segment count. Units are
// finer than segments, but the cap keeps a one-segment dataset (an
// engine built with Shards 1) on one goroutine, with work counters as
// deterministic as the Workers 1 ones.
func effectiveWorkers(requested, shards int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if shards >= 1 && w > shards {
		w = shards
	}
	if w < 1 {
		w = 1
	}
	return w
}

// admit reserves up to want workers from the engine's admission budget,
// waiting for at least one, and returns the (possibly clamped) width to
// run at and a release func. With admission disabled it grants the full
// want.
func (e *Engine) admit(ctx context.Context, want int) (int, func(), error) {
	if e.adm == nil {
		return want, func() {}, nil
	}
	got, err := e.adm.AcquireUpTo(ctx, want)
	if err != nil {
		return 0, nil, err
	}
	return got, func() { e.adm.Release(got) }, nil
}
