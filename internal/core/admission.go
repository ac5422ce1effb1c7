// Admission control: a weighted semaphore bounding the goroutines that
// drain queues across all concurrent requests. A request waits for the
// one unit its caller's goroutine runs on, and a batch takes what the
// budget can spare up to its pool width. Callers block only when the
// budget is fully committed. Admission changes when a request runs,
// never what it returns (DESIGN.md §2).

package core

import (
	"context"
	"runtime"
)

// DefaultMaxWorkers is the admission budget used when Options.MaxWorkers
// is zero: four units per core, enough that no core idles while
// admitted requests wait on the scheduler, few enough that a burst
// queues at admission instead of stacking runnable goroutines.
func DefaultMaxWorkers() int { return 4 * runtime.GOMAXPROCS(0) }

// admit reserves up to want units from the engine's admission budget,
// waiting for at least one, and returns how many it granted and a
// release func. With admission disabled it grants the full want.
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
