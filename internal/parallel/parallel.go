// Package parallel runs a request's work as one queue of units, each
// with an upper bound on what it can score (Queue). TopK drains the
// queue best-first on the caller's goroutine, and helpers join only
// requests that run longer than BreakEven. Pruning is strict (a bound
// tied with the floor still runs), so the result is the exact top-K
// whatever the schedule: helpers change wall-clock time and work
// counters, never answers. ForEachCtx runs independent items from one
// atomic cursor (BatchTopK runs a batch's requests as its units), and
// Weighted is the admission semaphore both draw their width from.
package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"modelir/internal/topk"
)

// BreakEven is how long a request runs on its caller's goroutine alone
// before a helper may join it. A helper costs a goroutine wake-up, a
// pooled heap and a merge, and pays only if enough work is left when it
// starts; on a VM a wake-up alone can take tens of microseconds. A
// best-first linear read has little left by then, since its floor rises
// with the first blocks; a scan-shaped plan has as much left as it has
// candidates. Measured with BenchmarkHelperBreakEven (root
// bench_test.go, 2 shards) on a 2-vCPU x86-64 VM at -cpu 2, us/op,
// median of three runs of 2000 requests, Workers 1 -> Workers 2:
//
//	                  join at 100 us   join at 250 us
//	fsm 256 regions    356 -> 314       348 -> 352
//	fsm 1024 regions  1567 -> 920      1560 -> 1035
//	linear 15k rows     88 -> 94        110 -> 111
//	linear 60k rows    145 -> 169       165 -> 157
//	linear 120k rows   214 -> 248       172 -> 191
//
// Joining at 100 us made linear reads of 60k-120k rows 16-17 % slower
// (the daemon's `tuples8` is 60k rows); joining at 250 us keeps them
// within noise and still takes a third off long scans. At -cpu 1
// Workers 2 never gets a helper (see TopK).
const BreakEven = 250 * time.Microsecond

// Queue is one request's work, drained concurrently by workers numbered
// from 0 (the caller's goroutine). Implementations keep per-worker
// accounting in slots indexed by w.
type Queue interface {
	// Pop takes worker w's next unit. floor is w's screening floor,
	// topk.Floor of its heap under the shared bound. Pop reports false
	// once the queue is empty, once the request's budget is spent, or
	// when the best unit's bound is strictly below floor: no unit left
	// can enter the merged top-K, so the queue drops them all.
	Pop(w int, floor float64) (unit int, ok bool)
	// Run scores unit into worker w's heap h. sb is the shared bound; a
	// unit that can screen its own candidates reads
	// topk.Floor(h, sb.Get()).
	Run(w, unit int, h *topk.Heap, sb *topk.Bound) error
}

// TopK drains q into the top k items, best first. The caller's goroutine
// pops units into one heap, publishing its threshold to bound after each
// unit, and stops when Pop reports false. Once the request has run
// longer than BreakEven, up to min(workers, GOMAXPROCS)-1 helpers join,
// one per unit of adm (nil = unbounded) that can be taken without
// waiting; Workers 1 never gets a helper. The context is checked before
// every unit, and a cancelled context returns ctx.Err() bare. bound may
// be nil; a caller that holds it (a MinScore floor, a floor spliced in
// from other processes) must not reuse it across requests.
func TopK(ctx context.Context, q Queue, k, workers int, bound *topk.Bound, adm *Weighted) ([]topk.Item, error) {
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
	d := drainPool.Get().(*drain)
	defer d.release()
	d.ctx, d.done, d.q, d.k, d.bound, d.adm = ctx, ctx.Done(), q, k, bound, adm
	// A helper on a runtime with one P would only take turns with the
	// caller.
	if workers = min(workers, runtime.GOMAXPROCS(0)); workers > 1 {
		d.spare = workers - 1
		d.start = time.Now()
	}
	errs := []error{d.loop(0, h)}
	for _, hp := range d.helpers {
		if hp.claimed.CompareAndSwap(false, true) {
			// Scheduled too late to pop anything: the caller emptied
			// the queue first. Its unit and heap go back unused.
			if adm != nil {
				adm.Release(1)
			}
			continue
		}
		<-hp.done
		topk.Merge(h, hp.h)
		errs = append(errs, hp.err)
	}
	if err := firstErr(ctx, errs); err != nil {
		return nil, err
	}
	// Publish the merged threshold: it can be tighter than any one
	// worker's, and a caller-held bound may feed a concurrent consumer
	// (the cluster layer piggybacks it to peers).
	if t, ok := h.Threshold(); ok {
		bound.Raise(t)
	}
	return h.Results(), nil
}

// drain is one TopK call's shared state, pooled so a request that no
// helper joins allocates nothing for it.
type drain struct {
	ctx     context.Context
	done    <-chan struct{}
	q       Queue
	k       int
	bound   *topk.Bound
	adm     *Weighted
	start   time.Time
	spare   int       // helpers that may still join
	helpers []*helper // helper w is helpers[w-1]
	stop    atomic.Bool
}

// helper is one helper's hand-off with the caller. The helper claims
// it to run; the caller, once it has emptied the queue, claims it to
// cancel. A helper the scheduler starts too late finds it claimed and
// returns without touching the drain, so the caller never waits out a
// goroutine wake-up for nothing.
type helper struct {
	claimed atomic.Bool
	h       *topk.Heap
	err     error
	done    chan struct{} // closed when a helper that ran has finished
}

var drainPool = sync.Pool{New: func() any { return new(drain) }}

func (d *drain) release() {
	for _, hp := range d.helpers {
		topk.PutHeap(hp.h)
	}
	clear(d.helpers)
	d.helpers = d.helpers[:0]
	d.ctx, d.done, d.q, d.bound, d.adm = nil, nil, nil, nil, nil
	d.spare = 0
	d.stop.Store(false)
	drainPool.Put(d)
}

// loop is one worker's drain: pop, run, publish, until the queue says
// stop, a worker fails or the context ends. The caller's goroutine
// (w == 0) also recruits helpers between units; only it touches spare
// and helpers while helpers run.
func (d *drain) loop(w int, h *topk.Heap) error {
	for !d.stop.Load() {
		if d.done != nil {
			select {
			case <-d.done:
				d.stop.Store(true)
				return d.ctx.Err()
			default:
			}
		}
		unit, ok := d.q.Pop(w, topk.Floor(h, d.bound.Get()))
		if !ok {
			break
		}
		if err := d.q.Run(w, unit, h, d.bound); err != nil {
			d.stop.Store(true)
			return err
		}
		if t, ok := h.Threshold(); ok {
			d.bound.Raise(t)
		}
		if w == 0 && d.spare > 0 && time.Since(d.start) > BreakEven {
			d.recruit()
		}
	}
	// A context cancelled after the last unit still never yields a
	// normal result.
	return d.ctx.Err()
}

// recruit starts the helpers admission can spare right now. A refused
// unit ends recruiting for the request: the budget is contended, and
// asking again per unit would only add lock traffic to the contention.
func (d *drain) recruit() {
	for ; d.spare > 0; d.spare-- {
		if d.adm != nil && !d.adm.TryAcquire() {
			d.spare = 0
			return
		}
		hp := &helper{h: topk.MustGetHeap(d.k), done: make(chan struct{})}
		d.helpers = append(d.helpers, hp)
		go d.help(len(d.helpers), hp)
	}
}

func (d *drain) help(w int, hp *helper) {
	if !hp.claimed.CompareAndSwap(false, true) {
		return // cancelled: d may already serve another request
	}
	hp.err = d.loop(w, hp.h)
	if d.adm != nil {
		d.adm.Release(1)
	}
	close(hp.done)
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
