// Appender: group commit for live ingest. A caller whose dataset has
// no flush running applies its rows at once, on its own goroutine;
// callers that arrive during a flush queue behind it, and when it ends
// the first of them applies the whole queue as one engine append (one
// delta segment, one generation bump). A batch is what arrived during
// the flush before it: no timer, nothing to tune, and no caller waits
// longer than the running flush plus its own batch. Without coalescing,
// a thousand concurrent single-row appends would make a thousand delta
// segments and a thousand cache invalidations.

package core

import (
	"context"
	"errors"
	"slices"
	"sync"

	"modelir/internal/synth"
)

// ErrAppenderClosed reports an append after Close.
var ErrAppenderClosed = errors.New("core: appender closed")

// AppenderOptions configures an Appender. It has no fields: each batch
// is what arrived during the flush before it, so there is nothing to
// tune.
type AppenderOptions struct{}

// Appender coalesces concurrent appends to one dataset by group
// commit. Safe for concurrent use; one Appender per engine is the
// intended shape (modelird owns one for its /append endpoint).
type Appender struct {
	mu     sync.Mutex
	closed bool
	tuples lane[[]float64]
	series lane[synth.RegionSeries]
	wells  lane[synth.WellLog]
}

// lane is the group commit state of one row kind, guarded by
// Appender.mu.
type lane[R any] struct {
	apply func(name string, rows []R) error
	// queued has an entry for each dataset with a flush running: the
	// callers waiting behind that flush, in arrival order.
	queued map[string][]*waiter[R]
}

// waiter is one caller's rows in a batch. The channels, nil for a
// caller that leads at once, are how a hand-off answers a queued one.
type waiter[R any] struct {
	rows []R
	lead chan []*waiter[R] // the batch this caller is to apply
	done chan error        // the outcome of the batch holding its rows
}

// NewAppender returns a group-commit appender over e.
func NewAppender(e *Engine, _ AppenderOptions) *Appender {
	return &Appender{
		tuples: newLane(e.AppendTuples),
		series: newLane(e.AppendSeries),
		wells:  newLane(e.AppendWells),
	}
}

func newLane[R any](apply func(string, []R) error) lane[R] {
	return lane[R]{apply: apply, queued: make(map[string][]*waiter[R])}
}

// AppendTuples appends rows to tuple dataset name and returns once
// they are queryable. An error means none of them landed: the engine
// refused them, the Appender is closed, or ctx ended while they were
// still queued (ctx.Err()).
func (a *Appender) AppendTuples(ctx context.Context, name string, rows [][]float64) error {
	return commit(ctx, a, &a.tuples, name, rows)
}

// AppendSeries appends regions to series dataset name; see AppendTuples
// for the waiting contract.
func (a *Appender) AppendSeries(ctx context.Context, name string, rs []synth.RegionSeries) error {
	return commit(ctx, a, &a.series, name, rs)
}

// AppendWells appends wells to well-log dataset name; see AppendTuples
// for the waiting contract.
func (a *Appender) AppendWells(ctx context.Context, name string, ws []synth.WellLog) error {
	return commit(ctx, a, &a.wells, name, ws)
}

// commit is one caller's side of group commit: lead a batch of its own
// rows at once, or queue behind the running flush until a hand-off
// makes it lead the queue or reports the outcome of the batch that
// carried its rows.
func commit[R any](ctx context.Context, a *Appender, l *lane[R], name string, rows []R) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(rows) == 0 {
		return errors.New("core: empty append")
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return ErrAppenderClosed
	}
	q, running := l.queued[name]
	if !running {
		l.queued[name] = nil
		a.mu.Unlock()
		return lead(a, l, name, []*waiter[R]{{rows: rows}})
	}
	w := &waiter[R]{rows: rows, lead: make(chan []*waiter[R], 1), done: make(chan error, 1)}
	l.queued[name] = append(q, w)
	a.mu.Unlock()
	cancelled := ctx.Done()
	for {
		select {
		case b := <-w.lead:
			return lead(a, l, name, b)
		case err := <-w.done:
			return err
		case <-cancelled:
			a.mu.Lock()
			q := l.queued[name]
			i := slices.Index(q, w)
			if i >= 0 {
				l.queued[name] = slices.Delete(q, i, i+1)
			}
			a.mu.Unlock()
			if i >= 0 {
				return ctx.Err()
			}
			// A hand-off already took the rows into a batch: wait out
			// that one build.
			cancelled = nil
		}
	}
}

// lead applies batch b as one engine append, tells every other caller
// in it the outcome, and hands the dataset on. A refused batch of
// several callers is applied again caller by caller, in arrival order,
// so each gets the outcome of its own rows.
func lead[R any](a *Appender, l *lane[R], name string, b []*waiter[R]) error {
	rows := b[0].rows
	if len(b) > 1 {
		rows = nil
		for _, w := range b {
			rows = append(rows, w.rows...)
		}
	}
	err := l.apply(name, rows)
	if err != nil && len(b) > 1 {
		err = l.apply(name, b[0].rows)
		for _, w := range b[1:] {
			w.done <- l.apply(name, w.rows)
		}
	} else {
		for _, w := range b[1:] {
			w.done <- err
		}
	}
	handOff(a, l, name)
	return err
}

// handOff ends name's running flush: the callers queued behind it
// become the next batch, led by the first of them, or, with none
// queued, name has no flush running.
func handOff[R any](a *Appender, l *lane[R], name string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b := l.queued[name]
	if len(b) == 0 {
		delete(l.queued, name)
		return
	}
	l.queued[name] = nil
	b[0].lead <- b // buffered, and sent once: never blocks
}

// Close rejects appends that arrive after it. Appends already accepted
// still finish on their callers' goroutines. Idempotent.
func (a *Appender) Close() {
	a.mu.Lock()
	a.closed = true
	a.mu.Unlock()
}
