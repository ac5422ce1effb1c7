// Appender: the batching front end for live ingest. Concurrent small
// appends to the same dataset coalesce into ONE delta segment per
// flush window — without batching, a thousand single-row appends make
// a thousand delta segments (and a thousand generation bumps that each
// invalidate the dataset's cached results); with it, they make a
// handful. Flush windows close on size (MaxRows pending) or time
// (MaxWait after the first pending row), whichever comes first, and
// every caller observes its own rows' outcome through a per-caller
// error channel: Append* returns only after the flush containing its
// rows has been applied to the engine (or ctx gave up waiting).

package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"modelir/internal/synth"
)

// Appender defaults.
const (
	// DefaultAppenderMaxRows is the size flush threshold.
	DefaultAppenderMaxRows = 256
	// DefaultAppenderMaxWait is the time flush threshold, measured
	// from the first row entering an empty buffer.
	DefaultAppenderMaxWait = 2 * time.Millisecond
)

// ErrAppenderClosed reports an append after Close.
var ErrAppenderClosed = errors.New("core: appender closed")

// AppenderOptions tunes flush windows.
type AppenderOptions struct {
	// MaxRows flushes a dataset's pending buffer as soon as it holds
	// this many rows; 0 means DefaultAppenderMaxRows.
	MaxRows int
	// MaxWait flushes a non-empty pending buffer this long after its
	// first row arrived; 0 means DefaultAppenderMaxWait.
	MaxWait time.Duration
}

// Appender coalesces concurrent appends into per-dataset delta
// segments. Safe for concurrent use; one Appender per engine is the
// intended shape (modelird owns one for its /append endpoint).
type Appender struct {
	e   *Engine
	opt AppenderOptions

	mu     sync.Mutex
	closed bool
	pend   map[dsName]*pendingAppend
}

// pendingAppend is one dataset's open flush window: the rows
// accumulated so far plus the waiters to notify with the flush's
// outcome. Exactly one of the row slices is in use (keyed by kind).
type pendingAppend struct {
	timer   *time.Timer
	tuples  [][]float64
	series  []synth.RegionSeries
	wells   []synth.WellLog
	rows    int
	waiters []chan error
}

// NewAppender returns a batching appender over e.
func NewAppender(e *Engine, opt AppenderOptions) *Appender {
	if opt.MaxRows <= 0 {
		opt.MaxRows = DefaultAppenderMaxRows
	}
	if opt.MaxWait <= 0 {
		opt.MaxWait = DefaultAppenderMaxWait
	}
	return &Appender{e: e, opt: opt, pend: make(map[dsName]*pendingAppend)}
}

// AppendTuples enqueues rows for dataset name and blocks until the
// flush containing them has been applied (returning that flush's
// outcome) or ctx is done (the rows still flush; the caller just
// stops waiting).
func (a *Appender) AppendTuples(ctx context.Context, name string, rows [][]float64) error {
	if len(rows) == 0 {
		return errors.New("core: empty tuple append")
	}
	return a.enqueue(ctx, dsName{dsTuples, name}, len(rows), func(p *pendingAppend) {
		p.tuples = append(p.tuples, rows...)
	})
}

// AppendSeries enqueues regions for dataset name; see AppendTuples for
// the waiting contract.
func (a *Appender) AppendSeries(ctx context.Context, name string, rs []synth.RegionSeries) error {
	if len(rs) == 0 {
		return errors.New("core: empty series append")
	}
	return a.enqueue(ctx, dsName{dsSeries, name}, len(rs), func(p *pendingAppend) {
		p.series = append(p.series, rs...)
	})
}

// AppendWells enqueues wells for dataset name; see AppendTuples for
// the waiting contract.
func (a *Appender) AppendWells(ctx context.Context, name string, ws []synth.WellLog) error {
	if len(ws) == 0 {
		return errors.New("core: empty well append")
	}
	return a.enqueue(ctx, dsName{dsWells, name}, len(ws), func(p *pendingAppend) {
		p.wells = append(p.wells, ws...)
	})
}

func (a *Appender) enqueue(ctx context.Context, key dsName, n int, add func(*pendingAppend)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return ErrAppenderClosed
	}
	p := a.pend[key]
	if p == nil {
		p = &pendingAppend{}
		a.pend[key] = p
		// First rows into an empty buffer arm the time window.
		p.timer = time.AfterFunc(a.opt.MaxWait, func() { a.flushKey(key) })
	}
	add(p)
	p.rows += n
	ch := make(chan error, 1)
	p.waiters = append(p.waiters, ch)
	full := p.rows >= a.opt.MaxRows
	a.mu.Unlock()
	if full {
		a.flushKey(key)
	}
	select {
	case err := <-ch:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// flushKey closes key's window (if still open — the size path and the
// timer can race; the loser finds nothing) and applies its rows as one
// engine append, broadcasting the outcome to every waiter. The append
// builds and indexes the delta before publishing it (ingest.go), on
// this goroutine, so waiters return to a dataset no read has to index.
func (a *Appender) flushKey(key dsName) {
	a.mu.Lock()
	p := a.pend[key]
	delete(a.pend, key)
	a.mu.Unlock()
	if p == nil {
		return
	}
	p.timer.Stop()
	var err error
	switch key.kind {
	case dsTuples:
		err = a.e.AppendTuples(key.name, p.tuples)
	case dsSeries:
		err = a.e.AppendSeries(key.name, p.series)
	case dsWells:
		err = a.e.AppendWells(key.name, p.wells)
	default:
		err = fmt.Errorf("core: appender: unappendable dataset kind %d", key.kind)
	}
	for _, ch := range p.waiters {
		ch <- err // buffered; never blocks
	}
}

// Flush applies every open window now, regardless of thresholds.
func (a *Appender) Flush() {
	a.mu.Lock()
	keys := make([]dsName, 0, len(a.pend))
	for key := range a.pend {
		keys = append(keys, key)
	}
	a.mu.Unlock()
	for _, key := range keys {
		a.flushKey(key)
	}
}

// Close flushes everything pending and rejects further appends.
// Idempotent.
func (a *Appender) Close() {
	a.mu.Lock()
	a.closed = true
	a.mu.Unlock()
	a.Flush()
}
