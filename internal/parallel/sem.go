package parallel

import (
	"context"
	"errors"
	"sync"
)

// Weighted is the serving layer's admission semaphore: a fixed budget
// of units shared by every in-flight request, one unit per goroutine
// that drains a queue. A request waits for the unit its caller's
// goroutine runs on, and a batch takes as many units as are free, at
// least one and at most its pool width (AcquireUpTo). Waiters are woken
// FIFO so a steady stream of small requests cannot starve an early
// large one.
type Weighted struct {
	mu      sync.Mutex
	avail   int
	waiters []chan struct{}
}

// NewWeighted returns a semaphore holding `capacity` units.
func NewWeighted(capacity int) (*Weighted, error) {
	if capacity < 1 {
		return nil, errors.New("parallel: semaphore capacity must be >= 1")
	}
	return &Weighted{avail: capacity}, nil
}

// AcquireUpTo blocks until at least one unit is free (or ctx ends),
// then takes min(want, free) units and returns how many it took. A
// want below 1 is treated as 1. The caller must Release exactly the
// returned count.
//
// Fairness: a newcomer never barges past queued waiters (the fast path
// requires an empty queue), and a woken waiter that loses its units to
// scheduling re-queues at the FRONT, so its turn is never lost.
func (w *Weighted) AcquireUpTo(ctx context.Context, want int) (int, error) {
	if want < 1 {
		want = 1
	}
	woken := false
	for {
		w.mu.Lock()
		if w.avail > 0 && (woken || len(w.waiters) == 0) {
			got := min(want, w.avail)
			w.avail -= got
			// A multi-unit Release wakes only the head waiter; if units
			// remain after this grab, chain the wakeup onward.
			w.wakeLocked()
			w.mu.Unlock()
			return got, nil
		}
		ch := make(chan struct{})
		if woken {
			// Keep our turn: rejoin at the head, not behind arrivals
			// that queued while we were being scheduled.
			w.waiters = append([]chan struct{}{ch}, w.waiters...)
		} else {
			w.waiters = append(w.waiters, ch)
		}
		w.mu.Unlock()
		select {
		case <-ch:
			woken = true
		case <-ctx.Done():
			w.mu.Lock()
			removed := false
			for i, c := range w.waiters {
				if c == ch {
					w.waiters = append(w.waiters[:i], w.waiters[i+1:]...)
					removed = true
					break
				}
			}
			if !removed {
				// Our wakeup already fired; pass the baton so the
				// signal is not lost on an abandoned waiter.
				w.wakeLocked()
			}
			w.mu.Unlock()
			return 0, ctx.Err()
		}
	}
}

// Release returns n units to the budget and wakes waiters.
func (w *Weighted) Release(n int) {
	if n <= 0 {
		return
	}
	w.mu.Lock()
	w.avail += n
	w.wakeLocked()
	w.mu.Unlock()
}

// wakeLocked signals the head waiter when units are free. Exactly one
// waiter is woken per call: the woken waiter re-checks availability
// itself, and if units remain after its grab, its release (or ours)
// wakes the next.
func (w *Weighted) wakeLocked() {
	if w.avail > 0 && len(w.waiters) > 0 {
		close(w.waiters[0])
		w.waiters = w.waiters[1:]
	}
}
