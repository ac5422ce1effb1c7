// Remote-execution hooks: the pieces the cluster layer needs to run one
// logical query's partition on this process while exchanging screening
// floors with partitions running elsewhere. The engine keeps its whole
// execution pipeline (cache, admission, unit queue, budget) — the
// only new surface is a SharedBound that splices external floor raises
// into the query's internal topk.Bound and exposes local raises for
// publication.

package core

import (
	"context"
	"math"
	"sync"

	"modelir/internal/topk"
)

// SharedBound carries one in-flight query's screening floor across a
// process boundary, in the caller-visible result scale. Remote floors
// arrive via Raise; the local floor is read via Floor. Internally the
// engine screens some families on a shifted scale (the linear family
// scores pre-intercept), so the bound attaches to the query plan's
// topk.Bound together with the plan's shift and translates both ways:
// inbound floors go down to the least internal score that can still
// reach them (screenFloor), outbound ones up by adding the shift, so
// neither direction prunes a row whose shifted score ties the floor.
//
// Raises that arrive before the plan is compiled are buffered and
// applied at attach time, so an early remote floor is never dropped.
// Like topk.Bound, a SharedBound only ever tightens and must not be
// reused across queries.
type SharedBound struct {
	mu      sync.Mutex
	b       *topk.Bound
	shift   float64
	pending float64 // result-scale floor buffered before attach
	raises  int     // external raises observed (see seed)
}

// NewSharedBound returns a bound starting at negative infinity.
func NewSharedBound() *SharedBound {
	return &SharedBound{pending: math.Inf(-1)}
}

// Raise lifts the floor to v (result scale) if v is higher. Safe to
// call concurrently with query execution.
func (s *SharedBound) Raise(v float64) {
	if s == nil || math.IsNaN(v) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !math.IsInf(v, -1) {
		s.raises++
	}
	if v > s.pending {
		s.pending = v
	}
	if s.b != nil {
		s.b.Raise(screenFloor(v, s.shift))
	}
}

// seed reports the external floor a run starts under and how many
// external raises the bound has seen so far. A run pruned by a foreign
// floor may omit items of the *local* top-K that are hopeless in the
// foreign query's global merge, so it is never cached as the request's
// answer: an identical request outside that scatter deserves the full
// local answer. But the unit queue drains on one goroutine, so a run
// whose every foreign floor arrived before it started is a function of
// the request, the data and that floor alone, and is cached under the
// request and the floor together. A raise that arrives while the run
// drains (raises > the count seed returned) makes it uncacheable.
// Raises strictly precede (happens-before, via the mutex) any pruning
// they cause, so an unchanged count after the run proves no raise
// arrived mid-flight.
func (s *SharedBound) seed() (floor float64, raises int) {
	if s == nil {
		return math.Inf(-1), 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pending, s.raises
}

// Floor returns the current floor in the result scale: the tightest of
// every remote raise and whatever the local execution has published.
func (s *SharedBound) Floor() float64 {
	if s == nil {
		return math.Inf(-1)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.b == nil {
		return s.pending
	}
	f := s.b.Get() + s.shift
	if s.pending > f {
		f = s.pending
	}
	return f
}

// attach splices the query plan's bound in, applying any raise that
// arrived before planning finished.
func (s *SharedBound) attach(b *topk.Bound, shift float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.b, s.shift = b, shift
	if !math.IsInf(s.pending, -1) {
		b.Raise(screenFloor(s.pending, shift))
	}
}

// detach freezes the bound at its final floor when the query ends, so a
// floor publisher that outlives the run by a beat reads a stable value
// instead of racing a recycled heap.
func (s *SharedBound) detach() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.b != nil {
		f := s.b.Get() + s.shift
		if f > s.pending {
			s.pending = f
		}
		s.b = nil
	}
}

// RunShared executes one request exactly like Run, with the query's
// screening floor spliced through sb: raises delivered to sb (from
// partitions of the same logical query running on other nodes) prune
// this run's scans mid-flight, and sb.Floor() exposes this run's floor
// for piggybacking onto partial-result streams. sb may be nil, making
// RunShared identical to Run.
//
// Determinism: pruning against the bound is strict (upper bound < floor
// is pruned, ties are kept), so a remote floor — which proves K items
// at or above it exist somewhere in the same logical query — can only
// remove items that cannot appear in the merged global top-K. Results
// for the *local partition* may therefore omit globally hopeless items,
// which is exactly the contract scatter-gather needs. Such results are
// never written to the cache as the request's answer (see seed): a run
// seeded before it starts is stored under the request and its seed
// floor, and served only to a run with the same seed; one raised
// mid-flight is not stored. Cache *hits* on the request alone are
// still served, since a cached full local top-K is a superset whose
// extra items simply lose the global merge.
func (e *Engine) RunShared(ctx context.Context, req Request, sb *SharedBound) (Result, error) {
	return e.runReq(ctx, req, sb)
}
