package topk

import (
	"math"
	"sync/atomic"
)

// Bound is a monotonically increasing score floor shared by concurrent
// workers assembling one logical top-K result from disjoint partitions.
// Any worker whose local K-capacity heap fills publishes its heap
// threshold: the existence of K items scoring >= t anywhere proves the
// global K-th best is >= t, so every other worker may prune candidates
// whose upper bound is *strictly* below the floor. Strictness matters —
// a candidate tied with the floor can still win the deterministic
// (score, ID) tie-break — and keeps sharded results bit-identical to a
// serial scan no matter how raises interleave.
//
// The zero value is not usable; construct with NewBound. A nil *Bound
// is a valid "no sharing" bound: Get reports -Inf and Raise is a no-op.
type Bound struct {
	bits atomic.Uint64
}

// NewBound returns a bound starting at negative infinity.
func NewBound() *Bound {
	b := &Bound{}
	b.bits.Store(math.Float64bits(math.Inf(-1)))
	return b
}

// Get returns the current floor.
func (b *Bound) Get() float64 {
	if b == nil {
		return math.Inf(-1)
	}
	return math.Float64frombits(b.bits.Load())
}

// Raise lifts the floor to v if v is higher. Lower or NaN values are
// ignored, so the floor only tightens.
func (b *Bound) Raise(v float64) {
	if b == nil || math.IsNaN(v) {
		return
	}
	for {
		old := b.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if b.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Floor is the screening floor of a scan filling h under a shared bound
// currently at shared (a Bound.Get reading, -Inf when unshared): h's
// threshold once h is full, raised to shared when that is higher. It is
// the one rule every scan gates on — blocks, layers, cells and single
// candidates alike: whatever scores strictly below it cannot enter the
// merged top-K, so it never reaches a heap, while a candidate tied with
// it can still win the smaller-ID tie-break and is kept.
func Floor(h *Heap, shared float64) float64 {
	if len(h.scores) == h.k && h.scores[0] > shared {
		return h.scores[0]
	}
	return shared
}
