// Package topk provides bounded top-K selection machinery used by every
// retrieval path in the library: a fixed-capacity min-heap that keeps the K
// largest-scoring items seen so far, stable ordering helpers, and utilities
// for merging partial result sets produced by progressive execution levels.
//
// The paper frames every model-based query as a top-K retrieval ("the top-K
// choices based on the ranking evaluated by the model is usually desired",
// Section 3), so this package is the common result plane for the linear,
// finite-state and knowledge model engines.
package topk

import "errors"

// Item is a scored retrieval candidate. ID identifies the underlying datum
// (tuple index, tile coordinate hash, region id...); Payload optionally
// carries a caller-defined value through the selection.
type Item struct {
	ID      int64
	Score   float64
	Payload any
}

// ErrBadCapacity is returned by NewHeap when k < 1.
var ErrBadCapacity = errors.New("topk: capacity must be >= 1")

// Heap is a bounded min-heap over Item scores. It retains the K items with
// the largest scores among all offered items. Ties on score are broken by
// smaller ID winning, which makes retrieval results deterministic across
// runs and platforms. Storage grows with the items actually retained, so
// a K far above the candidate count (a request asking for "everything")
// costs only the candidates.
//
// The zero value is not usable; construct with NewHeap.
type Heap struct {
	k     int
	items []Item
}

// NewHeap returns a Heap that keeps the k highest-scoring items.
func NewHeap(k int) (*Heap, error) {
	if k < 1 {
		return nil, ErrBadCapacity
	}
	return &Heap{k: k}, nil
}

// MustHeap is NewHeap for statically known valid capacities.
// It panics only on programmer error (k < 1).
func MustHeap(k int) *Heap {
	h, err := NewHeap(k)
	if err != nil {
		panic(err)
	}
	return h
}

// Len returns the number of items currently retained.
func (h *Heap) Len() int { return len(h.items) }

// Full reports whether the heap holds K items.
func (h *Heap) Full() bool { return len(h.items) == h.k }

// Threshold returns the score an item must exceed to enter a full heap.
// For a non-full heap it returns negative infinity semantics via ok=false.
func (h *Heap) Threshold() (score float64, ok bool) {
	if !h.Full() {
		return 0, false
	}
	return h.items[0].Score, true
}

// worse reports whether item a ranks strictly worse than b
// (lower score, or equal score with larger ID).
func worse(a, b Item) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.ID > b.ID
}

// Offer inserts the item if it ranks among the current top K.
// It reports whether the item was retained.
func (h *Heap) Offer(it Item) bool {
	if len(h.items) < h.k {
		h.items = append(h.items, it)
		h.siftUp(len(h.items) - 1)
		return true
	}
	if !worse(h.items[0], it) {
		return false
	}
	h.items[0] = it
	siftDown(h.items, 0)
	return true
}

// OfferScore is a convenience wrapper around Offer without payload.
func (h *Heap) OfferScore(id int64, score float64) bool {
	return h.Offer(Item{ID: id, Score: score})
}

// Results returns the retained items ordered best-first (descending score,
// ascending ID on ties). The heap is unchanged; the returned slice is fresh.
func (h *Heap) Results() []Item {
	return h.AppendResults(make([]Item, 0, len(h.items)))
}

// AppendResults appends the retained items to dst ordered best-first
// (descending score, ascending ID on ties) and returns the extended
// slice. Pass a reused dst[:0] and no garbage is produced. This is the
// one place results are put in order: the copy is already a min-heap on
// `worse`, so heapsort finishes in place - each step moves the worst
// remaining item behind the shrinking heap - with the comparison
// inlined rather than called through a closure or a reflected swapper.
func (h *Heap) AppendResults(dst []Item) []Item {
	start := len(dst)
	dst = append(dst, h.items...)
	out := dst[start:]
	for n := len(out) - 1; n > 0; n-- {
		out[0], out[n] = out[n], out[0]
		siftDown(out[:n], 0)
	}
	return dst
}

// Reset empties the heap, retaining capacity. The items are cleared so
// a reused heap never pins payloads it no longer holds.
func (h *Heap) Reset() {
	clear(h.items)
	h.items = h.items[:0]
}

func (h *Heap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !worse(h.items[i], h.items[parent]) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

// siftDown restores the min-heap property of items below index i.
func siftDown(items []Item, i int) {
	n := len(items)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && worse(items[l], items[smallest]) {
			smallest = l
		}
		if r < n && worse(items[r], items[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		items[i], items[smallest] = items[smallest], items[i]
		i = smallest
	}
}

// MergeItems offers every item to dst and returns dst. It merges the
// partial result lists (each already best-first or not — order is
// irrelevant) that cluster nodes hand back.
func MergeItems(dst *Heap, items []Item) *Heap {
	for _, it := range items {
		dst.Offer(it)
	}
	return dst
}

// SelectTopK returns the k best items from a full slice of scores, using the
// same ordering rules as Heap. IDs are the slice indices. It is the
// reference sequential-scan implementation that indexed retrieval is
// benchmarked against.
func SelectTopK(scores []float64, k int) []Item {
	h := MustHeap(k)
	for i, s := range scores {
		h.OfferScore(int64(i), s)
	}
	return h.Results()
}
