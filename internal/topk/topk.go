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
// The items are held in parallel slices: a sift compares and moves
// scores and IDs alone, and payloads get a slice of their own only once
// an item with a payload is offered.
//
// The zero value is not usable; construct with NewHeap.
type Heap struct {
	k        int
	scores   []float64
	ids      []int64
	payloads []any // nil until a payload is offered, then parallel to scores
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
func (h *Heap) Len() int { return len(h.scores) }

// Full reports whether the heap holds K items.
func (h *Heap) Full() bool { return len(h.scores) == h.k }

// Threshold returns the score an item must exceed to enter a full heap.
// For a non-full heap it returns negative infinity semantics via ok=false.
func (h *Heap) Threshold() (score float64, ok bool) {
	if !h.Full() {
		return 0, false
	}
	return h.scores[0], true
}

// worse reports whether the item scoring as with ID aid ranks strictly
// worse than the one scoring bs with ID bid (lower score, or equal
// score with larger ID).
func worse(as float64, aid int64, bs float64, bid int64) bool {
	if as != bs {
		return as < bs
	}
	return aid > bid
}

// b2i is 1 for true and 0 for false, compiled without a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Offer inserts the item if it ranks among the current top K.
// It reports whether the item was retained. The first item offered
// with a payload gives the heap its payload slice.
func (h *Heap) Offer(it Item) bool {
	if it.Payload != nil && h.payloads == nil {
		h.payloads = make([]any, len(h.scores), cap(h.scores))
	}
	return h.offer(it.Score, it.ID, it.Payload)
}

// OfferScore offers an item without payload.
func (h *Heap) OfferScore(id int64, score float64) bool {
	return h.offer(score, id, nil)
}

// offer is Offer once the payload slice exists if p needs it.
func (h *Heap) offer(s float64, id int64, p any) bool {
	if len(h.scores) < h.k {
		h.push(s, id, p)
		return true
	}
	if !worse(h.scores[0], h.ids[0], s, id) {
		return false
	}
	h.siftDown(len(h.scores), s, id, p)
	return true
}

// Results returns the retained items ordered best-first (descending score,
// ascending ID on ties). The heap keeps its items; the returned slice is
// fresh.
func (h *Heap) Results() []Item {
	return h.AppendResults(make([]Item, 0, len(h.scores)))
}

// AppendResults appends the retained items to dst ordered best-first
// (descending score, ascending ID on ties) and returns the extended
// slice. Pass a reused dst[:0] and no garbage is produced. This is the
// one place results are put in order: the heap is heapsorted in place -
// each step moves the worst remaining item behind the shrinking heap,
// with the comparison inlined rather than called through a closure or a
// reflected swapper - and copied out best-first. Reversed, the sorted
// slices are worst-first, which is a min-heap again, so the heap keeps
// its items and stays usable; only their layout changes.
func (h *Heap) AppendResults(dst []Item) []Item {
	scores, ids, payloads := h.scores, h.ids, h.payloads
	for n := len(scores) - 1; n > 0; n-- {
		s, id := scores[n], ids[n]
		scores[n], ids[n] = scores[0], ids[0]
		var p any
		if payloads != nil {
			p, payloads[n] = payloads[n], payloads[0]
		}
		h.siftDown(n, s, id, p)
	}
	for i, s := range scores {
		it := Item{ID: ids[i], Score: s}
		if payloads != nil {
			it.Payload = payloads[i]
		}
		dst = append(dst, it)
	}
	for i, j := 0, len(scores)-1; i < j; i, j = i+1, j-1 {
		scores[i], scores[j] = scores[j], scores[i]
		ids[i], ids[j] = ids[j], ids[i]
		if payloads != nil {
			payloads[i], payloads[j] = payloads[j], payloads[i]
		}
	}
	return dst
}

// Reset empties the heap, retaining the capacity of its scores and
// IDs. The payload slice is dropped, so a reused heap never pins
// payloads it no longer holds and a pooled heap sifts no payloads until
// its next user offers one.
func (h *Heap) Reset() {
	h.scores, h.ids, h.payloads = h.scores[:0], h.ids[:0], nil
}

// push adds an item to a heap that is not full and sifts it up:
// parents it ranks worse than move down into the hole it leaves, and it
// is written once, where the hole stops.
func (h *Heap) push(s float64, id int64, p any) {
	h.scores = append(h.scores, s)
	h.ids = append(h.ids, id)
	if h.payloads != nil {
		h.payloads = append(h.payloads, p)
	}
	scores, ids := h.scores, h.ids
	i := len(scores) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !worse(s, id, scores[parent], ids[parent]) {
			break
		}
		scores[i], ids[i] = scores[parent], ids[parent]
		if h.payloads != nil {
			h.payloads[i] = h.payloads[parent]
		}
		i = parent
	}
	scores[i], ids[i] = s, id
	if h.payloads != nil {
		h.payloads[i] = p
	}
}

// siftDown places an item into the hole at the root of the heap's
// first n items: the worse child moves up into the hole while it ranks
// worse than the item, and the item is written once, where the hole
// stops. The child is chosen without a branch — the left one, plus one
// when the right is worse — since which child is worse is a coin flip
// a predicted branch loses at every level. It is the choice the
// swap-based sift made (the left child unless the right is strictly
// worse), so the heap's layout, and every pop, comes out the same.
func (h *Heap) siftDown(n int, s float64, id int64, p any) {
	scores, ids, payloads := h.scores, h.ids, h.payloads
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n {
			c += b2i(worse(scores[c+1], ids[c+1], scores[c], ids[c]))
		}
		if !worse(scores[c], ids[c], s, id) {
			break
		}
		scores[i], ids[i] = scores[c], ids[c]
		if payloads != nil {
			payloads[i] = payloads[c]
		}
		i = c
	}
	scores[i], ids[i] = s, id
	if payloads != nil {
		payloads[i] = p
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
