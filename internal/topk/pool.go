// Heap pooling: every query drains into one heap, and a serving engine
// runs the same K over and over. The pool recycles the heap structs (and
// their item backing arrays, at whatever size they grew to) across
// requests so the steady-state hot path allocates nothing for selection
// state. Nothing is sized from k up front: K comes
// off the request, and a heap only grows with the items it retains.

package topk

import "sync"

var heapPool = sync.Pool{New: func() any { return &Heap{} }}

// GetHeap returns a pooled empty heap reinitialized to keep k items.
// Return it with PutHeap once its results have been extracted (Results
// copies, so the heap can be released before the copy is used).
func GetHeap(k int) (*Heap, error) {
	if k < 1 {
		return nil, ErrBadCapacity
	}
	h := heapPool.Get().(*Heap)
	h.k = k
	return h, nil
}

// PutHeap returns a heap to the pool, emptied by Reset so a pooled heap
// never pins caller payloads across requests.
func PutHeap(h *Heap) {
	if h == nil {
		return
	}
	h.Reset()
	heapPool.Put(h)
}
