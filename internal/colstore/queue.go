// The best-first block queue: the unit queue of a linear scan. A scan
// over several stores (an engine's base shards and live deltas) does not
// walk them one after another; it puts every zone-map block of every
// store into one binary max-heap keyed by the block's upper bound for
// the scan's weights, pops the most promising block first, and stops at
// the first block whose bound is strictly below its screening floor.
// Every block still queued is bounded lower still, so it is dropped
// unscored. The heap is built once per scan and costs one bound per
// block; there is no sort.

package colstore

import (
	"sync"

	"modelir/internal/topk"
)

// BlockQueue holds the blocks of the stores added to it for one weight
// vector, drained by one goroutine into one heap. A unit number from
// Pop names one block; Run scores it.
type BlockQueue struct {
	w      []float64
	wNorm  float64
	meter  *topk.Meter
	segs   []queueSeg
	heap   []queuedBlock
	built  bool
	queued int // rows of the blocks still in heap
	st     Stats
}

// queueSeg is one store of the queue, the offset its row ids are
// lifted by, and the unit number of its first block (units number the
// blocks of all stores in the order they were added).
type queueSeg struct {
	s      *Store
	offset int64
	kern   kernelFunc
	first  int
}

// queuedBlock is one heap entry: block b of segs[seg] and its bound.
type queuedBlock struct {
	bound  float64
	seg, b int32
}

// ahead orders the heap: higher bound first, then store and block order,
// so the pop order is one total order and a scan is deterministic.
func ahead(a, b queuedBlock) bool {
	if a.bound != b.bound {
		return a.bound > b.bound
	}
	if a.seg != b.seg {
		return a.seg < b.seg
	}
	return a.b < b.b
}

var queuePool = sync.Pool{New: func() any { return new(BlockQueue) }}

// GetBlockQueue returns an empty pooled queue for one scan with weights
// w (wNorm = WeightNorm(w)). The scan charges meter (nil = unlimited)
// the rows it scores. Add the stores, drain it, read Stats, then
// Release it.
func GetBlockQueue(w []float64, wNorm float64, meter *topk.Meter) *BlockQueue {
	q := queuePool.Get().(*BlockQueue)
	q.w, q.wNorm, q.meter = w, wNorm, meter
	return q
}

// Release returns the queue to the pool. It must not be used after.
func (q *BlockQueue) Release() {
	clear(q.segs)
	q.segs, q.heap = q.segs[:0], q.heap[:0]
	q.w, q.meter, q.built, q.queued, q.st = nil, nil, false, 0, Stats{}
	queuePool.Put(q)
}

// Add queues every block of s, whose row ids are lifted by offset in the
// items the scan offers. The store's dimension must match the weights.
// Add every store before the first Pop.
func (q *BlockQueue) Add(s *Store, offset int64) {
	seg, first := int32(len(q.segs)), 0
	if n := len(q.segs); n > 0 {
		first = q.segs[n-1].first + q.segs[n-1].s.NumBlocks()
	}
	q.segs = append(q.segs, queueSeg{s: s, offset: offset, kern: s.scanKernel(q.w), first: first})
	for b := 0; b < s.NumBlocks(); b++ {
		q.heap = append(q.heap, queuedBlock{bound: s.blockBound(b, q.w, q.wNorm), seg: seg, b: int32(b)})
	}
	q.queued += s.rows
}

// Pop takes the best queued block, given the drainer's scan floor
// (topk.Floor of its heap under the shared bound). It reports false
// once the queue is empty, once the meter has run out (the queued rows
// count as RowsSkippedByBudget), or when the best block's bound is
// strictly below floor: then no queued row can enter the top-K, and
// every queued block is dropped as zone-pruned. A tied bound is still
// popped, since a tied row can win the smaller-id tie-break.
func (q *BlockQueue) Pop(floor float64) (unit int, ok bool) {
	if !q.built {
		for i := len(q.heap)/2 - 1; i >= 0; i-- {
			q.down(i, q.heap[i])
		}
		q.built = true
	}
	if len(q.heap) == 0 {
		return 0, false
	}
	st := &q.st
	switch {
	case q.meter.Exhausted():
		st.RowsSkippedByBudget += q.queued
	case q.heap[0].bound < floor:
		st.BlocksZonePruned += len(q.heap)
		st.RowsZonePruned += q.queued
	default:
		top := q.heap[0]
		n := len(q.heap) - 1
		last := q.heap[n]
		if q.heap = q.heap[:n]; n > 0 {
			q.down(0, last)
		}
		seg := &q.segs[top.seg]
		q.queued -= seg.s.blockStart[top.b+1] - seg.s.blockStart[top.b]
		return seg.first + int(top.b), true
	}
	q.heap = q.heap[:0]
	q.queued = 0
	return 0, false
}

// down places blk into the hole at index i: the child ahead moves up
// into the hole while it is ahead of blk, and blk is written once,
// where the hole stops. The child is chosen without a branch (the left
// one, plus one when the right is ahead of it), the choice a swap-based
// sift makes, so the pop order is the same.
func (q *BlockQueue) down(i int, blk queuedBlock) {
	h := q.heap
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) {
			c += b2i(ahead(h[c+1], h[c]))
		}
		if !ahead(h[c], blk) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = blk
}

// b2i is 1 for true and 0 for false, compiled without a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Run scores the block unit names into h, screening rows against h and
// sb (see scoreBlock), and charges the meter its rows. Publishing h's
// threshold to sb is the caller's. It never fails; the error completes
// the unit-queue shape.
func (q *BlockQueue) Run(unit int, h *topk.Heap, sb *topk.Bound) error {
	i := len(q.segs) - 1
	for q.segs[i].first > unit {
		i--
	}
	seg := &q.segs[i]
	s, b := seg.s, unit-seg.first
	lo, hi := s.blockStart[b], s.blockStart[b+1]
	sc := getScratch(hi - lo)
	s.scoreBlock(seg.kern, lo, hi, q.w, seg.offset, h, sb.Get(), sc.scores[:hi-lo])
	putScratch(sc)
	q.st.RowsScored += hi - lo
	q.meter.Charge(hi - lo)
	return nil
}

// Stats reports the scan's work so far.
func (q *BlockQueue) Stats() Stats { return q.st }

func (t *Stats) add(s Stats) {
	t.RowsScored += s.RowsScored
	t.RowsZonePruned += s.RowsZonePruned
	t.BlocksZonePruned += s.BlocksZonePruned
	t.RowsSkippedByBudget += s.RowsSkippedByBudget
}
