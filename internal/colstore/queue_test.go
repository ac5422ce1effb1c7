package colstore

import (
	"math"
	"math/rand"
	"testing"
)

// swapDown is BlockQueue's former swap-based sift, kept as the oracle
// for the hole-moving one: ahead picks the child.
func swapDown(h []queuedBlock, i int) {
	for {
		l, r, best := 2*i+1, 2*i+2, i
		if l < len(h) && ahead(h[l], h[best]) {
			best = l
		}
		if r < len(h) && ahead(h[r], h[best]) {
			best = r
		}
		if best == i {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}

// TestQueuePopOrderMatchesSwapSift queues blocks whose bounds are drawn
// from a handful of values, so most compare equal, in shuffled order,
// and checks that Pop yields the blocks in the order the swap-based
// sift pops them: Examined and the scan's pop order cannot move.
func TestQueuePopOrderMatchesSwapSift(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		q := GetBlockQueue(nil, 0, nil)
		distinct := 1 + rng.Intn(4)
		var blocks []queuedBlock
		for si, first := 0, 0; si < 1+rng.Intn(4); si++ {
			nb := rng.Intn(40)
			s := &Store{blockStart: make([]int, nb+1)}
			for b := 0; b < nb; b++ {
				s.blockStart[b+1] = s.blockStart[b] + 1 + rng.Intn(3)
				blocks = append(blocks, queuedBlock{bound: float64(rng.Intn(distinct)), seg: int32(si), b: int32(b)})
			}
			q.segs = append(q.segs, queueSeg{s: s, first: first})
			q.queued += s.blockStart[nb]
			first += nb
		}
		rng.Shuffle(len(blocks), func(i, j int) { blocks[i], blocks[j] = blocks[j], blocks[i] })
		q.heap = append(q.heap, blocks...)

		h := append([]queuedBlock(nil), blocks...)
		for i := len(h)/2 - 1; i >= 0; i-- {
			swapDown(h, i)
		}
		for len(h) > 0 {
			top := h[0]
			n := len(h) - 1
			h[0] = h[n]
			h = h[:n]
			swapDown(h, 0)
			got, ok := q.Pop(math.Inf(-1))
			if want := q.segs[top.seg].first + int(top.b); !ok || got != want {
				t.Fatalf("trial %d: popped unit %d (%v), the swap sift pops %d", trial, got, ok, want)
			}
		}
		if _, ok := q.Pop(math.Inf(-1)); ok || q.queued != 0 {
			t.Fatalf("trial %d: queue not drained: %d rows queued", trial, q.queued)
		}
		q.Release()
	}
}
