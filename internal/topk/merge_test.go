package topk

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refTopK is the oracle: sort the full item set by (score desc, ID asc)
// and truncate to k.
func refTopK(items []Item, k int) []Item {
	all := append([]Item(nil), items...)
	sort.Slice(all, func(i, j int) bool { return worse(all[j].Score, all[j].ID, all[i].Score, all[i].ID) })
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// stored is h's items in the order the heap holds them.
func stored(h *Heap) []Item {
	out := make([]Item, len(h.scores))
	for i := range out {
		out[i] = Item{ID: h.ids[i], Score: h.scores[i]}
		if h.payloads != nil {
			out[i].Payload = h.payloads[i]
		}
	}
	return out
}

func sameItems(t *testing.T, got, want []Item) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d items, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || got[i].Score != want[i].Score {
			t.Fatalf("pos %d: got %v/%v want %v/%v",
				i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
		}
	}
}

// shardAndMerge partitions items into `shards` contiguous heaps of
// capacity k and merges them — the exact dataflow of a sharded query.
func shardAndMerge(items []Item, shards, k int) []Item {
	if shards < 1 {
		shards = 1
	}
	merged := MustHeap(k)
	chunk := (len(items) + shards - 1) / shards
	if chunk == 0 {
		chunk = 1
	}
	for lo := 0; lo < len(items); lo += chunk {
		hi := lo + chunk
		if hi > len(items) {
			hi = len(items)
		}
		local := MustHeap(k)
		for _, it := range items[lo:hi] {
			if it.Payload == nil {
				local.OfferScore(it.ID, it.Score)
			} else {
				local.Offer(it)
			}
		}
		MergeItems(merged, stored(local))
	}
	return merged.Results()
}

func TestMergeShardedEqualsConcatenated(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(400)
		k := 1 + rng.Intn(20)
		shards := 1 + rng.Intn(9)
		items := make([]Item, n)
		for i := range items {
			// Coarse quantization forces plenty of score ties.
			items[i] = Item{ID: int64(i), Score: float64(rng.Intn(12))}
		}
		want := refTopK(items, k)
		got := shardAndMerge(items, shards, k)
		sameItems(t, got, want)
	}
}

// TestMergeItemsMatchesMerge: merging a heap's items in its own array
// order equals merging its best-first Results.
func TestMergeItemsMatchesMerge(t *testing.T) {
	src := MustHeap(4)
	for i := 0; i < 10; i++ {
		src.OfferScore(int64(i), float64(i%5))
	}
	viaHeap := MergeItems(MustHeap(3), stored(src)).Results()
	viaItems := MergeItems(MustHeap(3), src.Results()).Results()
	sameItems(t, viaItems, viaHeap)
}

func TestMergeOrderInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	items := make([]Item, 120)
	for i := range items {
		items[i] = Item{ID: int64(i), Score: float64(rng.Intn(6))}
	}
	// Merge the same three partitions in every order; result must not move.
	parts := [][]Item{items[:40], items[40:80], items[80:]}
	var first []Item
	for _, order := range [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		h := MustHeap(7)
		for _, pi := range order {
			MergeItems(h, parts[pi])
		}
		got := h.Results()
		if first == nil {
			first = got
			sameItems(t, got, refTopK(items, 7))
			continue
		}
		sameItems(t, got, first)
	}
}

func TestBoundMonotoneAndNilSafe(t *testing.T) {
	var nilB *Bound
	if !math.IsInf(nilB.Get(), -1) {
		t.Fatalf("nil bound Get = %v, want -Inf", nilB.Get())
	}
	nilB.Raise(5) // must not panic

	b := NewBound()
	if !math.IsInf(b.Get(), -1) {
		t.Fatalf("fresh bound Get = %v, want -Inf", b.Get())
	}
	b.Raise(1.5)
	if b.Get() != 1.5 {
		t.Fatalf("Get = %v, want 1.5", b.Get())
	}
	b.Raise(0.5) // lower: ignored
	if b.Get() != 1.5 {
		t.Fatalf("Get after lower Raise = %v, want 1.5", b.Get())
	}
	b.Raise(math.NaN()) // NaN: ignored
	if b.Get() != 1.5 {
		t.Fatalf("Get after NaN Raise = %v, want 1.5", b.Get())
	}
	b.Raise(-2) // negative but lower than current: ignored
	if b.Get() != 1.5 {
		t.Fatalf("Get = %v, want 1.5", b.Get())
	}
	b.Raise(3)
	if b.Get() != 3 {
		t.Fatalf("Get = %v, want 3", b.Get())
	}
}

func TestBoundNegativeRange(t *testing.T) {
	// Float bit patterns of negatives are not order-preserving as
	// integers; Raise must still compare as floats.
	b := NewBound()
	b.Raise(-10)
	if b.Get() != -10 {
		t.Fatalf("Get = %v, want -10", b.Get())
	}
	b.Raise(-3)
	if b.Get() != -3 {
		t.Fatalf("Get = %v, want -3", b.Get())
	}
	b.Raise(-7)
	if b.Get() != -3 {
		t.Fatalf("Get = %v, want -3", b.Get())
	}
}

// FuzzHeapMerge asserts the sharded-merge invariant the engine relies
// on: for any scores (dense ties and signed zeros included), any k up
// to 512 and any shard count, the merged top-K of per-shard heaps
// equals the top-K of the concatenated input — IDs, score bits and
// payloads. Every payloadEvery-th item carries a payload of its own and
// is offered with Offer; the rest go through OfferScore, as a linear
// scan's rows do beside geology's strata lists.
func FuzzHeapMerge(f *testing.F) {
	f.Add(int64(1), 10, 3, 2, false, uint8(0))
	f.Add(int64(2), 100, 1, 7, true, uint8(0))
	f.Add(int64(3), 1, 5, 5, false, uint8(0))
	f.Add(int64(4), 257, 16, 4, true, uint8(0))
	f.Add(int64(5), 1500, 200, 3, false, uint8(3))
	f.Add(int64(6), 2000, 512, 2, true, uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, n, k, shards int, quantize bool, payloadEvery uint8) {
		if n < 1 || n > 2000 || k < 1 || k > 512 || shards < 1 || shards > 32 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		items := make([]Item, n)
		for i := range items {
			s := rng.NormFloat64()
			if quantize {
				// Few distinct values: dense ties exercise the ID
				// tie-break across shard boundaries, and zeros keep
				// their sign (-0 ties +0).
				s = math.Copysign(float64(int(s*2)), s)
			}
			items[i] = Item{ID: int64(i), Score: s}
			if payloadEvery > 0 && i%int(payloadEvery) == 0 {
				items[i].Payload = &items[i].ID
			}
		}
		want := refTopK(items, k)
		got := shardAndMerge(items, shards, k)
		if len(got) != len(want) {
			t.Fatalf("got %d items, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i].ID != want[i].ID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) ||
				got[i].Payload != want[i].Payload {
				t.Fatalf("pos %d: got %v/%v/%v want %v/%v/%v", i,
					got[i].ID, got[i].Score, got[i].Payload, want[i].ID, want[i].Score, want[i].Payload)
			}
		}
	})
}

// TestSingleSortOrdersHeavyTies is the property behind the one ordering
// pass of the result path: whatever order items were offered in and
// however few distinct scores there are, AppendResults (and Results on
// top of it) yields exactly the (score desc, ID asc) order of the
// oracle, appends after dst's existing items without touching them,
// and leaves the heap usable.
func TestSingleSortOrdersHeavyTies(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(400)
		k := 1 + rng.Intn(220)
		distinct := 1 + rng.Intn(4) // 1..4 score values: almost all ties
		items := make([]Item, n)
		for i, id := range rng.Perm(n) {
			items[i] = Item{ID: int64(id) - int64(n/2), Score: float64(rng.Intn(distinct)) - 1}
		}
		h := MustHeap(k)
		MergeItems(h, items)
		want := refTopK(items, k)

		sameItems(t, h.Results(), want)
		prefix := []Item{{ID: -7, Score: 99}}
		got := h.AppendResults(prefix)
		if got[0] != prefix[0] {
			t.Fatalf("trial %d: AppendResults disturbed dst's items", trial)
		}
		sameItems(t, got[1:], want)

		// The heap is still a heap: one more offer behaves.
		h.Offer(Item{ID: math.MinInt64, Score: 5})
		sameItems(t, h.Results(), refTopK(append(items, Item{ID: math.MinInt64, Score: 5}), k))
	}
}
