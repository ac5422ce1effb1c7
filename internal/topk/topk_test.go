package topk

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewHeapRejectsBadCapacity(t *testing.T) {
	for _, k := range []int{0, -1, -100} {
		if _, err := NewHeap(k); err == nil {
			t.Errorf("NewHeap(%d): want error, got nil", k)
		}
	}
	if _, err := NewHeap(1); err != nil {
		t.Fatalf("NewHeap(1): unexpected error %v", err)
	}
}

func TestHeapKeepsLargest(t *testing.T) {
	h := MustHeap(3)
	for i, s := range []float64{5, 1, 9, 3, 7, 2, 8} {
		h.OfferScore(int64(i), s)
	}
	got := h.Results()
	wantScores := []float64{9, 8, 7}
	if len(got) != 3 {
		t.Fatalf("len=%d want 3", len(got))
	}
	for i, it := range got {
		if it.Score != wantScores[i] {
			t.Errorf("result[%d].Score=%v want %v", i, it.Score, wantScores[i])
		}
	}
}

func TestHeapFewerThanK(t *testing.T) {
	h := MustHeap(10)
	h.OfferScore(1, 2.0)
	h.OfferScore(2, 1.0)
	got := h.Results()
	if len(got) != 2 || got[0].Score != 2.0 || got[1].Score != 1.0 {
		t.Fatalf("unexpected results %+v", got)
	}
}

func TestHeapTieBreakByID(t *testing.T) {
	h := MustHeap(2)
	h.OfferScore(7, 1.0)
	h.OfferScore(3, 1.0)
	h.OfferScore(5, 1.0)
	got := h.Results()
	if got[0].ID != 3 || got[1].ID != 5 {
		t.Fatalf("tie break wrong: %+v", got)
	}
}

func TestThreshold(t *testing.T) {
	h := MustHeap(2)
	if _, ok := h.Threshold(); ok {
		t.Fatal("empty heap should have no threshold")
	}
	h.OfferScore(1, 5)
	h.OfferScore(2, 3)
	th, ok := h.Threshold()
	if !ok || th != 3 {
		t.Fatalf("threshold=%v ok=%v want 3,true", th, ok)
	}
}

// TestFloor pins the one screening-floor rule: -Inf with neither part,
// the shared reading while the heap has room, the heap's threshold once
// full, and whichever is higher when both exist.
func TestFloor(t *testing.T) {
	inf := math.Inf(-1)
	h := MustHeap(2)
	if f := Floor(h, inf); !math.IsInf(f, -1) {
		t.Fatalf("empty heap, no bound: floor %v, want -Inf", f)
	}
	h.OfferScore(1, 10)
	if f := Floor(h, 3); f != 3 {
		t.Fatalf("heap with room: floor %v, want the shared 3", f)
	}
	h.OfferScore(2, 5)
	for _, c := range []struct{ shared, want float64 }{{inf, 5}, {3, 5}, {5, 5}, {7, 7}} {
		if f := Floor(h, c.shared); f != c.want {
			t.Fatalf("full heap (threshold 5), shared %v: floor %v, want %v", c.shared, f, c.want)
		}
	}
	if f := Floor(h, NewBound().Get()); f != 5 {
		t.Fatalf("fresh bound: floor %v, want the threshold 5", f)
	}
}

// TestHugeKSizesNothing pins that K never sizes an allocation: K comes
// off the request, so a heap asking for 2^40 items costs nothing up
// front and only the items it retains afterwards.
func TestHugeKSizesNothing(t *testing.T) {
	get := func(k int) *Heap {
		h, err := GetHeap(k)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	if !raceEnabled {
		PutHeap(get(1)) // the pool's first struct is not the point
		if allocs := testing.AllocsPerRun(20, func() { PutHeap(get(1 << 40)) }); allocs != 0 {
			t.Fatalf("GetHeap(1<<40) allocates %.1f times, want 0", allocs)
		}
	}
	for _, h := range []*Heap{get(1 << 40), MustHeap(1 << 40)} {
		if cap(h.scores) > 16 || cap(h.ids) > 16 || h.payloads != nil {
			t.Fatalf("empty heap of K 1<<40 holds capacity %d/%d/%d", cap(h.scores), cap(h.ids), cap(h.payloads))
		}
		for i := 0; i < 100; i++ {
			h.OfferScore(int64(i), float64(i))
		}
		if h.Len() != 100 || h.Full() || cap(h.scores) > 256 || cap(h.ids) > 256 || h.payloads != nil {
			t.Fatalf("100 offers into K 1<<40: len %d, full %v, capacity %d/%d/%d",
				h.Len(), h.Full(), cap(h.scores), cap(h.ids), cap(h.payloads))
		}
	}
}

// TestPutHeapClearsRetainedItems: a pooled heap keeps the capacity its
// scores and IDs grew to but pins no payload, including after a Reset.
func TestPutHeapClearsRetainedItems(t *testing.T) {
	h := MustHeap(8)
	for i := 0; i < 8; i++ {
		h.Offer(Item{ID: int64(i), Score: float64(i), Payload: &i})
	}
	h.Reset()
	h.OfferScore(9, 9)
	if h.payloads != nil {
		t.Fatalf("reset heap still holds %d payload slots", cap(h.payloads))
	}
	h.Offer(Item{ID: 10, Score: 10, Payload: h})
	PutHeap(h)
	if h.payloads != nil {
		t.Fatalf("pooled heap still holds %d payload slots", cap(h.payloads))
	}
	if cap(h.scores) < 8 || cap(h.ids) < 8 {
		t.Fatalf("pooled heap dropped its capacity: %d/%d", cap(h.scores), cap(h.ids))
	}
}

func TestReset(t *testing.T) {
	h := MustHeap(2)
	h.OfferScore(1, 1)
	h.Reset()
	if h.Len() != 0 {
		t.Fatalf("len after reset = %d", h.Len())
	}
	h.OfferScore(2, 2)
	if got := h.Results(); len(got) != 1 || got[0].ID != 2 {
		t.Fatalf("heap unusable after reset: %+v", got)
	}
}

func TestMerge(t *testing.T) {
	a := MustHeap(3)
	b := MustHeap(3)
	a.OfferScore(1, 10)
	a.OfferScore(2, 20)
	b.OfferScore(3, 15)
	b.OfferScore(4, 25)
	got := MergeItems(a, b.Results()).Results()
	want := []int64{4, 2, 3}
	for i, id := range want {
		if got[i].ID != id {
			t.Fatalf("merged order %+v, want IDs %v", got, want)
		}
	}
}

func TestSelectTopKMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		k := 1 + rng.Intn(20)
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = float64(rng.Intn(50)) // force ties
		}
		got := SelectTopK(scores, k)

		type pair struct {
			id int64
			s  float64
		}
		ref := make([]pair, n)
		for i, s := range scores {
			ref[i] = pair{int64(i), s}
		}
		sort.Slice(ref, func(i, j int) bool {
			if ref[i].s != ref[j].s {
				return ref[i].s > ref[j].s
			}
			return ref[i].id < ref[j].id
		})
		wantLen := k
		if n < k {
			wantLen = n
		}
		if len(got) != wantLen {
			t.Fatalf("trial %d: len=%d want %d", trial, len(got), wantLen)
		}
		for i := 0; i < wantLen; i++ {
			if got[i].ID != ref[i].id || got[i].Score != ref[i].s {
				t.Fatalf("trial %d pos %d: got %+v want %+v", trial, i, got[i], ref[i])
			}
		}
	}
}

// Property: the heap's result set is exactly the K largest elements of the
// offered multiset, best-first.
func TestHeapPropertyQuick(t *testing.T) {
	f := func(raw []float64, kSeed uint8) bool {
		if len(raw) == 0 {
			return true
		}
		k := int(kSeed)%10 + 1
		h := MustHeap(k)
		for i, s := range raw {
			// Avoid NaN: quick can generate them and NaN ordering is
			// undefined for retrieval scores by contract.
			if s != s {
				s = 0
			}
			h.OfferScore(int64(i), s)
			raw[i] = s
		}
		got := h.Results()
		sorted := append([]float64(nil), raw...)
		sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
		wantLen := k
		if len(raw) < k {
			wantLen = len(raw)
		}
		if len(got) != wantLen {
			return false
		}
		for i := 0; i < wantLen; i++ {
			if got[i].Score != sorted[i] {
				return false
			}
		}
		// best-first ordering within the result
		for i := 1; i < len(got); i++ {
			if got[i].Score > got[i-1].Score {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestOfferReportsRetention(t *testing.T) {
	h := MustHeap(1)
	if !h.OfferScore(1, 5) {
		t.Fatal("first offer must be retained")
	}
	if h.OfferScore(2, 4) {
		t.Fatal("worse offer must be rejected")
	}
	if !h.OfferScore(3, 6) {
		t.Fatal("better offer must be retained")
	}
}

// normOrderedScores is what a linear scan offers: the scores w·x of
// rows Gaussian in dim attributes, in descending order of |x| as a
// norm-ordered store holds them.
func normOrderedScores(n, dim int) []float64 {
	rng := rand.New(rand.NewSource(1))
	w := make([]float64, dim)
	for d := range w {
		w[d] = rng.NormFloat64()
	}
	type row struct{ norm, score float64 }
	rows := make([]row, n)
	for i := range rows {
		for d := range w {
			x := rng.NormFloat64()
			rows[i].norm += x * x
			rows[i].score += w[d] * x
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].norm > rows[j].norm })
	scores := make([]float64, n)
	for i, r := range rows {
		scores[i] = r.score
	}
	return scores
}

// BenchmarkHeapOffer times the path a scanned block takes into a
// query's heap: 1,024-row blocks of norm-ordered scores, each row gated
// by topk.Floor as colstore's scoreBlock gates it, and offered when it
// is not below the floor. A pass fills a fresh heap from four blocks.
// Nearly all of the time is sifts, so it reports ns per accepted offer.
func BenchmarkHeapOffer(b *testing.B) {
	const block = 1024
	scores := normOrderedScores(4*block, 8)
	for _, k := range []int{10, 45, 200} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			h := MustHeap(k)
			accepted := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Reset()
				for lo := 0; lo < len(scores); lo += block {
					floor := Floor(h, math.Inf(-1))
					for j, v := range scores[lo : lo+block] {
						if v < floor {
							continue
						}
						if h.OfferScore(int64(lo+j), v) {
							accepted++
							floor = Floor(h, math.Inf(-1))
						}
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(accepted), "ns/accept")
			b.ReportMetric(float64(accepted)/float64(b.N), "accepts/op")
		})
	}
}
