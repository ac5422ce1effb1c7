package colstore

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"modelir/internal/topk"
)

// randomPoints draws n dim-dimensional Gaussian rows with occasional
// exact duplicates and ties, the cases zone-map strictness must handle.
func randomPoints(rng *rand.Rand, n, dim int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		if i > 0 && rng.Float64() < 0.05 {
			// Duplicate an earlier row: score ties across rows.
			pts[i] = pts[rng.Intn(i)]
			continue
		}
		p := make([]float64, dim)
		for d := range p {
			p[d] = rng.NormFloat64() * 3
			if rng.Float64() < 0.1 {
				p[d] = math.Round(p[d]) // exact-value collisions
			}
		}
		pts[i] = p
	}
	return pts
}

// naiveTopK is the reference: score every row, keep the heap's top-K.
func naiveTopK(pts [][]float64, w []float64, k int) []topk.Item {
	h := topk.MustHeap(k)
	for i, p := range pts {
		s := 0.0
		for d, v := range w {
			s += v * p[d]
		}
		h.OfferScore(int64(i), s)
	}
	return h.Results()
}

func filterAtLeast(items []topk.Item, floor float64) []topk.Item {
	if math.IsInf(floor, -1) {
		return items
	}
	out := items[:0:0]
	for _, it := range items {
		if it.Score >= floor {
			out = append(out, it)
		}
	}
	return out
}

// noneBelow is the row-gate guarantee: a scan under a raised floor
// hands back nothing strictly below it — such a row never reached the
// heap, even while the heap had room.
func noneBelow(t *testing.T, items []topk.Item, floor float64) {
	t.Helper()
	for _, it := range items {
		if it.Score < floor {
			t.Fatalf("scan kept item %d at %v, strictly below the floor %v", it.ID, it.Score, floor)
		}
	}
}

func itemsEqual(t *testing.T, label string, got, want []topk.Item) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d items, want %d\ngot  %v\nwant %v", label, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i].ID != want[i].ID || got[i].Score != want[i].Score {
			t.Fatalf("%s: pos %d: got (%d, %v), want (%d, %v)",
				label, i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
		}
	}
}

// scanAll runs the blocked scan over the whole store into a fresh heap.
func scanAll(s *Store, w []float64, k int, floor float64, meter *topk.Meter, st *Stats) []topk.Item {
	h := topk.MustHeap(k)
	var sb *topk.Bound
	if !math.IsInf(floor, -1) {
		sb = topk.NewBound()
		sb.Raise(floor)
	}
	s.Scan(w, WeightNorm(w), h, sb, meter, nil, st)
	return h.Results()
}

// TestBuildValidation pins the constructor's error contract.
func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil, Options{}); err == nil {
		t.Fatal("want error for empty set")
	}
	if _, err := Build([][]float64{{}}, Options{}); err == nil {
		t.Fatal("want error for zero-dim points")
	}
	if _, err := Build([][]float64{{1, 2}, {1}}, Options{}); err == nil {
		t.Fatal("want error for ragged points")
	}
	if _, err := Build([][]float64{{1, math.NaN()}}, Options{}); err == nil {
		t.Fatal("want error for NaN coordinate")
	}
	if _, err := Build([][]float64{{1, math.Inf(1)}}, Options{}); err == nil {
		t.Fatal("want error for infinite coordinate")
	}
	pts := [][]float64{{1, 2}, {3, 4}}
	if _, err := BuildSegmented(pts, nil, Options{}); err == nil {
		t.Fatal("want error for no segments")
	}
	// Non-positive block sizes fall back to the default instead of
	// wedging the block-partition loop.
	s, err := Build(pts, Options{BlockRows: -1})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumBlocks() != 1 || s.maxBlock != 2 {
		t.Fatalf("negative BlockRows: %d blocks, maxBlock %d", s.NumBlocks(), s.maxBlock)
	}
	if _, err := BuildSegmented(pts, [][]int{{}}, Options{}); err == nil {
		t.Fatal("want error for empty segment")
	}
	if _, err := BuildSegmented(pts, [][]int{{0, 7}}, Options{}); err == nil {
		t.Fatal("want error for out-of-range segment row")
	}
}

// TestLayoutRoundTrip: every row id appears once and carries its source
// values across segment shapes.
func TestLayoutRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := randomPoints(rng, 300, 3)
	segs := [][]int{}
	for lo := 0; lo < len(pts); lo += 70 {
		hi := lo + 70
		if hi > len(pts) {
			hi = len(pts)
		}
		seg := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			seg = append(seg, i)
		}
		segs = append(segs, seg)
	}
	s, err := BuildSegmented(pts, segs, Options{BlockRows: 32})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumRows() != len(pts) || s.NumSegments() != len(segs) {
		t.Fatalf("store %dx%d segments, want %dx%d", s.NumRows(), s.NumSegments(), len(pts), len(segs))
	}
	seen := make(map[int64]bool, len(pts))
	for r := 0; r < s.NumRows(); r++ {
		id := s.ID(r)
		if seen[id] {
			t.Fatalf("id %d stored twice", id)
		}
		seen[id] = true
		for d := 0; d < s.Dim(); d++ {
			if s.At(r, d) != pts[id][d] {
				t.Fatalf("row %d dim %d mismatch", r, d)
			}
		}
	}
}

// TestBlockedScanMatchesNaive is the zone-map soundness property: the
// blocked, zone-pruned scan returns bit-identical top-K (IDs and
// scores) to a scan that looks at every row, across random data,
// models, K, score floors and block sizes — and,
// under a floor, keeps no row strictly below it.
func TestBlockedScanMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(2000)
		dim := 1 + rng.Intn(8)
		pts := randomPoints(rng, n, dim)
		w := make([]float64, dim)
		for d := range w {
			w[d] = rng.NormFloat64()
			if rng.Float64() < 0.2 {
				w[d] = 0 // exercise the zero-coefficient skip
			}
		}
		k := 1 + rng.Intn(40)
		blockRows := 1 + rng.Intn(200)
		floor := math.Inf(-1)
		if rng.Float64() < 0.5 {
			// A floor near the score distribution so pruning really fires.
			floor = rng.NormFloat64() * 2
		}
		s, err := Build(pts, Options{BlockRows: blockRows})
		if err != nil {
			t.Fatal(err)
		}
		var st Stats
		raw := scanAll(s, w, k, floor, nil, &st)
		noneBelow(t, raw, floor)
		got := filterAtLeast(raw, floor)
		want := filterAtLeast(naiveTopK(pts, w, k), floor)
		itemsEqual(t, "blocked vs naive", got, want)
		if st.RowsScored+st.RowsZonePruned != n {
			t.Fatalf("rows scored %d + pruned %d != %d", st.RowsScored, st.RowsZonePruned, n)
		}
	}
}

// TestNormOrderInvariance: rows sit in descending norm order inside
// every segment (ties by ascending id), and that order changes no
// result — the norm-ordered scan equals the naive scan.
func TestNormOrderInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := randomPoints(rng, 4096, 5)
	w := []float64{1, -0.5, 2, 0.25, -1.5}
	sorted, err := Build(pts, Options{BlockRows: 128})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < sorted.NumRows(); r++ {
		prev, cur := sorted.ID(r-1), sorted.ID(r)
		np, nc := normOf(pts[prev]), normOf(pts[cur])
		if np < nc || (np == nc && prev > cur) {
			t.Fatalf("row %d (id %d, norm %v) follows id %d with norm %v", r, cur, nc, prev, np)
		}
	}
	for _, k := range []int{1, 10, 100} {
		var st Stats
		got := scanAll(sorted, w, k, math.Inf(-1), nil, &st)
		itemsEqual(t, "norm-ordered vs naive", got, naiveTopK(pts, w, k))
	}
}

// TestScanBudget: the meter gates block by block; scored, zone-pruned
// and budget-skipped rows partition the store exactly, and the meter
// charge equals the rows actually scored.
func TestScanBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := randomPoints(rng, 1000, 4)
	s, err := Build(pts, Options{BlockRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	w := []float64{1, 1, -1, 0.5}
	meter := topk.NewMeter(100)
	var st Stats
	scanAll(s, w, 10, math.Inf(-1), meter, &st)
	if !meter.Exhausted() {
		t.Fatal("meter not exhausted")
	}
	// The gate is pre-block, the charge post-block: two 64-row blocks
	// cross the 100-unit budget.
	if st.RowsScored != 128 {
		t.Fatalf("scored %d rows, want 128", st.RowsScored)
	}
	if int(meter.Used()) != st.RowsScored {
		t.Fatalf("meter charged %d for %d rows", meter.Used(), st.RowsScored)
	}
	if st.RowsScored+st.RowsZonePruned+st.RowsSkippedByBudget != s.NumRows() {
		t.Fatalf("scored %d + pruned %d + skipped %d != %d",
			st.RowsScored, st.RowsZonePruned, st.RowsSkippedByBudget, s.NumRows())
	}
}

// TestScanCancel: a fired done channel stops the scan at the next
// block boundary.
func TestScanCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pts := randomPoints(rng, 500, 3)
	s, err := Build(pts, Options{BlockRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	close(done)
	h := topk.MustHeap(5)
	var st Stats
	cancelled, _ := s.Scan([]float64{1, 1, 1}, WeightNorm([]float64{1, 1, 1}), h, nil, nil, done, &st)
	if !cancelled {
		t.Fatal("scan ignored fired done channel")
	}
	if st.RowsScored != 0 {
		t.Fatalf("cancelled scan scored %d rows", st.RowsScored)
	}
}

// TestSteadyStateScanZeroAllocs pins the zero-allocation hot path: a
// warmed-up blocked scan with a pooled heap and reused result buffer
// must not allocate at all.
func TestSteadyStateScanZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under the race detector; allocation counts are only meaningful without it")
	}
	rng := rand.New(rand.NewSource(9))
	pts := randomPoints(rng, 20_000, 8)
	s, err := Build(pts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := []float64{1, -0.5, 2, 0.25, -1.5, 0.75, -0.25, 1.25}
	wNorm := WeightNorm(w)
	h := topk.MustHeap(10)
	buf := make([]topk.Item, 0, 10)
	var st Stats
	scan := func() {
		h.Reset()
		s.Scan(w, wNorm, h, nil, nil, nil, &st)
		buf = h.AppendResults(buf[:0])
	}
	scan() // warm the scratch pool
	if allocs := testing.AllocsPerRun(20, scan); allocs != 0 {
		t.Fatalf("steady-state scan allocates %.1f allocs/op, want 0", allocs)
	}
	if len(buf) != 10 {
		t.Fatalf("scan returned %d items", len(buf))
	}
}

// drainQueue pops q into h, the loop Store.Scan and parallel.TopK run,
// and returns h's items best first.
func drainQueue(q *BlockQueue, h *topk.Heap, sb *topk.Bound) []topk.Item {
	for {
		unit, ok := q.Pop(topk.Floor(h, sb.Get()))
		if !ok {
			return h.Results()
		}
		q.Run(unit, h, sb)
		if t, ok := h.Threshold(); ok {
			sb.Raise(t)
		}
	}
}

// FuzzBlockedScanEquivalence drives the soundness property from fuzzed
// shape parameters over the best-first block queue: whatever the data,
// weights, block size, number of stores (each with its own id offset),
// foreign floor and K, draining one queue over every store equals the
// row-by-row reference over all rows and keeps nothing strictly below
// the floor. mode bit 0 rounds coordinates to integers (tied scores),
// bit 1 repeats rows (duplicates), and bit 2 moves the floor onto a
// block's zone bound. A budgeted drain (budgetRaw > 0) must return the
// exact top-K of the rows its stats say were scored: the first blocks
// in the queue's pop order, whose rows add up to RowsScored.
func FuzzBlockedScanEquivalence(f *testing.F) {
	f.Add(int64(1), uint16(100), uint8(3), uint8(5), uint16(32), 0.0, uint8(0), uint8(0), uint16(0))
	f.Add(int64(2), uint16(1), uint8(1), uint8(1), uint16(1), -1.5, uint8(0), uint8(0), uint16(0))
	f.Add(int64(3), uint16(2000), uint8(8), uint8(40), uint16(1000), 2.0, uint8(0), uint8(0), uint16(0))
	f.Add(int64(4), uint16(900), uint8(2), uint8(12), uint16(40), math.Inf(-1), uint8(3), uint8(1), uint16(300))
	f.Add(int64(5), uint16(700), uint8(3), uint8(9), uint16(25), math.Inf(-1), uint8(2), uint8(2), uint16(0))
	f.Add(int64(6), uint16(1200), uint8(4), uint8(20), uint16(60), 0.0, uint8(3), uint8(4), uint16(0))
	f.Add(int64(7), uint16(1500), uint8(3), uint8(7), uint16(50), 0.0, uint8(2), uint8(7), uint16(410))
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint16, dimRaw, kRaw uint8, blockRaw uint16, floor float64, segsRaw, mode uint8, budgetRaw uint16) {
		n := int(nRaw)%3000 + 1
		dim := int(dimRaw)%8 + 1
		k := int(kRaw)%50 + 1
		blockRows := int(blockRaw)%500 + 1
		nStores := min(int(segsRaw)%4+1, n)
		if math.IsNaN(floor) {
			floor = math.Inf(-1)
		}
		rng := rand.New(rand.NewSource(seed))
		pts := randomPoints(rng, n, dim)
		for i, p := range pts {
			if mode&2 != 0 && i > 0 && rng.Intn(3) == 0 {
				pts[i] = pts[rng.Intn(i)]
				continue
			}
			if mode&1 != 0 {
				q := make([]float64, dim)
				for d, v := range p {
					q[d] = math.Round(v)
				}
				pts[i] = q
			}
		}
		w := make([]float64, dim)
		for d := range w {
			w[d] = rng.NormFloat64()
			if mode&1 != 0 {
				w[d] = math.Round(w[d] * 2)
			}
		}
		wNorm := WeightNorm(w)
		// Split the rows into stores; store s numbers its rows locally
		// and is added at its first row's global index.
		stores := make([]*Store, nStores)
		offsets := make([]int64, nStores)
		for s := range stores {
			lo, hi := s*n/nStores, (s+1)*n/nStores
			st, err := Build(pts[lo:hi], Options{BlockRows: blockRows})
			if err != nil {
				t.Fatal(err)
			}
			stores[s], offsets[s] = st, int64(lo)
		}
		newQueue := func(meter *topk.Meter) *BlockQueue {
			q := GetBlockQueue(w, wNorm, meter)
			for s, st := range stores {
				q.Add(st, offsets[s])
			}
			return q
		}
		if mode&4 != 0 {
			s := stores[rng.Intn(nStores)]
			floor = s.blockBound(rng.Intn(s.NumBlocks()), w, wNorm)
		}
		foreign := func() *topk.Bound {
			sb := topk.NewBound()
			sb.Raise(floor)
			return sb
		}

		q := newQueue(nil)
		raw := drainQueue(q, topk.MustHeap(k), foreign())
		st := q.Stats()
		q.Release()
		noneBelow(t, raw, floor)
		itemsEqual(t, "queue vs naive", filterAtLeast(raw, floor), filterAtLeast(naiveTopK(pts, w, k), floor))
		if st.RowsScored+st.RowsZonePruned != n {
			t.Fatalf("scored %d + pruned %d rows of %d", st.RowsScored, st.RowsZonePruned, n)
		}

		if budgetRaw == 0 {
			return
		}
		q = newQueue(topk.NewMeter(int(budgetRaw)))
		q.built = false
		order := append([]queuedBlock(nil), q.heap...)
		raw = drainQueue(q, topk.MustHeap(k), foreign())
		st = q.Stats()
		q.Release()
		sort.Slice(order, func(a, b int) bool { return ahead(order[a], order[b]) })
		var scored [][]float64
		var ids []int64
		rows := 0
		for _, qb := range order {
			if rows == st.RowsScored {
				break
			}
			s := stores[qb.seg]
			for r := s.blockStart[qb.b]; r < s.blockStart[qb.b+1]; r++ {
				p := make([]float64, dim)
				for d := range p {
					p[d] = s.At(r, d)
				}
				scored = append(scored, p)
				ids = append(ids, s.ID(r)+offsets[qb.seg])
				rows++
			}
		}
		if rows != st.RowsScored {
			t.Fatalf("no prefix of the pop order holds the %d rows scored", st.RowsScored)
		}
		h := topk.MustHeap(k)
		for j, p := range scored {
			sc := 0.0
			for d, v := range w {
				sc += v * p[d]
			}
			h.OfferScore(ids[j], sc)
		}
		itemsEqual(t, "budgeted queue vs the rows it scored", filterAtLeast(raw, floor), filterAtLeast(h.Results(), floor))
	})
}

// TestNormBoundCoversParallelRow: the Cauchy-Schwarz block bound must
// not round below a row parallel to w. Unwidened, |w|·|x| for
// w = x = (-3, -3) is 17.999999999999996 against a score of exactly 18,
// and a floor of 18 (a tie, which must be kept) pruned the row.
func TestNormBoundCoversParallelRow(t *testing.T) {
	s, err := Build([][]float64{{-3, -3}, {1, 0}}, Options{BlockRows: 1})
	if err != nil {
		t.Fatal(err)
	}
	w := []float64{-3, -3}
	got := scanAll(s, w, 1, 18, nil, &Stats{})
	itemsEqual(t, "floor tied with a parallel row", got, []topk.Item{{ID: 0, Score: 18}})
}
