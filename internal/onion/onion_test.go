package onion

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"modelir/internal/synth"
	"modelir/internal/topk"
)

func randomWeights(rng *rand.Rand, d int) []float64 {
	w := make([]float64, d)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	return w
}

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
	nan := [][]float64{{1, 0. / 1}, {1, 2}}
	nan[0][1] = nan[0][1] / 0 // NaN is rejected
	if _, err := Build(nan, Options{}); err == nil {
		t.Fatal("want error for non-finite coordinates")
	}
}

func TestTopKMatchesScan2D(t *testing.T) {
	pts, err := synth.GaussianTuples(3, 5000, 2)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(pts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		w := randomWeights(rng, 2)
		for _, k := range []int{1, 5, 25} {
			got, _, err := ix.TopK(w, k)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := ScanTopK(pts, w, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("k=%d len %d vs %d", k, len(got), len(want))
			}
			for i := range want {
				if got[i].ID != want[i].ID {
					t.Fatalf("trial %d k=%d pos %d: onion %d scan %d",
						trial, k, i, got[i].ID, want[i].ID)
				}
			}
		}
	}
}

func TestTopKMatchesScan3D(t *testing.T) {
	pts, err := synth.GaussianTuples(7, 8000, 3)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(pts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 30; trial++ {
		w := randomWeights(rng, 3)
		for _, k := range []int{1, 10} {
			got, _, err := ix.TopK(w, k)
			if err != nil {
				t.Fatal(err)
			}
			want, _, _ := ScanTopK(pts, w, k)
			for i := range want {
				if got[i].ID != want[i].ID {
					t.Fatalf("trial %d k=%d pos %d: onion %d scan %d",
						trial, k, i, got[i].ID, want[i].ID)
				}
			}
		}
	}
}

func TestMinimizationViaNegation(t *testing.T) {
	pts, _ := synth.GaussianTuples(9, 2000, 3)
	ix, err := Build(pts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := []float64{1, 2, -1}
	neg := []float64{-1, -2, 1}
	got, _, err := ix.TopK(neg, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Verify it's the true minimizer of w·x.
	best, bestV := -1, 0.0
	for i, p := range pts {
		v := w[0]*p[0] + w[1]*p[1] + w[2]*p[2]
		if best < 0 || v < bestV {
			best, bestV = i, v
		}
	}
	if got[0].ID != int64(best) {
		t.Fatalf("minimizer %d want %d", got[0].ID, best)
	}
}

func TestOnionTouchesFarFewerPoints(t *testing.T) {
	pts, _ := synth.GaussianTuples(11, 50000, 3)
	ix, err := Build(pts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := []float64{0.5, 1.5, -0.7}
	_, st, err := ix.TopK(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, scanSt, _ := ScanTopK(pts, w, 1)
	if st.PointsTouched*20 > scanSt.PointsTouched {
		t.Fatalf("onion touched %d of %d points: speedup < 20x",
			st.PointsTouched, scanSt.PointsTouched)
	}
	// Top-10 touches more than top-1 but still prunes hard.
	_, st10, _ := ix.TopK(w, 10)
	if st10.PointsTouched < st.PointsTouched {
		t.Fatal("top-10 cannot touch fewer points than top-1")
	}
	if st10.PointsTouched*5 > scanSt.PointsTouched {
		t.Fatalf("top-10 touched %d of %d", st10.PointsTouched, scanSt.PointsTouched)
	}
}

func TestCoreBucketCorrectness(t *testing.T) {
	// Tiny layer cap forces most points into the core; results must stay
	// exact because the suffix-box bound falls back to scanning the core.
	pts, _ := synth.GaussianTuples(13, 3000, 3)
	ix, err := Build(pts, Options{MaxLayers: 2, Directions: 8})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 20; trial++ {
		w := randomWeights(rng, 3)
		got, _, err := ix.TopK(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		want, _, _ := ScanTopK(pts, w, 7)
		for i := range want {
			if got[i].ID != want[i].ID {
				t.Fatalf("core-bucket mismatch at %d", i)
			}
		}
	}
}

func TestLayersPartitionPoints(t *testing.T) {
	pts, _ := synth.GaussianTuples(15, 4000, 3)
	ix, err := Build(pts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	total := 0
	for li := 0; li < ix.NumLayers(); li++ {
		total += ix.LayerSize(li)
	}
	if total != ix.store.NumRows() {
		t.Fatalf("layers hold %d points, want %d", total, ix.store.NumRows())
	}
	// Every original point id appears exactly once across the columnar
	// rows, and each row's values match the source point — the layout
	// change must lose or duplicate nothing.
	st := ix.Store()
	for r := 0; r < st.NumRows(); r++ {
		pi := int(st.ID(r))
		if seen[pi] {
			t.Fatalf("point %d stored twice", pi)
		}
		seen[pi] = true
		for d := 0; d < st.Dim(); d++ {
			if st.At(r, d) != pts[pi][d] {
				t.Fatalf("row %d (point %d) dim %d: stored %v, want %v",
					r, pi, d, st.At(r, d), pts[pi][d])
			}
		}
	}
	if len(seen) != len(pts) {
		t.Fatalf("store holds %d distinct points, want %d", len(seen), len(pts))
	}
}

func TestQueryValidation(t *testing.T) {
	pts, _ := synth.GaussianTuples(1, 100, 2)
	ix, _ := Build(pts, Options{})
	if _, _, err := ix.TopK([]float64{1}, 1); err == nil {
		t.Fatal("want dim error")
	}
	if _, _, err := ix.TopK([]float64{1, 2}, 0); err == nil {
		t.Fatal("want k error")
	}
	if _, _, err := ScanTopK(nil, nil, 1); err == nil {
		t.Fatal("want empty scan error")
	}
	if _, _, err := ScanTopK(pts, []float64{1}, 1); err == nil {
		t.Fatal("want scan dim error")
	}
	if _, _, err := ScanTopK(pts, []float64{1, 2}, 0); err == nil {
		t.Fatal("want scan k error")
	}
}

func TestKLargerThanN(t *testing.T) {
	pts, _ := synth.GaussianTuples(2, 10, 2)
	ix, _ := Build(pts, Options{})
	got, _, err := ix.TopK([]float64{1, 1}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("len=%d want all 10 points", len(got))
	}
}

func TestDuplicatePoints(t *testing.T) {
	pts := [][]float64{{1, 1}, {1, 1}, {0, 0}, {2, 2}, {2, 2}}
	ix, err := Build(pts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := ix.TopK([]float64{1, 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, _, _ := ScanTopK(pts, []float64{1, 1}, 3)
	for i := range want {
		if got[i].ID != want[i].ID || got[i].Score != want[i].Score {
			t.Fatalf("dup mismatch %+v vs %+v", got, want)
		}
	}
}

// Property: for random small point sets and random weights, Onion == scan.
func TestExactnessProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(300)
		d := 2 + rng.Intn(3)
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = randomWeights(rng, d)
		}
		ix, err := Build(pts, Options{MaxLayers: 1 + rng.Intn(20), Directions: 4 + rng.Intn(30)})
		if err != nil {
			return false
		}
		k := 1 + rng.Intn(12)
		w := randomWeights(rng, d)
		got, _, err := ix.TopK(w, k)
		if err != nil {
			return false
		}
		want, _, _ := ScanTopK(pts, w, k)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i].ID != want[i].ID {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestTopKSharedPartitionsEqualWhole(t *testing.T) {
	// The sharded dataflow: split the points into P contiguous
	// partitions, index each, scan them with a shared bound, merge.
	// The merged top-K must equal the single-index top-K for every
	// partition count and every query direction.
	for _, d := range []int{2, 3, 6} {
		pts, err := synth.GaussianTuples(19, 3000, d)
		if err != nil {
			t.Fatal(err)
		}
		whole, err := Build(pts, Options{})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(23))
		for _, parts := range []int{2, 5} {
			chunk := (len(pts) + parts - 1) / parts
			var ixs []*Index
			var offs []int
			for lo := 0; lo < len(pts); lo += chunk {
				hi := lo + chunk
				if hi > len(pts) {
					hi = len(pts)
				}
				ix, err := Build(pts[lo:hi], Options{})
				if err != nil {
					t.Fatal(err)
				}
				ixs = append(ixs, ix)
				offs = append(offs, lo)
			}
			for q := 0; q < 10; q++ {
				w := randomWeights(rng, d)
				const k = 12
				want, _, err := whole.TopK(w, k)
				if err != nil {
					t.Fatal(err)
				}
				sb := topk.NewBound()
				merged := topk.MustHeap(k)
				for pi, ix := range ixs {
					items, _, err := ix.Scan(w, k, ScanOpts{Bound: sb})
					if err != nil {
						t.Fatal(err)
					}
					for i := range items {
						items[i].ID += int64(offs[pi])
					}
					topk.MergeItems(merged, items)
				}
				got := merged.Results()
				if len(got) != len(want) {
					t.Fatalf("d=%d parts=%d q=%d: %d vs %d items", d, parts, q, len(got), len(want))
				}
				for i := range want {
					if got[i].ID != want[i].ID || got[i].Score != want[i].Score {
						t.Fatalf("d=%d parts=%d q=%d pos %d: %+v vs %+v",
							d, parts, q, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestTopKSharedBoundPrunesColdShard(t *testing.T) {
	// A floor raised above a shard's reachable scores must let its scan
	// stop before touching deep layers.
	pts, err := synth.GaussianTuples(29, 2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(pts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := []float64{1, 1, 1}
	_, cold, err := ix.Scan(w, 10, ScanOpts{Bound: nil})
	if err != nil {
		t.Fatal(err)
	}
	sb := topk.NewBound()
	sb.Raise(1e9) // unreachably high cross-shard floor
	items, hot, err := ix.Scan(w, 10, ScanOpts{Bound: sb})
	if err != nil {
		t.Fatal(err)
	}
	if hot.PointsTouched >= cold.PointsTouched {
		t.Fatalf("shared floor did not prune: %d vs %d points", hot.PointsTouched, cold.PointsTouched)
	}
	// Pruned-away items are below the floor by construction, so an
	// empty or truncated partial result is legitimate here.
	for _, it := range items {
		if it.Score >= 1e9 {
			t.Fatalf("impossible score %v", it.Score)
		}
	}
}

// TestSharedBoundScreensRows: a 128-row index (the size of a small live
// delta) scanned under a bound raised above most of its rows hands back
// exactly the rows at or above the bound. K leaves the heap room for
// every row, so only the row gate keeps the rest out; the row tied with
// the bound is kept, since it can still win the smaller-ID tie-break.
func TestSharedBoundScreensRows(t *testing.T) {
	pts, err := synth.GaussianTuples(37, 128, 3)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(pts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := []float64{0.7, -0.4, 1.1}
	const k = 128
	all, _, err := ScanTopK(pts, w, k)
	if err != nil {
		t.Fatal(err)
	}
	floor := all[9].Score
	sb := topk.NewBound()
	sb.Raise(floor)
	got, _, err := ix.Scan(w, k, ScanOpts{Bound: sb})
	if err != nil {
		t.Fatal(err)
	}
	var want []topk.Item
	for _, it := range all {
		if it.Score >= floor {
			want = append(want, it)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d items under the bound %v, want the %d at or above it: %+v", len(got), floor, len(want), got)
	}
	for i := range want {
		if got[i].ID != want[i].ID || got[i].Score != want[i].Score {
			t.Fatalf("pos %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}

// A context cancelled mid-scan (here: from the per-layer progressive
// hook) aborts the scan at the next layer boundary with ctx.Err().
func TestScanCancelMidLayers(t *testing.T) {
	pts, err := synth.GaussianTuples(31, 3000, 3)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(pts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumLayers() < 3 {
		t.Fatalf("fixture too shallow: %d layers", ix.NumLayers())
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	layers := 0
	_, st, err := ix.Scan([]float64{1, 1, 1}, len(pts), ScanOpts{
		Ctx: ctx,
		OnLayer: func(layer int, sofar []topk.Item) error {
			layers++
			cancel()
			return nil
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if layers != 1 || st.LayersScanned != 1 {
		t.Fatalf("scanned %d layers (%d hooks) after cancel", st.LayersScanned, layers)
	}
}

// A shared meter stops the scan once the point budget is spent; the
// partial heap is the exact top-K of the layers that were scanned.
func TestScanBudgetTruncates(t *testing.T) {
	pts, err := synth.GaussianTuples(32, 3000, 3)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(pts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := []float64{1, -0.5, 2}
	full, fullSt, err := ix.Scan(w, 10, ScanOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// A 1-unit budget admits exactly the first layer (the gate is
	// checked before a layer, the charge lands after it).
	meter := topk.NewMeter(1)
	part, partSt, err := ix.Scan(w, 10, ScanOpts{Meter: meter})
	if err != nil {
		t.Fatal(err)
	}
	if !meter.Exhausted() {
		t.Fatal("meter not exhausted")
	}
	if partSt.PointsTouched != ix.LayerSize(0) {
		t.Fatalf("budgeted scan touched %d points, want first layer (%d)",
			partSt.PointsTouched, ix.LayerSize(0))
	}
	if partSt.PointsTouched >= fullSt.PointsTouched {
		t.Fatalf("budget did not reduce work: %d vs %d", partSt.PointsTouched, fullSt.PointsTouched)
	}
	// The meter only counts work actually performed; the unscanned
	// remainder is attributed to the budget, not to screening.
	if got := int(meter.Used()); got != partSt.PointsTouched {
		t.Fatalf("meter charged %d for %d points scored", got, partSt.PointsTouched)
	}
	if partSt.PointsTouched+partSt.PointsSkippedByBudget != ix.store.NumRows() {
		t.Fatalf("touched %d + budget-skipped %d != %d points",
			partSt.PointsTouched, partSt.PointsSkippedByBudget, ix.store.NumRows())
	}
	if fullSt.PointsSkippedByBudget != 0 {
		t.Fatalf("unbudgeted scan reported %d budget skips", fullSt.PointsSkippedByBudget)
	}
	if len(part) == 0 {
		t.Fatal("budgeted scan returned nothing")
	}
	// The outermost layer holds the max for any positive weighting of
	// hull-peeled Gaussian data, so the budgeted top-1 is still exact.
	if part[0] != full[0] {
		t.Fatalf("budgeted top-1 %+v vs %+v", part[0], full[0])
	}
}
