package bayes

import (
	"math/rand"
	"testing"

	"modelir/internal/pyramid"
	"modelir/internal/raster"
)

// twoClassScene builds a scene whose left half is class 0 (low DN) and
// right half class 1 (high DN) across two bands, with mild noise, plus
// the ground-truth label map.
func twoClassScene(seed int64, w, h int) (*raster.Multiband, *raster.Grid) {
	rng := rand.New(rand.NewSource(seed))
	b1 := raster.MustGrid(w, h)
	b2 := raster.MustGrid(w, h)
	truth := raster.MustGrid(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x < w/2 {
				b1.Set(x, y, 50+rng.NormFloat64()*5)
				b2.Set(x, y, 60+rng.NormFloat64()*5)
			} else {
				b1.Set(x, y, 180+rng.NormFloat64()*5)
				b2.Set(x, y, 150+rng.NormFloat64()*5)
				truth.Set(x, y, 1)
			}
		}
	}
	mb, err := raster.Stack([]string{"a", "b"}, b1, b2)
	if err != nil {
		panic(err)
	}
	return mb, truth
}

func trainFromScene(t *testing.T, mb *raster.Multiband, truth *raster.Grid) *GNB {
	t.Helper()
	var xs [][]float64
	var labels []int
	for y := 0; y < mb.Height(); y += 4 {
		for x := 0; x < mb.Width(); x += 4 {
			xs = append(xs, mb.Pixel(x, y, nil))
			labels = append(labels, int(truth.At(x, y)))
		}
	}
	g, err := TrainGNB(2, xs, labels)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestTrainGNBValidation(t *testing.T) {
	if _, err := TrainGNB(1, nil, nil); err == nil {
		t.Fatal("want error for 1 class")
	}
	if _, err := TrainGNB(2, [][]float64{{1}}, []int{0, 1}); err == nil {
		t.Fatal("want error for label mismatch")
	}
	if _, err := TrainGNB(2, [][]float64{{1}, {2}}, []int{0, 5}); err == nil {
		t.Fatal("want error for label range")
	}
	if _, err := TrainGNB(2, [][]float64{{1}, {2}}, []int{0, 0}); err == nil {
		t.Fatal("want error for empty class")
	}
	if _, err := TrainGNB(2, [][]float64{{1}, {2, 3}}, []int{0, 1}); err == nil {
		t.Fatal("want error for ragged pixels")
	}
}

func TestGNBClassifiesSeparableData(t *testing.T) {
	mb, truth := twoClassScene(1, 64, 32)
	g := trainFromScene(t, mb, truth)
	if g.classes != 2 {
		t.Fatalf("classes=%d", g.classes)
	}
	labels, evals, err := g.ClassifyScene(mb)
	if err != nil {
		t.Fatal(err)
	}
	if evals != 64*32 {
		t.Fatalf("evals=%d want %d", evals, 64*32)
	}
	errors := 0
	for y := 0; y < 32; y++ {
		for x := 0; x < 64; x++ {
			if labels.At(x, y) != truth.At(x, y) {
				errors++
			}
		}
	}
	if errors > 10 {
		t.Fatalf("%d misclassifications on separable data", errors)
	}
}

func TestClassifyValidation(t *testing.T) {
	mb, truth := twoClassScene(2, 32, 16)
	g := trainFromScene(t, mb, truth)
	if _, _, err := g.Classify([]float64{1}); err == nil {
		t.Fatal("want dimension error")
	}
	bad, _ := raster.Stack([]string{"x"}, raster.MustGrid(4, 4))
	if _, _, err := g.ClassifyScene(bad); err == nil {
		t.Fatal("want band count error")
	}
}

func TestProgressiveAgreesAndSavesWork(t *testing.T) {
	mb, truth := twoClassScene(3, 128, 128)
	g := trainFromScene(t, mb, truth)

	flat, flatEvals, err := g.ClassifyScene(mb)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := pyramid.BuildMultiband(mb, 5)
	if err != nil {
		t.Fatal(err)
	}
	prog, st, err := g.ClassifyProgressiveOpts(mp, ProgressiveOptions{MarginThreshold: 50})
	if err != nil {
		t.Fatal(err)
	}
	// Work saved: progressive must use far fewer classifier calls.
	if st.TotalEvals()*3 > flatEvals {
		t.Fatalf("progressive evals %d vs flat %d: insufficient saving",
			st.TotalEvals(), flatEvals)
	}
	// Agreement: labels match flat except near the single class boundary;
	// allow the boundary columns to disagree.
	disagree := 0
	for y := 0; y < 128; y++ {
		for x := 0; x < 128; x++ {
			if prog.At(x, y) != flat.At(x, y) {
				disagree++
			}
		}
	}
	if disagree > 128*8 { // at most a few columns around the boundary
		t.Fatalf("progressive disagrees on %d pixels", disagree)
	}
	// All pixels resolved exactly once.
	resolved := 0
	for _, n := range st.PixelsResolved {
		resolved += n
	}
	if resolved != 128*128 {
		t.Fatalf("resolved %d pixels, want %d", resolved, 128*128)
	}
}

func TestProgressiveValidation(t *testing.T) {
	mb, truth := twoClassScene(4, 32, 32)
	g := trainFromScene(t, mb, truth)
	other, _ := raster.Stack([]string{"x"}, raster.MustGrid(8, 8))
	mp, err := pyramid.BuildMultiband(other, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.ClassifyProgressiveOpts(mp, ProgressiveOptions{MarginThreshold: 1}); err == nil {
		t.Fatal("want band count error")
	}
}

func TestProgressiveZeroThresholdResolvesCoarse(t *testing.T) {
	// With threshold 0 every block resolves at the coarsest level, so the
	// eval count equals the coarsest grid size.
	mb, truth := twoClassScene(5, 64, 64)
	g := trainFromScene(t, mb, truth)
	mp, err := pyramid.BuildMultiband(mb, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := g.ClassifyProgressiveOpts(mp, ProgressiveOptions{MarginThreshold: 0})
	if err != nil {
		t.Fatal(err)
	}
	coarse := mp.Band(0).Level(mp.NumLevels() - 1).Mean
	if st.TotalEvals() != coarse.Len() {
		t.Fatalf("evals %d want %d", st.TotalEvals(), coarse.Len())
	}
}
