package progressive

import (
	"context"
	"errors"
	"math"
	"testing"

	"modelir/internal/linear"
	"modelir/internal/pyramid"
	"modelir/internal/synth"
	"modelir/internal/topk"
)

func hpsSetup(t *testing.T, seed int64, w, h int) (*linear.ProgressiveModel, *pyramid.MultibandPyramid) {
	t.Helper()
	sc, err := synth.LandsatScene(synth.SceneConfig{Seed: seed, W: w, H: h})
	if err != nil {
		t.Fatal(err)
	}
	mp, err := pyramid.BuildMultiband(sc.Bands, 5)
	if err != nil {
		t.Fatal(err)
	}
	m := linear.HPSRisk()
	pm, err := linear.Decompose(m,
		[]float64{0, 0, 0, 0}, []float64{255, 255, 255, 1500}, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	return pm, mp
}

func TestBind(t *testing.T) {
	pm, mp := hpsSetup(t, 1, 32, 32)
	b, err := Bind(pm.Full(), mp)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Bands) != 4 {
		t.Fatalf("binding %v", b)
	}
	bad, _ := linear.New([]string{"nonexistent"}, []float64{1}, 0)
	if _, err := Bind(bad, mp); err == nil {
		t.Fatal("want missing band error")
	}
}

func TestAllStrategiesAgree(t *testing.T) {
	for _, seed := range []int64{2, 7, 19} {
		pm, mp := hpsSetup(t, seed, 96, 96)
		for _, k := range []int{1, 10, 50} {
			sp, items, err := Compare(pm, mp, k)
			if err != nil {
				t.Fatalf("seed %d k %d: %v", seed, k, err)
			}
			if len(items) != k {
				t.Fatalf("got %d items want %d", len(items), k)
			}
			if sp.FlatWork <= 0 {
				t.Fatal("flat work not measured")
			}
		}
	}
}

func TestResultsMatchBruteForce(t *testing.T) {
	pm, mp := hpsSetup(t, 3, 64, 64)
	m := pm.Full()
	// Brute-force reference over raw pixels.
	base := mp.Band(0).Level(0)
	type scored struct {
		id int64
		s  float64
	}
	var best scored
	best.s = math.Inf(-1)
	x := make([]float64, 4)
	bind, _ := Bind(m, mp)
	for y := 0; y < base.Mean.Height(); y++ {
		for xx := 0; xx < base.Mean.Width(); xx++ {
			for i, b := range bind.Bands {
				x[i] = mp.Band(b).Level(0).Mean.At(xx, y)
			}
			s := m.EvalUnchecked(x)
			if s > best.s {
				best = scored{id: int64(y*base.Mean.Width() + xx), s: s}
			}
		}
	}
	res, err := Combined(pm, mp, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Items[0].ID != best.id {
		t.Fatalf("combined top-1 %d want %d", res.Items[0].ID, best.id)
	}
	if math.Abs(res.Items[0].Score-best.s) > 1e-12 {
		t.Fatalf("score %v want %v", res.Items[0].Score, best.s)
	}
}

func TestSpeedupStructure(t *testing.T) {
	pm, mp := hpsSetup(t, 5, 128, 128)
	sp, _, err := Compare(pm, mp, 10)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Pm() <= 1 {
		t.Fatalf("progressive model speedup %v <= 1", sp.Pm())
	}
	if sp.Pd() <= 1 {
		t.Fatalf("progressive data speedup %v <= 1", sp.Pd())
	}
	if sp.PmPd() <= sp.Pm() && sp.PmPd() <= sp.Pd() {
		t.Fatalf("combined %v not above max(pm=%v, pd=%v)", sp.PmPd(), sp.Pm(), sp.Pd())
	}
}

func TestProgDataPrunesCells(t *testing.T) {
	pm, mp := hpsSetup(t, 8, 128, 128)
	flat, err := Flat(pm.Full(), mp, 5)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ProgData(pm.Full(), mp, 5)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Stats.PixelsVisited*2 > flat.Stats.PixelsVisited {
		t.Fatalf("prog-data visited %d of %d pixels: no pruning",
			prog.Stats.PixelsVisited, flat.Stats.PixelsVisited)
	}
}

func TestValidation(t *testing.T) {
	pm, mp := hpsSetup(t, 9, 32, 32)
	if _, err := Flat(pm.Full(), mp, 0); err == nil {
		t.Fatal("want k error")
	}
	if _, err := ProgModel(pm, mp, 0); err == nil {
		t.Fatal("want k error")
	}
	if _, err := ProgData(pm.Full(), mp, 0); err == nil {
		t.Fatal("want k error")
	}
}

func TestRiskSurface(t *testing.T) {
	pm, mp := hpsSetup(t, 11, 48, 48)
	surf, err := RiskSurface(pm.Full(), mp)
	if err != nil {
		t.Fatal(err)
	}
	if surf.Width() != 48 || surf.Height() != 48 {
		t.Fatalf("surface dims %dx%d", surf.Width(), surf.Height())
	}
	// Spot check against direct evaluation.
	bind, _ := Bind(pm.Full(), mp)
	x := make([]float64, 4)
	for i, b := range bind.Bands {
		x[i] = mp.Band(b).Level(0).Mean.At(7, 13)
	}
	want := pm.Full().EvalUnchecked(x)
	if math.Abs(surf.At(7, 13)-want) > 1e-12 {
		t.Fatalf("surface value %v want %v", surf.At(7, 13), want)
	}
	bad, _ := linear.New([]string{"zzz"}, []float64{1}, 0)
	if _, err := RiskSurface(bad, mp); err == nil {
		t.Fatal("want bind error")
	}
}

// The flat surface's top-K must match Flat retrieval — ties included.
func TestFlatConsistentWithSurface(t *testing.T) {
	pm, mp := hpsSetup(t, 13, 64, 48)
	res, err := Flat(pm.Full(), mp, 20)
	if err != nil {
		t.Fatal(err)
	}
	surf, err := RiskSurface(pm.Full(), mp)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range res.Items {
		x, y := int(it.ID)%64, int(it.ID)/64
		if math.Abs(surf.At(x, y)-it.Score) > 1e-12 {
			t.Fatalf("item %d score %v surface %v", it.ID, it.Score, surf.At(x, y))
		}
	}
}

// combinedOpts runs CombinedInto over the whole scene into a fresh
// K-heap: Combined with the descent options exposed.
func combinedOpts(pm *linear.ProgressiveModel, mp *pyramid.MultibandPyramid, k int, opt DescendOpts) (Result, error) {
	h := topk.MustHeap(k)
	st, err := CombinedInto(pm, mp, h, opt)
	return Result{Items: h.Results(), Stats: st}, err
}

// A context cancelled mid-descent (here: from the first OnLevel event)
// aborts the branch-and-bound loop with ctx.Err().
func TestDescendCancelMidLevels(t *testing.T) {
	pm, mp := hpsSetup(t, 9, 64, 64)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	events := 0
	_, err := combinedOpts(pm, mp, 5, DescendOpts{
		Ctx: ctx,
		OnLevel: func(level int, sofar []topk.Item) error {
			events++
			cancel()
			return nil
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if events != 1 {
		t.Fatalf("%d level events after cancel", events)
	}
}

// OnLevel streams the earliest result, the heap fill, and each drained
// pyramid level, with levels never coarsening.
func TestDescendOnLevelMonotone(t *testing.T) {
	pm, mp := hpsSetup(t, 9, 64, 64)
	want, err := Combined(pm, mp, 5)
	if err != nil {
		t.Fatal(err)
	}
	var levels []int
	res, err := combinedOpts(pm, mp, 5, DescendOpts{
		OnLevel: func(level int, sofar []topk.Item) error {
			levels = append(levels, level)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) < 2 {
		t.Fatalf("only %d level events", len(levels))
	}
	for i := 1; i < len(levels); i++ {
		if levels[i] > levels[i-1] {
			t.Fatalf("levels coarsened: %v", levels)
		}
	}
	if len(res.Items) != len(want.Items) {
		t.Fatalf("hooked descent changed results: %d vs %d", len(res.Items), len(want.Items))
	}
	for i := range want.Items {
		if res.Items[i] != want.Items[i] {
			t.Fatalf("hooked descent diverged at %d", i)
		}
	}
}

// A meter budget truncates the descent without error.
func TestDescendBudgetTruncates(t *testing.T) {
	pm, mp := hpsSetup(t, 9, 64, 64)
	full, err := Combined(pm, mp, 5)
	if err != nil {
		t.Fatal(err)
	}
	meter := topk.NewMeter(pm.Full().NumTerms() * 8)
	part, err := combinedOpts(pm, mp, 5, DescendOpts{Meter: meter})
	if err != nil {
		t.Fatal(err)
	}
	if !meter.Exhausted() {
		t.Fatal("meter not exhausted")
	}
	if part.Stats.Work() >= full.Stats.Work() {
		t.Fatalf("budget did not reduce work: %d vs %d", part.Stats.Work(), full.Stats.Work())
	}
}
