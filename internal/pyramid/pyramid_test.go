package pyramid

import (
	"math/rand"
	"testing"
	"testing/quick"

	"modelir/internal/raster"
	"modelir/internal/synth"
)

func randomGrid(seed int64, w, h int) *raster.Grid {
	rng := rand.New(rand.NewSource(seed))
	g := raster.MustGrid(w, h)
	for i := range g.Data() {
		g.Data()[i] = rng.Float64() * 100
	}
	return g
}

func TestBuildLevels(t *testing.T) {
	g := randomGrid(1, 64, 32)
	p, err := Build(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumLevels() != 4 {
		t.Fatalf("levels=%d", p.NumLevels())
	}
	wantW := []int{64, 32, 16, 8}
	for i := 0; i < 4; i++ {
		if p.Level(i).Mean.Width() != wantW[i] {
			t.Fatalf("level %d width %d want %d", i, p.Level(i).Mean.Width(), wantW[i])
		}
		if p.Level(i).Scale != 1<<uint(i) {
			t.Fatalf("level %d scale %d", i, p.Level(i).Scale)
		}
	}
	if _, err := Build(g, 0); err == nil {
		t.Fatal("want error for zero levels")
	}
	if _, err := Build(nil, 2); err == nil {
		t.Fatal("want error for nil grid")
	}
}

func TestBuildStopsAt1x1(t *testing.T) {
	g := randomGrid(2, 4, 4)
	p, err := Build(g, 10)
	if err != nil {
		t.Fatal(err)
	}
	last := p.Level(p.NumLevels() - 1)
	if last.Mean.Width() != 1 || last.Mean.Height() != 1 {
		t.Fatalf("coarsest %dx%d", last.Mean.Width(), last.Mean.Height())
	}
	if p.NumLevels() != 3 {
		t.Fatalf("levels=%d want 3 (4->2->1)", p.NumLevels())
	}
}

// Soundness: every coarse cell's [Min,Max] envelope brackets every level-0
// sample it covers, at every level. This is the invariant that makes
// progressive pruning exact.
func TestEnvelopeSoundness(t *testing.T) {
	g := randomGrid(3, 37, 29) // deliberately non-dyadic
	p, err := Build(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	for lvl := 1; lvl < p.NumLevels(); lvl++ {
		L := p.Level(lvl)
		for cy := 0; cy < L.Mean.Height(); cy++ {
			for cx := 0; cx < L.Mean.Width(); cx++ {
				r := p.CellRect(lvl, cx, cy)
				lo, hi := g.SubMinMax(r)
				if L.Min.At(cx, cy) > lo+1e-12 {
					t.Fatalf("lvl %d cell (%d,%d): envelope min %v > actual %v",
						lvl, cx, cy, L.Min.At(cx, cy), lo)
				}
				if L.Max.At(cx, cy) < hi-1e-12 {
					t.Fatalf("lvl %d cell (%d,%d): envelope max %v < actual %v",
						lvl, cx, cy, L.Max.At(cx, cy), hi)
				}
			}
		}
	}
}

func TestEnvelopeSoundnessProperty(t *testing.T) {
	f := func(seed int64) bool {
		w := 8 + int(uint(seed)%23)
		h := 8 + int(uint(seed/7)%17)
		g := randomGrid(seed, w, h)
		p, err := Build(g, 4)
		if err != nil {
			return false
		}
		for lvl := 1; lvl < p.NumLevels(); lvl++ {
			L := p.Level(lvl)
			for cy := 0; cy < L.Mean.Height(); cy++ {
				for cx := 0; cx < L.Mean.Width(); cx++ {
					r := p.CellRect(lvl, cx, cy)
					lo, hi := g.SubMinMax(r)
					if L.Min.At(cx, cy) > lo+1e-12 || L.Max.At(cx, cy) < hi-1e-12 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildMultiband(t *testing.T) {
	sc, err := synth.LandsatScene(synth.SceneConfig{Seed: 20, W: 64, H: 64})
	if err != nil {
		t.Fatal(err)
	}
	mp, err := BuildMultiband(sc.Bands, 4)
	if err != nil {
		t.Fatal(err)
	}
	if mp.NumBands() != 4 || mp.NumLevels() != 4 {
		t.Fatalf("bands=%d levels=%d", mp.NumBands(), mp.NumLevels())
	}
	if len(mp.names) != 4 {
		t.Fatal("band names lost")
	}
	if _, err := BuildMultiband(nil, 2); err == nil {
		t.Fatal("want error for nil multiband")
	}
}
