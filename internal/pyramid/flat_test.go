package pyramid

import (
	"math"
	"math/rand"
	"testing"

	"modelir/internal/raster"
)

func randomMultiband(t *testing.T, seed int64, w, h, nb int) *raster.Multiband {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	grids := make([]*raster.Grid, nb)
	names := make([]string, nb)
	for b := range grids {
		g := raster.MustGrid(w, h)
		for i := range g.Data() {
			g.Data()[i] = rng.NormFloat64() * 50
		}
		grids[b] = g
		names[b] = string(rune('a' + b))
	}
	mb, err := raster.Stack(names, grids...)
	if err != nil {
		t.Fatal(err)
	}
	return mb
}

// sameGrid reports whether two grids have one shape and identical bits.
func sameGrid(a, b *raster.Grid) bool {
	if a.Width() != b.Width() || a.Height() != b.Height() {
		return false
	}
	for i, v := range a.Data() {
		if math.Float64bits(v) != math.Float64bits(b.Data()[i]) {
			return false
		}
	}
	return true
}

// TestFlatMatchesGrids: the flat planes hold, bit for bit, what Build's
// per-band Grid pyramid holds that the descent reads: the level-0 values
// and every coarser level's min/max envelope.
func TestFlatMatchesGrids(t *testing.T) {
	for _, dims := range [][2]int{{16, 16}, {13, 9}, {1, 7}} {
		mb := randomMultiband(t, int64(dims[0]*100+dims[1]), dims[0], dims[1], 3)
		mp, err := BuildMultiband(mb, 4)
		if err != nil {
			t.Fatal(err)
		}
		for b := 0; b < mp.NumBands(); b++ {
			p, err := Build(mb.Band(b), 4)
			if err != nil {
				t.Fatal(err)
			}
			if p.NumLevels() != mp.NumLevels() {
				t.Fatalf("%v: %d flat levels, Build made %d", dims, mp.NumLevels(), p.NumLevels())
			}
			for l := 0; l < mp.NumLevels(); l++ {
				fl, lvl := mp.Flat(l), p.Level(l)
				if fl.W != lvl.Mean.Width() || fl.H != lvl.Mean.Height() || fl.Scale != lvl.Scale {
					t.Fatalf("level %d shape: flat %dx%d scale %d vs grid %dx%d scale %d",
						l, fl.W, fl.H, fl.Scale, lvl.Mean.Width(), lvl.Mean.Height(), lvl.Scale)
				}
				for y := 0; y < fl.H; y++ {
					for x := 0; x < fl.W; x++ {
						lo, hi := fl.Bounds(x, y, b)
						if lo != lvl.Min.At(x, y) || hi != lvl.Max.At(x, y) {
							t.Fatalf("level %d band %d cell (%d,%d): flat (%v,%v) vs grid (%v,%v)",
								l, b, x, y, lo, hi, lvl.Min.At(x, y), lvl.Max.At(x, y))
						}
					}
				}
			}
		}
	}
}

// TestFlatEnvelopeAndMeans exercises the vector accessors the descent
// uses, including band bindings that reorder and repeat bands: the
// envelope at every level, lo = hi = the value at level 0, and the
// level-0 means.
func TestFlatEnvelopeAndMeans(t *testing.T) {
	mb := randomMultiband(t, 5, 8, 8, 4)
	mp, err := BuildMultiband(mb, 3)
	if err != nil {
		t.Fatal(err)
	}
	bind := []int{2, 0, 3, 2}
	lo := make([]float64, len(bind))
	hi := make([]float64, len(bind))
	xs := make([]float64, len(bind))
	for l := 0; l < mp.NumLevels(); l++ {
		fl := mp.Flat(l)
		for y := 0; y < fl.H; y++ {
			for x := 0; x < fl.W; x++ {
				fl.Envelope(x, y, bind, lo, hi)
				for i, b := range bind {
					p, _ := Build(mb.Band(b), 3)
					lvl := p.Level(l)
					if lo[i] != lvl.Min.At(x, y) || hi[i] != lvl.Max.At(x, y) {
						t.Fatalf("level %d cell (%d,%d) attr %d (band %d): envelope (%v,%v) vs grid (%v,%v)",
							l, x, y, i, b, lo[i], hi[i], lvl.Min.At(x, y), lvl.Max.At(x, y))
					}
				}
				if l > 0 {
					continue
				}
				fl.Means(x, y, bind, xs)
				for i, b := range bind {
					if v := mb.Band(b).At(x, y); xs[i] != v || lo[i] != v || hi[i] != v {
						t.Fatalf("cell (%d,%d) attr %d: mean %v envelope (%v,%v), want %v", x, y, i, xs[i], lo[i], hi[i], v)
					}
				}
			}
		}
	}
}

// TestMaterializedMatchesBuild: the Grid pyramids materialized from the
// flat planes — of a built pyramid and of one restored from copies of
// its planes — are bit-identical to Build's at every level, coarse
// means included, on odd sizes built to the apex. The last case mixes
// -0 and +0, which only the comparisons' order tells apart.
func TestMaterializedMatchesBuild(t *testing.T) {
	for _, dims := range [][3]int{{77, 45, 3}, {1, 9, 2}, {6, 1, 1}, {7, 5, 2}} {
		w, h, nb := dims[0], dims[1], dims[2]
		mb := randomMultiband(t, int64(w*h), w, h, nb)
		if dims == [3]int{7, 5, 2} {
			for b := 0; b < nb; b++ {
				for i := range mb.Band(b).Data() {
					mb.Band(b).Data()[i] = math.Copysign(0, float64((i+b)%2)-0.5)
				}
			}
		}
		apex := ApexLevels(w, h)
		built, err := BuildMultiband(mb, apex)
		if err != nil {
			t.Fatal(err)
		}
		levels := make([]FlatLevel, built.NumLevels())
		for l := range levels {
			fl := built.Flat(l)
			if levels[l], err = FlatFromVals(fl.W, fl.H, fl.Scale, fl.Bands, append([]float64(nil), fl.Vals()...)); err != nil {
				t.Fatal(err)
			}
		}
		restored, err := FromFlat(mb.BandNames(), levels)
		if err != nil {
			t.Fatal(err)
		}
		for b := 0; b < nb; b++ {
			want, err := Build(mb.Band(b), apex)
			if err != nil {
				t.Fatal(err)
			}
			if last := want.Level(want.NumLevels() - 1).Mean; last.Width() != 1 || last.Height() != 1 {
				t.Fatalf("%v: Build stopped at %dx%d", dims, last.Width(), last.Height())
			}
			for name, mp := range map[string]*MultibandPyramid{"built": built, "restored": restored} {
				got := mp.Band(b)
				if got.NumLevels() != want.NumLevels() {
					t.Fatalf("%v %s band %d: %d levels, want %d", dims, name, b, got.NumLevels(), want.NumLevels())
				}
				for l := 0; l < want.NumLevels(); l++ {
					g, x := got.Level(l), want.Level(l)
					if g.Scale != x.Scale || !sameGrid(g.Mean, x.Mean) || !sameGrid(g.Min, x.Min) || !sameGrid(g.Max, x.Max) {
						t.Fatalf("%v %s band %d level %d: materialized grids differ from Build's", dims, name, b, l)
					}
				}
				if !sameGrid(mp.BaseBand(b), mb.Band(b)) {
					t.Fatalf("%v %s band %d: BaseBand differs from the input band", dims, name, b)
				}
			}
		}
	}
}

// TestFromFlatRefusesBrokenChains: restored levels must form the chain
// BuildMultiband makes, and each plane must match its geometry.
func TestFromFlatRefusesBrokenChains(t *testing.T) {
	lvl := func(w, h, scale, bands int) FlatLevel {
		stride := 2
		if scale == 1 {
			stride = 1
		}
		fl, err := FlatFromVals(w, h, scale, bands, make([]float64, w*h*bands*stride))
		if err != nil {
			t.Fatal(err)
		}
		return fl
	}
	names := []string{"a", "b"}
	if _, err := FromFlat(names, []FlatLevel{lvl(5, 3, 1, 2), lvl(3, 2, 2, 2), lvl(2, 1, 4, 2), lvl(1, 1, 8, 2)}); err != nil {
		t.Fatalf("valid chain refused: %v", err)
	}
	for name, levels := range map[string][]FlatLevel{
		"level 0 coarse": {lvl(5, 3, 2, 2)},
		"wrong width":    {lvl(5, 3, 1, 2), lvl(2, 2, 2, 2)},
		"wrong scale":    {lvl(5, 3, 1, 2), lvl(3, 2, 4, 2)},
		"past the apex":  {lvl(1, 1, 1, 2), lvl(1, 1, 2, 2)},
		"band count":     {lvl(5, 3, 1, 3)},
	} {
		if _, err := FromFlat(names, levels); err == nil {
			t.Fatalf("%s: chain accepted", name)
		}
	}
	for _, c := range []struct{ w, h, scale, bands, n int }{
		{2, 2, 1, 1, 8}, {2, 2, 2, 1, 4}, {0, 2, 1, 1, 0}, {1 << 40, 1 << 40, 1, 1 << 40, 16},
	} {
		if _, err := FlatFromVals(c.w, c.h, c.scale, c.bands, make([]float64, c.n)); err == nil {
			t.Fatalf("%+v: plane accepted", c)
		}
	}
}
