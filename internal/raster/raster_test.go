package raster

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewGridValidation(t *testing.T) {
	cases := []struct{ w, h int }{{0, 1}, {1, 0}, {-3, 4}, {4, -1}}
	for _, c := range cases {
		if _, err := NewGrid(c.w, c.h); err == nil {
			t.Errorf("NewGrid(%d,%d): want error", c.w, c.h)
		}
	}
	g, err := NewGrid(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.Width() != 3 || g.Height() != 2 || g.Len() != 6 {
		t.Fatalf("dims wrong: %dx%d len %d", g.Width(), g.Height(), g.Len())
	}
}

func TestFromData(t *testing.T) {
	if _, err := FromData(2, 2, []float64{1, 2, 3}); err == nil {
		t.Fatal("want length mismatch error")
	}
	g, err := FromData(2, 2, []float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if g.At(0, 0) != 1 || g.At(1, 0) != 2 || g.At(0, 1) != 3 || g.At(1, 1) != 4 {
		t.Fatal("row-major layout broken")
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	g := MustGrid(4, 3)
	g.Set(2, 1, 7.5)
	if got := g.At(2, 1); got != 7.5 {
		t.Fatalf("At=%v want 7.5", got)
	}
	if g.Row(1)[2] != 7.5 {
		t.Fatal("Row does not alias storage")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := MustGrid(2, 2)
	g.Set(0, 0, 1)
	c := g.Clone()
	c.Set(0, 0, 99)
	if g.At(0, 0) != 1 {
		t.Fatal("clone shares storage")
	}
}

func TestStatsAndMinMax(t *testing.T) {
	g, _ := FromData(2, 2, []float64{1, 2, 3, 4})
	lo, hi := g.MinMax()
	if lo != 1 || hi != 4 {
		t.Fatalf("minmax=(%v,%v)", lo, hi)
	}
	if m := g.Mean(); m != 2.5 {
		t.Fatalf("mean=%v", m)
	}
	mean, std := g.Stats()
	if mean != 2.5 || math.Abs(std-math.Sqrt(1.25)) > 1e-12 {
		t.Fatalf("stats=(%v,%v)", mean, std)
	}
}

func TestRectOps(t *testing.T) {
	r := Rect{1, 1, 4, 3}
	if r.W() != 3 || r.H() != 2 || r.Area() != 6 {
		t.Fatalf("rect dims wrong: %+v", r)
	}
	o := r.Intersect(Rect{3, 0, 10, 10})
	if o != (Rect{3, 1, 4, 3}) {
		t.Fatalf("intersect=%+v", o)
	}
	if !r.Intersect(Rect{5, 5, 6, 6}).Empty() {
		t.Fatal("disjoint intersect should be empty")
	}
}

func TestSubMeanAndSubMinMax(t *testing.T) {
	g, _ := FromData(3, 3, []float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	})
	if m := g.SubMean(Rect{0, 0, 2, 2}); m != 3 {
		t.Fatalf("submean=%v want 3", m)
	}
	// Clipping: rect exceeding bounds
	if m := g.SubMean(Rect{2, 2, 10, 10}); m != 9 {
		t.Fatalf("clipped submean=%v want 9", m)
	}
	lo, hi := g.SubMinMax(Rect{1, 1, 3, 3})
	if lo != 5 || hi != 9 {
		t.Fatalf("subminmax=(%v,%v)", lo, hi)
	}
}

func TestTilesCoverExactly(t *testing.T) {
	g := MustGrid(10, 7)
	tiles := g.Tiles(4)
	if len(tiles) != 3*2 {
		t.Fatalf("tile count=%d want 6", len(tiles))
	}
	covered := MustGrid(10, 7)
	for _, r := range tiles {
		for y := r.Y0; y < r.Y1; y++ {
			for x := r.X0; x < r.X1; x++ {
				covered.Set(x, y, covered.At(x, y)+1)
			}
		}
	}
	for y := 0; y < 7; y++ {
		for x := 0; x < 10; x++ {
			if covered.At(x, y) != 1 {
				t.Fatalf("cell (%d,%d) covered %v times", x, y, covered.At(x, y))
			}
		}
	}
}

func TestDownsample2MeanPreserved(t *testing.T) {
	g, _ := FromData(4, 2, []float64{
		0, 2, 4, 6,
		2, 4, 6, 8,
	})
	d := g.Downsample2()
	if d.Width() != 2 || d.Height() != 1 {
		t.Fatalf("downsampled dims %dx%d", d.Width(), d.Height())
	}
	if d.At(0, 0) != 2 || d.At(1, 0) != 6 {
		t.Fatalf("downsample values %v %v", d.At(0, 0), d.At(1, 0))
	}
}

func TestDownsample2OddDims(t *testing.T) {
	g, _ := FromData(3, 3, []float64{
		1, 1, 4,
		1, 1, 4,
		8, 8, 2,
	})
	d := g.Downsample2()
	if d.Width() != 2 || d.Height() != 2 {
		t.Fatalf("dims %dx%d", d.Width(), d.Height())
	}
	if d.At(0, 0) != 1 || d.At(1, 0) != 4 || d.At(0, 1) != 8 || d.At(1, 1) != 2 {
		t.Fatalf("odd-dim downsample wrong: %v", d.Data())
	}
}

// Property: downsampling preserves the global mean for even dimensions
// (each 2x2 block contributes equally).
func TestDownsampleMeanProperty(t *testing.T) {
	f := func(seed int64) bool {
		w, h := 8, 6
		g := MustGrid(w, h)
		s := seed
		for i := range g.Data() {
			s = s*6364136223846793005 + 1442695040888963407
			g.Data()[i] = float64(s%1000) / 10
		}
		d := g.Downsample2()
		return math.Abs(g.Mean()-d.Mean()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMultiband(t *testing.T) {
	m, err := Stack([]string{"b4", "b5", "b7"}, MustGrid(3, 2), MustGrid(3, 2), MustGrid(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if m.NumBands() != 3 {
		t.Fatalf("bands=%d", m.NumBands())
	}
	m.Band(1).Set(2, 1, 42)
	b, ok := m.BandByName("b5")
	if !ok || b.At(2, 1) != 42 {
		t.Fatal("BandByName broken")
	}
	if _, ok := m.BandByName("missing"); ok {
		t.Fatal("missing band reported present")
	}
	px := m.Pixel(2, 1, nil)
	if len(px) != 3 || px[1] != 42 {
		t.Fatalf("pixel=%v", px)
	}
}

func TestStackValidation(t *testing.T) {
	a := MustGrid(2, 2)
	b := MustGrid(3, 2)
	if _, err := Stack([]string{"a", "b"}, a, b); err == nil {
		t.Fatal("want shape mismatch error")
	}
	if _, err := Stack([]string{"a"}, a, a); err == nil {
		t.Fatal("want name count error")
	}
	if _, err := Stack(nil); err == nil {
		t.Fatal("want empty stack error")
	}
}

func TestApply(t *testing.T) {
	g, err := FromData(2, 2, []float64{2, 2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	g.Apply(func(v float64) float64 { return v * v })
	for _, v := range g.Data() {
		if v != 4 {
			t.Fatalf("apply result %v", v)
		}
	}
}

func TestEqual(t *testing.T) {
	a, _ := FromData(2, 1, []float64{1, 2})
	b, _ := FromData(2, 1, []float64{1, 2})
	c, _ := FromData(1, 2, []float64{1, 2})
	d, _ := FromData(2, 1, []float64{1, 3})
	if !a.Equal(b) {
		t.Fatal("equal grids reported unequal")
	}
	if a.Equal(c) || a.Equal(d) {
		t.Fatal("unequal grids reported equal")
	}
}
