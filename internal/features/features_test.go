package features

import (
	"math"
	"math/rand"
	"testing"

	"modelir/internal/pyramid"
	"modelir/internal/raster"
)

func uniformGrid(seed int64, w, h int, lo, hi float64) *raster.Grid {
	rng := rand.New(rand.NewSource(seed))
	g := raster.MustGrid(w, h)
	for i := range g.Data() {
		g.Data()[i] = lo + rng.Float64()*(hi-lo)
	}
	return g
}

// checkerboard returns a high-contrast periodic texture.
func checkerboard(w, h, period int) *raster.Grid {
	g := raster.MustGrid(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if ((x/period)+(y/period))%2 == 0 {
				g.Set(x, y, 200)
			} else {
				g.Set(x, y, 50)
			}
		}
	}
	return g
}

func TestHistogramBasics(t *testing.T) {
	g, _ := raster.FromData(2, 2, []float64{0, 0, 10, 10})
	h, err := NewHistogram(g, g.Bounds(), 2, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if h.Bins[0] != 0.5 || h.Bins[1] != 0.5 {
		t.Fatalf("bins=%v", h.Bins)
	}
	if _, err := NewHistogram(g, g.Bounds(), 1, 0, 10); err == nil {
		t.Fatal("want error for 1 bin")
	}
	if _, err := NewHistogram(g, g.Bounds(), 4, 5, 5); err == nil {
		t.Fatal("want error for empty range")
	}
}

func TestHistogramClamping(t *testing.T) {
	g, _ := raster.FromData(2, 1, []float64{-100, 1000})
	h, err := NewHistogram(g, g.Bounds(), 4, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if h.Bins[0] != 0.5 || h.Bins[3] != 0.5 {
		t.Fatalf("clamping failed: %v", h.Bins)
	}
}

func TestHistogramDistances(t *testing.T) {
	g1 := uniformGrid(1, 16, 16, 0, 50)
	g2 := uniformGrid(2, 16, 16, 50, 100)
	h1, _ := NewHistogram(g1, g1.Bounds(), 8, 0, 100)
	h2, _ := NewHistogram(g2, g2.Bounds(), 8, 0, 100)
	d, err := h1.L1Distance(h2)
	if err != nil {
		t.Fatal(err)
	}
	if d < 1.9 { // disjoint supports -> L1 == 2
		t.Fatalf("disjoint histograms distance %v, want ~2", d)
	}
	same, _ := h1.L1Distance(h1)
	if same != 0 {
		t.Fatalf("self distance %v", same)
	}
	hBad := Histogram{Lo: 0, Hi: 1, Bins: make([]float64, 3)}
	if _, err := h1.L1Distance(hBad); err == nil {
		t.Fatal("want binning mismatch error")
	}
}

func TestGLCMSeparatesTextures(t *testing.T) {
	smooth := raster.MustGrid(32, 32)
	for i := range smooth.Data() {
		smooth.Data()[i] = 100
	}
	rough := checkerboard(32, 32, 1)

	ts, err := GLCM(smooth, smooth.Bounds(), 8, 0, 255)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := GLCM(rough, rough.Bounds(), 8, 0, 255)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Energy != 1 || ts.Contrast != 0 {
		t.Fatalf("flat texture: %+v", ts)
	}
	if tr.Contrast <= ts.Contrast {
		t.Fatal("checkerboard must have higher contrast than flat")
	}
	if tr.Entropy <= ts.Entropy {
		t.Fatal("checkerboard must have higher entropy than flat")
	}
	if ts.Distance(tr) == 0 {
		t.Fatal("distinct textures at zero distance")
	}
	if ts.Distance(ts) != 0 {
		t.Fatal("self distance nonzero")
	}
}

func TestGLCMValidation(t *testing.T) {
	g := raster.MustGrid(4, 4)
	if _, err := GLCM(g, g.Bounds(), 1, 0, 1); err == nil {
		t.Fatal("want error for 1 level")
	}
	if _, err := GLCM(g, raster.Rect{X0: 0, Y0: 0, X1: 1, Y1: 1}, 4, 0, 1); err == nil {
		t.Fatal("want error for 1x1 region")
	}
	if _, err := GLCM(g, g.Bounds(), 4, 2, 2); err == nil {
		t.Fatal("want error for empty range")
	}
}

func TestComputeBandStats(t *testing.T) {
	g, _ := raster.FromData(2, 2, []float64{1, 2, 3, 4})
	s := ComputeBandStats(g, g.Bounds())
	if s.Mean != 2.5 || s.Min != 1 || s.Max != 4 {
		t.Fatalf("stats=%+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(1.25)) > 1e-12 {
		t.Fatalf("std=%v", s.Std)
	}
	empty := ComputeBandStats(g, raster.Rect{X0: 9, Y0: 9, X1: 10, Y1: 10})
	if empty != (BandStats{}) {
		t.Fatalf("empty region stats %+v", empty)
	}
}

func TestMomentsCentroid(t *testing.T) {
	g := raster.MustGrid(11, 11)
	g.Set(3, 7, 5) // single point mass
	m := ComputeMoments(g, g.Bounds())
	if m.Mass != 5 || m.Cx != 3 || m.Cy != 7 {
		t.Fatalf("moments %+v", m)
	}
	if m.Mxx != 0 || m.Myy != 0 {
		t.Fatal("point mass must have zero second moments")
	}
	// Two equal masses: centroid midway, spread along x only.
	g2 := raster.MustGrid(11, 11)
	g2.Set(2, 5, 1)
	g2.Set(8, 5, 1)
	m2 := ComputeMoments(g2, g2.Bounds())
	if m2.Cx != 5 || m2.Cy != 5 {
		t.Fatalf("centroid (%v,%v)", m2.Cx, m2.Cy)
	}
	if m2.Mxx != 9 || m2.Myy != 0 {
		t.Fatalf("second moments %+v", m2)
	}
}

func TestMomentsZeroMass(t *testing.T) {
	g := raster.MustGrid(4, 4)
	m := ComputeMoments(g, g.Bounds())
	if m.Mass != 0 || m.Cx != 0 {
		t.Fatalf("zero-mass moments %+v", m)
	}
}

func TestContour(t *testing.T) {
	// Step function: left half 0, right half 10 -> contour along x=15/16.
	g := raster.MustGrid(32, 8)
	for y := 0; y < 8; y++ {
		for x := 16; x < 32; x++ {
			g.Set(x, y, 10)
		}
	}
	cells := Contour(g, 5)
	if len(cells) != 8 {
		t.Fatalf("contour cells=%d want 8 (one per row)", len(cells))
	}
	for _, c := range cells {
		if c.X != 15 {
			t.Fatalf("contour at x=%d, want 15", c.X)
		}
	}
	if got := Contour(g, 100); len(got) != 0 {
		t.Fatalf("no crossing expected, got %d cells", len(got))
	}
}

func TestProgressiveMatchFindsPlantedTexture(t *testing.T) {
	// Scene: mostly smooth noise, one checkerboard tile planted. Period 4
	// so the texture's bimodal histogram survives the 4x downsampling used
	// by the coarse prefilter stage.
	w, h, tile := 128, 128, 16
	g := uniformGrid(7, w, h, 90, 110)
	cb := checkerboard(tile, tile, 4)
	for y := 0; y < tile; y++ {
		for x := 0; x < tile; x++ {
			g.Set(64+x, 48+y, cb.At(x, y))
		}
	}
	tiles := g.Tiles(tile)
	target := raster.Rect{X0: 64, Y0: 48, X1: 64 + tile, Y1: 48 + tile}

	p, err := pyramid.Build(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	const coarseLevel = 2
	coarse := p.Level(coarseLevel)
	coarseTarget := raster.Rect{
		X0: target.X0 / coarse.Scale, Y0: target.Y0 / coarse.Scale,
		X1: target.X1 / coarse.Scale, Y1: target.Y1 / coarse.Scale,
	}

	q := TextureQuery{Bins: 8, Levels: 8, Lo: 0, Hi: 255, PrefilterKeep: 0.2}
	q.TargetHist, err = NewHistogram(coarse.Mean, coarseTarget, q.Bins, q.Lo, q.Hi)
	if err != nil {
		t.Fatal(err)
	}
	q.TargetTexture, err = GLCM(g, target, q.Levels, q.Lo, q.Hi)
	if err != nil {
		t.Fatal(err)
	}

	flat, flatStats, err := MatchFlat(g, tiles, q)
	if err != nil {
		t.Fatal(err)
	}
	if flat[0].Tile != target {
		t.Fatalf("flat match top tile %+v, want %+v", flat[0].Tile, target)
	}
	if flatStats.FullGLCMs != len(tiles) {
		t.Fatalf("flat GLCM count %d", flatStats.FullGLCMs)
	}

	prog, progStats, err := MatchProgressive(p, tiles, q, coarseLevel)
	if err != nil {
		t.Fatal(err)
	}
	if prog[0].Tile != target {
		t.Fatalf("progressive match top tile %+v, want %+v", prog[0].Tile, target)
	}
	if progStats.FullGLCMs >= flatStats.FullGLCMs {
		t.Fatalf("progressive did %d GLCMs, flat %d: no pruning",
			progStats.FullGLCMs, flatStats.FullGLCMs)
	}
}

func TestMatchProgressiveValidation(t *testing.T) {
	g := uniformGrid(1, 32, 32, 0, 255)
	p, _ := pyramid.Build(g, 2)
	tiles := g.Tiles(8)
	q := TextureQuery{Bins: 4, Levels: 4, Lo: 0, Hi: 255}
	q.TargetHist, _ = NewHistogram(g, tiles[0], 4, 0, 255)
	q.TargetTexture, _ = GLCM(g, tiles[0], 4, 0, 255)
	if _, _, err := MatchProgressive(p, tiles, q, 5); err == nil {
		t.Fatal("want error for out-of-range level")
	}
	bad := q
	bad.PrefilterKeep = 1.5
	if _, _, err := MatchProgressive(p, tiles, bad, 1); err == nil {
		t.Fatal("want error for bad PrefilterKeep")
	}
	badQ := q
	badQ.Bins = 0
	if _, _, err := MatchFlat(g, tiles, badQ); err == nil {
		t.Fatal("want error for bad query")
	}
}
