package archive

import (
	"bytes"
	"encoding/gob"
	"math"
	"path/filepath"
	"testing"

	"modelir/internal/raster"
	"modelir/internal/synth"
)

func testScene(t *testing.T) *Scene {
	t.Helper()
	sc, err := synth.LandsatScene(synth.SceneConfig{Seed: 5, W: 96, H: 64})
	if err != nil {
		t.Fatal(err)
	}
	a, err := BuildScene("test-scene", sc.Bands, Options{TileSize: 16, PyramidLevels: 3})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestBuildSceneValidation(t *testing.T) {
	if _, err := BuildScene("x", nil, Options{}); err == nil {
		t.Fatal("want nil scene error")
	}
	mb, _ := raster.Stack([]string{"a"}, raster.MustGrid(8, 8))
	if _, err := BuildScene("x", mb, Options{TileSize: 1}); err == nil {
		t.Fatal("want tile size error")
	}
	if _, err := BuildScene("x", mb, Options{PyramidLevels: -1}); err == nil {
		t.Fatal("want pyramid level error")
	}
	if _, err := BuildScene("x", mb, Options{HistogramBins: 1}); err == nil {
		t.Fatal("want histogram bins error")
	}
}

func TestSceneStructure(t *testing.T) {
	a := testScene(t)
	if a.W != 96 || a.H != 64 || a.NumBands() != 4 {
		t.Fatalf("dims %dx%d bands %d", a.W, a.H, a.NumBands())
	}
	if len(a.Tiles) != 6*4 {
		t.Fatalf("tiles=%d want 24", len(a.Tiles))
	}
	if a.Pyramid().NumLevels() != 3 {
		t.Fatalf("levels=%d", a.Pyramid().NumLevels())
	}
	if _, ok := a.BandIndex("b4"); !ok {
		t.Fatal("b4 missing")
	}
	if _, ok := a.BandIndex("nope"); ok {
		t.Fatal("phantom band")
	}
	f, err := a.Feature(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f.Stats.Max < f.Stats.Min {
		t.Fatal("tile stats corrupt")
	}
	if _, err := a.Feature(99, 0); err == nil {
		t.Fatal("want band range error")
	}
	if _, err := a.Feature(0, 999); err == nil {
		t.Fatal("want tile range error")
	}
}

func TestTileFeaturesConsistent(t *testing.T) {
	a := testScene(t)
	// Tile stats must agree with direct computation over the base band.
	g := a.Base().Band(0)
	for ti, tile := range a.Tiles {
		want := g.SubMean(tile)
		got := a.TileFeatures[0][ti].Stats.Mean
		if math.Abs(want-got) > 1e-9 {
			t.Fatalf("tile %d mean %v want %v", ti, got, want)
		}
		// Histogram is normalized.
		sum := 0.0
		for _, b := range a.TileFeatures[0][ti].Hist.Bins {
			sum += b
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("tile %d histogram sums to %v", ti, sum)
		}
	}
}

func TestRoundTripSerialization(t *testing.T) {
	a := testScene(t)
	labels := make([]int, len(a.Tiles))
	for i := range labels {
		labels[i] = i % 3
	}
	a.TileLabels = labels
	var buf bytes.Buffer
	if err := a.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := ReadScene(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if b.Name != a.Name || b.W != a.W || b.H != a.H {
		t.Fatal("metadata lost")
	}
	if len(b.Tiles) != len(a.Tiles) || len(b.TileLabels) != len(a.TileLabels) {
		t.Fatal("tiles/labels lost")
	}
	for bi := 0; bi < a.NumBands(); bi++ {
		if !a.Base().Band(bi).Equal(b.Base().Band(bi)) {
			t.Fatalf("band %d data corrupted", bi)
		}
		for ti := range a.Tiles {
			af := a.TileFeatures[bi][ti]
			bf := b.TileFeatures[bi][ti]
			if af.Stats != bf.Stats {
				t.Fatalf("band %d tile %d stats corrupted", bi, ti)
			}
		}
	}
	if b.Pyramid().NumLevels() != a.Pyramid().NumLevels() {
		t.Fatal("pyramid not rebuilt")
	}
}

func TestCorruptStream(t *testing.T) {
	if _, err := ReadScene(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Fatal("want decode error")
	}
}

func TestSaveLoad(t *testing.T) {
	a := testScene(t)
	path := filepath.Join(t.TempDir(), "scene.gob")
	if err := a.Save(path); err != nil {
		t.Fatal(err)
	}
	b, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Name != a.Name {
		t.Fatal("round trip via file failed")
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.gob")); err == nil {
		t.Fatal("want open error")
	}
}

// TestEncodeFromPyramidMatchesInputBands: a built scene keeps no copy of
// the multiband it was built from, so Encode writes the bands back out
// of the pyramid's level-0 plane. The bytes must be the ones an encoder
// reading the input bands writes, for an odd-sized scene with ±0 and
// negative values too.
func TestEncodeFromPyramidMatchesInputBands(t *testing.T) {
	sc, err := synth.LandsatScene(synth.SceneConfig{Seed: 9, W: 77, H: 45})
	if err != nil {
		t.Fatal(err)
	}
	in := sc.Bands
	d := in.Band(1).Data()
	d[0], d[1], d[2] = math.Copysign(0, -1), -3.5, math.SmallestNonzeroFloat64
	a, err := BuildScene("odd", in, Options{TileSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	a.TileLabels = []int{4, 1}

	var got bytes.Buffer
	if err := a.Encode(&got); err != nil {
		t.Fatal(err)
	}
	wire := a.metaWire()
	for b := 0; b < in.NumBands(); b++ {
		wire.BandData = append(wire.BandData, in.Band(b).Data())
	}
	var want bytes.Buffer
	if err := gob.NewEncoder(&want).Encode(wire); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("Encode wrote %d bytes, the input bands encode to %d, and they differ", got.Len(), want.Len())
	}
}
