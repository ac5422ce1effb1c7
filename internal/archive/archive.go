// Package archive implements the paper's progressive data representation
// (Section 3): "decompose the data in the archive into a progressive data
// representation which consists of multiple abstraction levels (raw data,
// features, semantics and metadata) and multiple resolutions."
//
// A Scene archive stores, per multiband scene:
//
//   - metadata  — band names, dimensions, global per-band statistics;
//   - semantics — an optional per-tile label map (e.g. land-cover class);
//   - features  — per-tile, per-band statistics and histograms;
//   - raw       — the multiband pyramid (multi-resolution): the level-0
//     values and, above them, min/max envelopes up to the 1×1 apex.
//
// Archives serialize to a self-describing binary stream (encoding/gob)
// so they can be staged on disk and memory-mapped per query session.
package archive

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"modelir/internal/features"
	"modelir/internal/pyramid"
	"modelir/internal/raster"
)

// DefaultTileSize is used when Options.TileSize is zero.
const DefaultTileSize = 32

// DefaultHistogramBins is used when Options.HistogramBins is zero.
const DefaultHistogramBins = 16

// Options controls archive construction.
type Options struct {
	TileSize int
	// PyramidLevels is the pyramid's level count, level 0 included;
	// zero builds it to its 1×1 apex.
	PyramidLevels int
	HistogramBins int
	// HistLo/HistHi fix the histogram value range per band; when both are
	// zero the band's own min/max are used.
	HistLo, HistHi float64
}

// TileFeature is the feature-level record for one (tile, band) pair.
type TileFeature struct {
	Stats features.BandStats
	Hist  features.Histogram
}

// Scene is a fully built progressive archive for one multiband scene.
type Scene struct {
	// Metadata level.
	Name      string
	W, H      int
	BandNames []string
	BandStats []features.BandStats // global, per band

	// Feature level: [band][tile].
	Tiles        []raster.Rect
	TileFeatures [][]TileFeature

	// Semantics level (optional): per-tile integer labels.
	TileLabels []int

	// Raw level: multiband pyramid (rebuilt on load; not serialized
	// directly — the base grids are).
	pyr *pyramid.MultibandPyramid

	// base is the level-0 multiband Base materializes from the pyramid's
	// level-0 plane on first call, for built and restored scenes alike.
	base     *raster.Multiband
	baseOnce sync.Once

	opts Options
}

// BuildScene constructs the archive.
func BuildScene(name string, m *raster.Multiband, opt Options) (*Scene, error) {
	if m == nil {
		return nil, errors.New("archive: nil scene")
	}
	if opt.TileSize == 0 {
		opt.TileSize = DefaultTileSize
	}
	if opt.TileSize < 2 {
		return nil, fmt.Errorf("archive: tile size %d too small", opt.TileSize)
	}
	if opt.PyramidLevels == 0 {
		opt.PyramidLevels = pyramid.ApexLevels(m.Width(), m.Height())
	}
	if opt.PyramidLevels < 1 {
		return nil, errors.New("archive: need >= 1 pyramid level")
	}
	if opt.HistogramBins == 0 {
		opt.HistogramBins = DefaultHistogramBins
	}
	if opt.HistogramBins < 2 {
		return nil, errors.New("archive: need >= 2 histogram bins")
	}

	sc := &Scene{
		Name:      name,
		W:         m.Width(),
		H:         m.Height(),
		BandNames: m.BandNames(),
		opts:      opt,
	}
	sc.Tiles = raster.TileRect(m.Bounds(), opt.TileSize)
	sc.BandStats = make([]features.BandStats, m.NumBands())
	sc.TileFeatures = make([][]TileFeature, m.NumBands())
	for b := 0; b < m.NumBands(); b++ {
		g := m.Band(b)
		sc.BandStats[b] = features.ComputeBandStats(g, g.Bounds())
		lo, hi := opt.HistLo, opt.HistHi
		if lo == 0 && hi == 0 {
			lo, hi = sc.BandStats[b].Min, sc.BandStats[b].Max
			if hi <= lo {
				hi = lo + 1
			}
		}
		sc.TileFeatures[b] = make([]TileFeature, len(sc.Tiles))
		for ti, tile := range sc.Tiles {
			h, err := features.NewHistogram(g, tile, opt.HistogramBins, lo, hi)
			if err != nil {
				return nil, fmt.Errorf("band %d tile %d: %w", b, ti, err)
			}
			sc.TileFeatures[b][ti] = TileFeature{
				Stats: features.ComputeBandStats(g, tile),
				Hist:  h,
			}
		}
	}
	pyr, err := pyramid.BuildMultiband(m, opt.PyramidLevels)
	if err != nil {
		return nil, err
	}
	sc.pyr = pyr
	return sc, nil
}

// Pyramid returns the raw-level multiband pyramid.
func (sc *Scene) Pyramid() *pyramid.MultibandPyramid { return sc.pyr }

// Base returns the level-0 multiband scene, materializing it from the
// pyramid's level-0 plane on first call. That plane is a verbatim copy
// of the bands the scene was built from, so the materialized multiband
// is bit-identical to them.
func (sc *Scene) Base() *raster.Multiband {
	sc.baseOnce.Do(func() {
		if sc.pyr == nil {
			return
		}
		grids := make([]*raster.Grid, sc.pyr.NumBands())
		for b := range grids {
			grids[b] = sc.pyr.BaseBand(b)
		}
		mb, err := raster.Stack(sc.BandNames, grids...)
		if err != nil {
			// BuildScene and SceneFromParts validated band count and
			// geometry, so a failure here is a broken invariant, not bad
			// input.
			panic(fmt.Sprintf("archive: base materialization: %v", err))
		}
		sc.base = mb
	})
	return sc.base
}

// NumBands returns the band count.
func (sc *Scene) NumBands() int { return len(sc.BandNames) }

// BandIndex resolves a band name.
func (sc *Scene) BandIndex(name string) (int, bool) {
	for i, n := range sc.BandNames {
		if n == name {
			return i, true
		}
	}
	return 0, false
}

// Feature returns the feature record for (band, tile).
func (sc *Scene) Feature(band, tile int) (TileFeature, error) {
	if band < 0 || band >= len(sc.TileFeatures) {
		return TileFeature{}, fmt.Errorf("archive: band %d out of range", band)
	}
	if tile < 0 || tile >= len(sc.Tiles) {
		return TileFeature{}, fmt.Errorf("archive: tile %d out of range", tile)
	}
	return sc.TileFeatures[band][tile], nil
}

// sceneWire is the serialized form.
type sceneWire struct {
	Name      string
	W, H      int
	BandNames []string
	BandStats []features.BandStats
	Tiles     []raster.Rect
	Feats     [][]TileFeature
	Labels    []int
	BandData  [][]float64
	Opts      Options
}

// Encode serializes the archive (metadata, features, semantics and raw
// level-0 bands; pyramids are rebuilt on load, trading CPU for a 2× file
// size reduction).
func (sc *Scene) Encode(w io.Writer) error {
	wire := sc.metaWire()
	base := sc.Base()
	wire.BandData = make([][]float64, base.NumBands())
	for b := range wire.BandData {
		wire.BandData[b] = base.Band(b).Data()
	}
	if err := gob.NewEncoder(w).Encode(wire); err != nil {
		return fmt.Errorf("archive: encode: %w", err)
	}
	return nil
}

// ReadScene deserializes an archive and rebuilds its pyramid.
func ReadScene(r io.Reader) (*Scene, error) {
	var wire sceneWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("archive: decode: %w", err)
	}
	if wire.W <= 0 || wire.H <= 0 || len(wire.BandNames) == 0 {
		return nil, errors.New("archive: corrupt header")
	}
	grids := make([]*raster.Grid, len(wire.BandNames))
	for b := range grids {
		if b >= len(wire.BandData) || len(wire.BandData[b]) != wire.W*wire.H {
			return nil, errors.New("archive: corrupt band data")
		}
		g, err := raster.FromData(wire.W, wire.H, wire.BandData[b])
		if err != nil {
			return nil, err
		}
		grids[b] = g
	}
	mb, err := raster.Stack(wire.BandNames, grids...)
	if err != nil {
		return nil, err
	}
	pyr, err := pyramid.BuildMultiband(mb, wire.Opts.PyramidLevels)
	if err != nil {
		return nil, err
	}
	return &Scene{
		Name:         wire.Name,
		W:            wire.W,
		H:            wire.H,
		BandNames:    wire.BandNames,
		BandStats:    wire.BandStats,
		Tiles:        wire.Tiles,
		TileFeatures: wire.Feats,
		TileLabels:   wire.Labels,
		pyr:          pyr,
		opts:         wire.Opts,
	}, nil
}

// Save writes the archive to a file.
func (sc *Scene) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("archive: create %s: %w", path, err)
	}
	defer f.Close()
	if err := sc.Encode(f); err != nil {
		return err
	}
	return f.Sync()
}

// Load reads an archive from a file.
func Load(path string) (*Scene, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("archive: open %s: %w", path, err)
	}
	defer f.Close()
	return ReadScene(f)
}
