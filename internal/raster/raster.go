// Package raster is the spatial data plane of the library: dense 2-D grids
// of float64 samples, multiband stacks of such grids, rectangular regions
// and tilings. Satellite imagery, digital elevation maps, risk surfaces and
// classification maps are all represented here.
//
// The paper's archives are multi-modal rasters (Landsat TM bands, DEMs) plus
// co-registered auxiliary layers; every model in Section 2 consumes values
// at locations (x, y) across several bands, which is exactly the access
// pattern this package optimizes: row-major contiguous storage, O(1) sample
// access, and cheap sub-region views for tile-based progressive processing.
package raster

import (
	"errors"
	"fmt"
	"math"
)

// Common construction errors.
var (
	ErrBadDims       = errors.New("raster: width and height must be positive")
	ErrBandCount     = errors.New("raster: band count must be positive")
	ErrShapeMismatch = errors.New("raster: grids have different shapes")
)

// Grid is a dense row-major 2-D array of float64 samples.
type Grid struct {
	w, h int
	data []float64
}

// NewGrid allocates a zero-filled grid of the given dimensions.
func NewGrid(w, h int) (*Grid, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("%w: %dx%d", ErrBadDims, w, h)
	}
	return &Grid{w: w, h: h, data: make([]float64, w*h)}, nil
}

// MustGrid is NewGrid for statically valid dimensions; it panics on
// programmer error.
func MustGrid(w, h int) *Grid {
	g, err := NewGrid(w, h)
	if err != nil {
		panic(err)
	}
	return g
}

// FromData wraps an existing row-major slice. len(data) must equal w*h.
// The grid takes ownership of data.
func FromData(w, h int, data []float64) (*Grid, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("%w: %dx%d", ErrBadDims, w, h)
	}
	if len(data) != w*h {
		return nil, fmt.Errorf("raster: data length %d != %d*%d", len(data), w, h)
	}
	return &Grid{w: w, h: h, data: data}, nil
}

// Width returns the number of columns.
func (g *Grid) Width() int { return g.w }

// Height returns the number of rows.
func (g *Grid) Height() int { return g.h }

// Len returns the total sample count (Width*Height).
func (g *Grid) Len() int { return len(g.data) }

// At returns the sample at column x, row y. Callers must pass in-bounds
// coordinates; this is the hot path and is kept branch-free beyond the
// slice's own bounds check.
func (g *Grid) At(x, y int) float64 { return g.data[y*g.w+x] }

// Set stores v at column x, row y.
func (g *Grid) Set(x, y int, v float64) { g.data[y*g.w+x] = v }

// Row returns the y-th row as a slice aliasing the grid's storage.
func (g *Grid) Row(y int) []float64 { return g.data[y*g.w : (y+1)*g.w] }

// Data returns the underlying row-major storage. Mutating it mutates the
// grid; use Clone for an independent copy.
func (g *Grid) Data() []float64 { return g.data }

// Clone returns a deep copy.
func (g *Grid) Clone() *Grid {
	data := make([]float64, len(g.data))
	copy(data, g.data)
	return &Grid{w: g.w, h: g.h, data: data}
}

// Apply replaces every sample s with f(s).
func (g *Grid) Apply(f func(float64) float64) {
	for i, v := range g.data {
		g.data[i] = f(v)
	}
}

// MinMax returns the smallest and largest sample values.
func (g *Grid) MinMax() (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range g.data {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// Mean returns the arithmetic mean of all samples.
func (g *Grid) Mean() float64 {
	sum := 0.0
	for _, v := range g.data {
		sum += v
	}
	return sum / float64(len(g.data))
}

// Stats returns mean and (population) standard deviation in one pass.
func (g *Grid) Stats() (mean, std float64) {
	var sum, sumSq float64
	for _, v := range g.data {
		sum += v
		sumSq += v * v
	}
	n := float64(len(g.data))
	mean = sum / n
	variance := sumSq/n - mean*mean
	if variance < 0 {
		variance = 0 // numeric guard
	}
	return mean, math.Sqrt(variance)
}

// Rect is a half-open rectangular region [X0,X1) × [Y0,Y1).
type Rect struct {
	X0, Y0, X1, Y1 int
}

// Bounds returns the grid's full extent as a Rect.
func (g *Grid) Bounds() Rect { return Rect{0, 0, g.w, g.h} }

// W returns the rectangle width.
func (r Rect) W() int { return r.X1 - r.X0 }

// H returns the rectangle height.
func (r Rect) H() int { return r.Y1 - r.Y0 }

// Area returns the number of cells covered.
func (r Rect) Area() int { return r.W() * r.H() }

// Empty reports whether the rectangle covers no cells.
func (r Rect) Empty() bool { return r.X1 <= r.X0 || r.Y1 <= r.Y0 }

// Intersect returns the overlap of two rectangles (possibly empty).
func (r Rect) Intersect(o Rect) Rect {
	out := Rect{
		X0: maxInt(r.X0, o.X0), Y0: maxInt(r.Y0, o.Y0),
		X1: minInt(r.X1, o.X1), Y1: minInt(r.Y1, o.Y1),
	}
	if out.Empty() {
		return Rect{}
	}
	return out
}

// SubMean returns the mean over the rectangle clipped to the grid.
func (g *Grid) SubMean(r Rect) float64 {
	r = r.Intersect(g.Bounds())
	if r.Empty() {
		return 0
	}
	sum := 0.0
	for y := r.Y0; y < r.Y1; y++ {
		row := g.Row(y)
		for x := r.X0; x < r.X1; x++ {
			sum += row[x]
		}
	}
	return sum / float64(r.Area())
}

// SubMinMax returns min and max over the rectangle clipped to the grid.
// An empty intersection yields (+Inf, -Inf).
func (g *Grid) SubMinMax(r Rect) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	r = r.Intersect(g.Bounds())
	for y := r.Y0; y < r.Y1; y++ {
		row := g.Row(y)
		for x := r.X0; x < r.X1; x++ {
			v := row[x]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	return lo, hi
}

// Tiles partitions the grid bounds into tiles of at most tile×tile cells,
// row-major. Edge tiles may be smaller. tile must be positive.
func (g *Grid) Tiles(tile int) []Rect {
	return TileRect(g.Bounds(), tile)
}

// TileRect partitions an arbitrary rectangle into tiles of side at most
// tile, row-major.
func TileRect(b Rect, tile int) []Rect {
	if tile <= 0 || b.Empty() {
		return nil
	}
	nx := (b.W() + tile - 1) / tile
	ny := (b.H() + tile - 1) / tile
	out := make([]Rect, 0, nx*ny)
	for ty := 0; ty < ny; ty++ {
		for tx := 0; tx < nx; tx++ {
			r := Rect{
				X0: b.X0 + tx*tile, Y0: b.Y0 + ty*tile,
				X1: minInt(b.X0+(tx+1)*tile, b.X1),
				Y1: minInt(b.Y0+(ty+1)*tile, b.Y1),
			}
			out = append(out, r)
		}
	}
	return out
}

// Downsample2 returns a half-resolution grid whose cell (x, y) is the mean
// of the 2×2 block at (2x, 2y). Odd trailing rows/columns are averaged over
// the cells that exist. A 1×1 grid downsamples to itself (a copy).
func (g *Grid) Downsample2() *Grid {
	nw, nh := (g.w+1)/2, (g.h+1)/2
	out := MustGrid(nw, nh)
	for y := 0; y < nh; y++ {
		for x := 0; x < nw; x++ {
			sum, n := 0.0, 0
			for dy := 0; dy < 2; dy++ {
				for dx := 0; dx < 2; dx++ {
					sx, sy := 2*x+dx, 2*y+dy
					if sx < g.w && sy < g.h {
						sum += g.At(sx, sy)
						n++
					}
				}
			}
			out.Set(x, y, sum/float64(n))
		}
	}
	return out
}

// Equal reports whether two grids have identical shape and samples.
func (g *Grid) Equal(o *Grid) bool {
	if g.w != o.w || g.h != o.h {
		return false
	}
	for i, v := range g.data {
		if o.data[i] != v {
			return false
		}
	}
	return true
}

// Multiband is an ordered stack of co-registered grids sharing one shape:
// the in-memory analogue of a multi-spectral scene (e.g. Landsat TM bands
// plus a DEM band plus derived layers).
type Multiband struct {
	w, h  int
	bands []*Grid
	names []string
}

// Stack builds a Multiband from existing grids, which must share a shape.
// The stack aliases the grids (no copy).
func Stack(names []string, grids ...*Grid) (*Multiband, error) {
	if len(grids) == 0 {
		return nil, ErrBandCount
	}
	if len(names) != len(grids) {
		return nil, fmt.Errorf("raster: %d names for %d grids", len(names), len(grids))
	}
	w, h := grids[0].w, grids[0].h
	for _, g := range grids[1:] {
		if g.w != w || g.h != h {
			return nil, ErrShapeMismatch
		}
	}
	ns := make([]string, len(names))
	copy(ns, names)
	bs := make([]*Grid, len(grids))
	copy(bs, grids)
	return &Multiband{w: w, h: h, bands: bs, names: ns}, nil
}

// Width returns the number of columns.
func (m *Multiband) Width() int { return m.w }

// Height returns the number of rows.
func (m *Multiband) Height() int { return m.h }

// NumBands returns the number of bands.
func (m *Multiband) NumBands() int { return len(m.bands) }

// BandNames returns a copy of the band names in order.
func (m *Multiband) BandNames() []string {
	out := make([]string, len(m.names))
	copy(out, m.names)
	return out
}

// Band returns the i-th band grid (aliased, not copied).
func (m *Multiband) Band(i int) *Grid { return m.bands[i] }

// BandByName returns the band with the given name.
func (m *Multiband) BandByName(name string) (*Grid, bool) {
	for i, n := range m.names {
		if n == name {
			return m.bands[i], true
		}
	}
	return nil, false
}

// Pixel fills dst with the per-band values at (x, y) and returns it.
// dst is grown if needed; pass nil to allocate.
func (m *Multiband) Pixel(x, y int, dst []float64) []float64 {
	if cap(dst) < len(m.bands) {
		dst = make([]float64, len(m.bands))
	}
	dst = dst[:len(m.bands)]
	for i, b := range m.bands {
		dst[i] = b.At(x, y)
	}
	return dst
}

// Bounds returns the scene's extent.
func (m *Multiband) Bounds() Rect { return Rect{0, 0, m.w, m.h} }

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
