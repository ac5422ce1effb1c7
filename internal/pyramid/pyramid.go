// Package pyramid implements the multi-resolution axis of the paper's
// progressive data representation (Section 3.1): "Multi-resolution
// representations, such as wavelets, can be used to provide rough
// approximations of information at low resolutions (low data volumes), with
// more detailed views at higher resolutions."
//
// Pyramid is a mean pyramid (levels of Downsample2 averages) with exact
// per-cell min/max envelopes. The envelopes are what makes progressive
// pruning *sound*: a coarse cell's [min,max] brackets every fine sample
// beneath it, so a linear model's value over the block can be bounded
// without touching the fine data. MultibandPyramid stores every band in
// FlatLevel planes (flat.go), the cell-major view the scene descent
// reads, and materializes per-band Pyramids from them on demand. The
// paper's wavelet storage of [3,13] is not reproduced: no query reads
// wavelet coefficients, so the mean pyramid is the one multi-resolution
// representation.
package pyramid

import (
	"errors"
	"math"
	"sync"

	"modelir/internal/raster"
)

// ErrNoLevels is returned when a pyramid would have no levels.
var ErrNoLevels = errors.New("pyramid: need at least one level")

// Level is one resolution of a mean pyramid: the mean surface plus min/max
// envelopes over the original cells each coarse cell covers. At level 0
// the three are one grid, since every envelope of a single cell is the
// cell itself. Level grids are read-only.
type Level struct {
	Mean *raster.Grid
	Min  *raster.Grid
	Max  *raster.Grid
	// Scale is the linear downsampling factor relative to level 0 (1, 2,
	// 4, ...).
	Scale int
}

// Pyramid is a mean/min/max image pyramid. Level 0 is full resolution;
// each subsequent level halves both dimensions.
type Pyramid struct {
	levels []Level
}

// Build constructs a pyramid over g with the requested number of levels
// (including level 0). Levels stop early if the surface shrinks to 1×1.
func Build(g *raster.Grid, levels int) (*Pyramid, error) {
	if levels < 1 {
		return nil, ErrNoLevels
	}
	if g == nil {
		return nil, errors.New("pyramid: nil grid")
	}
	p := &Pyramid{levels: make([]Level, 0, levels)}
	base := g.Clone()
	cur := Level{Mean: base, Min: base, Max: base, Scale: 1}
	p.levels = append(p.levels, cur)
	for len(p.levels) < levels && (cur.Mean.Width() > 1 || cur.Mean.Height() > 1) {
		next := Level{
			Mean:  cur.Mean.Downsample2(),
			Min:   downMin(cur.Min),
			Max:   downMax(cur.Max),
			Scale: cur.Scale * 2,
		}
		p.levels = append(p.levels, next)
		cur = next
	}
	return p, nil
}

// ApexLevels is the level count of a pyramid over a w×h surface built
// to its 1×1 apex, level 0 included.
func ApexLevels(w, h int) int {
	n := 1
	for w > 1 || h > 1 {
		w, h = (w+1)/2, (h+1)/2
		n++
	}
	return n
}

// NumLevels returns the number of resolutions (level 0 = finest).
func (p *Pyramid) NumLevels() int { return len(p.levels) }

// Level returns the i-th level (0 = full resolution).
func (p *Pyramid) Level(i int) Level { return p.levels[i] }

// CellRect maps a coarse cell at level lvl to the rectangle of level-0
// cells it covers (clipped to the base bounds).
func (p *Pyramid) CellRect(lvl, x, y int) raster.Rect {
	s := p.levels[lvl].Scale
	base := p.levels[0].Mean.Bounds()
	return raster.Rect{X0: x * s, Y0: y * s, X1: (x + 1) * s, Y1: (y + 1) * s}.Intersect(base)
}

func downMin(g *raster.Grid) *raster.Grid {
	nw, nh := (g.Width()+1)/2, (g.Height()+1)/2
	out := raster.MustGrid(nw, nh)
	for y := 0; y < nh; y++ {
		for x := 0; x < nw; x++ {
			lo := math.Inf(1)
			for dy := 0; dy < 2; dy++ {
				for dx := 0; dx < 2; dx++ {
					sx, sy := 2*x+dx, 2*y+dy
					if sx < g.Width() && sy < g.Height() {
						if v := g.At(sx, sy); v < lo {
							lo = v
						}
					}
				}
			}
			out.Set(x, y, lo)
		}
	}
	return out
}

func downMax(g *raster.Grid) *raster.Grid {
	nw, nh := (g.Width()+1)/2, (g.Height()+1)/2
	out := raster.MustGrid(nw, nh)
	for y := 0; y < nh; y++ {
		for x := 0; x < nw; x++ {
			hi := math.Inf(-1)
			for dy := 0; dy < 2; dy++ {
				for dx := 0; dx < 2; dx++ {
					sx, sy := 2*x+dx, 2*y+dy
					if sx < g.Width() && sy < g.Height() {
						if v := g.At(sx, sy); v > hi {
							hi = v
						}
					}
				}
			}
			out.Set(x, y, hi)
		}
	}
	return out
}

// MultibandPyramid carries every band of a scene, aligned by level, so
// progressive model execution can bound multi-band linear models per
// coarse cell. Its one stored representation is the flat planes
// (flat.go); the per-band Grid pyramids materialize from them on the
// first Band call, which no serving path makes.
type MultibandPyramid struct {
	names    []string
	flat     []FlatLevel
	bands    []*Pyramid
	bandOnce sync.Once
}

// BuildMultiband builds the flat planes of every band of m: level 0
// holds each band's values, and every coarser level, up to `levels`
// levels or the 1×1 apex, the min/max envelopes of the level below.
func BuildMultiband(m *raster.Multiband, levels int) (*MultibandPyramid, error) {
	if m == nil {
		return nil, errors.New("pyramid: nil multiband")
	}
	if levels < 1 {
		return nil, ErrNoLevels
	}
	w, h, nb := m.Width(), m.Height(), m.NumBands()
	levels = min(levels, ApexLevels(w, h))
	base := FlatLevel{W: w, H: h, Scale: 1, Bands: nb, stride: 1, vals: make([]float64, w*h*nb)}
	for b := 0; b < nb; b++ {
		g := m.Band(b)
		for y := 0; y < h; y++ {
			o := y*w*nb + b
			for x, v := range g.Row(y) {
				base.vals[o+x*nb] = v
			}
		}
	}
	flat := make([]FlatLevel, 1, levels)
	flat[0] = base
	for len(flat) < levels {
		flat = append(flat, downEnvelope(&flat[len(flat)-1]))
	}
	return &MultibandPyramid{names: m.BandNames(), flat: flat}, nil
}

// NumBands returns the band count.
func (mp *MultibandPyramid) NumBands() int { return len(mp.names) }

// NumLevels returns the level count.
func (mp *MultibandPyramid) NumLevels() int { return len(mp.flat) }

// Band returns the Grid pyramid of band i, materializing every band's
// from the flat planes on first call.
func (mp *MultibandPyramid) Band(i int) *Pyramid {
	mp.bandOnce.Do(mp.materializeBands)
	return mp.bands[i]
}

// BaseBand returns a fresh grid holding band b's level-0 values.
func (mp *MultibandPyramid) BaseBand(b int) *raster.Grid {
	fl := &mp.flat[0]
	g := raster.MustGrid(fl.W, fl.H)
	for y := 0; y < fl.H; y++ {
		row := g.Row(y)
		o := y*fl.W*fl.Bands + b
		for x := range row {
			row[x] = fl.vals[o+x*fl.Bands]
		}
	}
	return g
}

// materializeBands rebuilds the per-band Grid pyramids exactly as
// Build would: level 0 from the base plane, each coarser envelope
// copied from its plane, and each coarser mean computed as Downsample2
// of the mean below, the way Build computes it.
func (mp *MultibandPyramid) materializeBands() {
	bands := make([]*Pyramid, len(mp.names))
	for b := range bands {
		base := mp.BaseBand(b)
		p := &Pyramid{levels: make([]Level, len(mp.flat))}
		p.levels[0] = Level{Mean: base, Min: base, Max: base, Scale: 1}
		for l := 1; l < len(mp.flat); l++ {
			fl := &mp.flat[l]
			lo := raster.MustGrid(fl.W, fl.H)
			hi := raster.MustGrid(fl.W, fl.H)
			for y := 0; y < fl.H; y++ {
				lr, hr := lo.Row(y), hi.Row(y)
				for x := range lr {
					lr[x], hr[x] = fl.Bounds(x, y, b)
				}
			}
			p.levels[l] = Level{Mean: p.levels[l-1].Mean.Downsample2(), Min: lo, Max: hi, Scale: fl.Scale}
		}
		bands[b] = p
	}
	mp.bands = bands
}

// BandName returns the name of band i without copying the name table —
// the allocation-free accessor hot binding paths use.
func (mp *MultibandPyramid) BandName(i int) string { return mp.names[i] }
