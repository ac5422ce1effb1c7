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
// without touching the fine data. MultibandPyramid stacks one per band,
// and FlatLevel (flat.go) is the cell-major view the scene descent
// reads. The paper's wavelet storage of [3,13] is not reproduced: no
// query reads wavelet coefficients, so the mean pyramid is the one
// multi-resolution representation.
package pyramid

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"modelir/internal/raster"
)

// ErrNoLevels is returned when a pyramid would have no levels.
var ErrNoLevels = errors.New("pyramid: need at least one level")

// Level is one resolution of a mean pyramid: the mean surface plus min/max
// envelopes over the original cells each coarse cell covers.
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
	cur := Level{Mean: g.Clone(), Min: g.Clone(), Max: g.Clone(), Scale: 1}
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

// MultibandPyramid carries one Pyramid per band of a scene, aligned by
// level, so progressive model execution can bound multi-band linear models
// per coarse cell.
type MultibandPyramid struct {
	names []string
	// bands holds the per-band Grid pyramids. BuildMultiband populates
	// it eagerly; a pyramid restored from flat planes (FromFlat) leaves
	// it nil and materializes lazily on first Band call — the serving
	// descent reads only the flat view, so a restored archive never
	// pays for Grid materialization unless an off-engine path asks.
	bands    []*Pyramid
	bandOnce sync.Once
	// flat is the columnar per-level view (flat.go): one allocation per
	// level holding every band's mean/min/max, cell-major.
	flat []FlatLevel
}

// BuildMultiband builds aligned pyramids for every band of m.
func BuildMultiband(m *raster.Multiband, levels int) (*MultibandPyramid, error) {
	if m == nil {
		return nil, errors.New("pyramid: nil multiband")
	}
	out := &MultibandPyramid{names: m.BandNames(), bands: make([]*Pyramid, m.NumBands())}
	for i := 0; i < m.NumBands(); i++ {
		p, err := Build(m.Band(i), levels)
		if err != nil {
			return nil, fmt.Errorf("band %d: %w", i, err)
		}
		out.bands[i] = p
	}
	out.flat = buildFlatLevels(out.bands)
	return out, nil
}

// NumBands returns the band count.
func (mp *MultibandPyramid) NumBands() int { return len(mp.names) }

// NumLevels returns the common level count (minimum across bands).
// The flat view is built over exactly that minimum, so its length IS
// the answer on both the built and the restored path.
func (mp *MultibandPyramid) NumLevels() int { return len(mp.flat) }

// Band returns the pyramid for band i, materializing Grid pyramids
// from the flat planes first if this pyramid was restored planes-only.
func (mp *MultibandPyramid) Band(i int) *Pyramid {
	mp.bandOnce.Do(mp.materializeBands)
	return mp.bands[i]
}

// materializeBands rebuilds the per-band Grid pyramids from the flat
// cell-major planes. The flat values were copied verbatim from the
// grids at build time (or restored bit-identical from a snapshot), so
// the reverse copy reproduces the Grid path exactly.
func (mp *MultibandPyramid) materializeBands() {
	if mp.bands != nil {
		return
	}
	nb := len(mp.names)
	bands := make([]*Pyramid, nb)
	for b := 0; b < nb; b++ {
		p := &Pyramid{levels: make([]Level, len(mp.flat))}
		for l := range mp.flat {
			fl := &mp.flat[l]
			mean := raster.MustGrid(fl.W, fl.H)
			lo := raster.MustGrid(fl.W, fl.H)
			hi := raster.MustGrid(fl.W, fl.H)
			stride := fl.Bands * 3
			for y := 0; y < fl.H; y++ {
				mr, nr, xr := mean.Row(y), lo.Row(y), hi.Row(y)
				rowBase := y * fl.W * stride
				for x := 0; x < fl.W; x++ {
					o := rowBase + x*stride + b*3
					mr[x] = fl.vals[o]
					nr[x] = fl.vals[o+1]
					xr[x] = fl.vals[o+2]
				}
			}
			p.levels[l] = Level{Mean: mean, Min: lo, Max: hi, Scale: fl.Scale}
		}
		bands[b] = p
	}
	mp.bands = bands
}

// BandName returns the name of band i without copying the name table —
// the allocation-free accessor hot binding paths use.
func (mp *MultibandPyramid) BandName(i int) string { return mp.names[i] }
