// Package features implements the multi-abstraction axis of the paper's
// progressive data representation (Section 3.1): "raw information can be
// processed into alternate formulations such as features (texture, color,
// shape, etc.) and semantics that require lower data volumes at the expense
// of fidelity."
//
// It provides per-tile band statistics, intensity histograms, gray-level
// co-occurrence texture descriptors, contour (iso-line) extraction, spatial
// moments, and the progressive texture-matching pipeline of reference [12]
// (coarse histogram prefilter at low resolution, exact co-occurrence
// refinement at full resolution).
package features

import (
	"errors"
	"fmt"
	"math"

	"modelir/internal/raster"
)

// ErrBadBins is returned when a histogram is requested with < 2 bins.
var ErrBadBins = errors.New("features: need at least 2 bins")

// Histogram is a normalized intensity histogram over a fixed value range.
type Histogram struct {
	Lo, Hi float64
	Bins   []float64 // sums to 1 (or all zeros for an empty region)
}

// NewHistogram computes a histogram of g over r with the given bin count
// and value range. Values outside [lo,hi] clamp to the end bins.
func NewHistogram(g *raster.Grid, r raster.Rect, bins int, lo, hi float64) (Histogram, error) {
	if bins < 2 {
		return Histogram{}, ErrBadBins
	}
	if hi <= lo {
		return Histogram{}, fmt.Errorf("features: empty value range [%v,%v]", lo, hi)
	}
	h := Histogram{Lo: lo, Hi: hi, Bins: make([]float64, bins)}
	r = r.Intersect(g.Bounds())
	n := 0
	for y := r.Y0; y < r.Y1; y++ {
		row := g.Row(y)
		for x := r.X0; x < r.X1; x++ {
			b := int(float64(bins) * (row[x] - lo) / (hi - lo))
			if b < 0 {
				b = 0
			}
			if b >= bins {
				b = bins - 1
			}
			h.Bins[b]++
			n++
		}
	}
	if n > 0 {
		for i := range h.Bins {
			h.Bins[i] /= float64(n)
		}
	}
	return h, nil
}

// L1Distance returns the total-variation distance between two histograms
// with identical binning (0 = identical, 2 = disjoint support before the
// 1/2 factor; we return the plain L1 sum in [0,2]).
func (h Histogram) L1Distance(o Histogram) (float64, error) {
	if len(h.Bins) != len(o.Bins) || h.Lo != o.Lo || h.Hi != o.Hi {
		return 0, errors.New("features: histogram binning mismatch")
	}
	var d float64
	for i := range h.Bins {
		d += math.Abs(h.Bins[i] - o.Bins[i])
	}
	return d, nil
}

// Texture is a gray-level co-occurrence (GLCM) texture descriptor computed
// at offset (1,0) and (0,1), quantized to the given number of gray levels.
// The four Haralick-style scalars capture the texture dimensions used by
// progressive texture matching [12].
type Texture struct {
	Energy      float64 // sum p² — uniformity
	Contrast    float64 // sum (i-j)² p — local variation
	Homogeneity float64 // sum p/(1+|i-j|)
	Entropy     float64 // -sum p log p
}

// GLCM computes the Texture descriptor for g over r, quantizing values in
// [lo,hi] into `levels` gray levels and averaging the horizontal and
// vertical co-occurrence matrices.
func GLCM(g *raster.Grid, r raster.Rect, levels int, lo, hi float64) (Texture, error) {
	if levels < 2 {
		return Texture{}, errors.New("features: need at least 2 gray levels")
	}
	if hi <= lo {
		return Texture{}, fmt.Errorf("features: empty value range [%v,%v]", lo, hi)
	}
	r = r.Intersect(g.Bounds())
	if r.W() < 2 || r.H() < 2 {
		return Texture{}, errors.New("features: region too small for co-occurrence")
	}
	q := func(v float64) int {
		b := int(float64(levels) * (v - lo) / (hi - lo))
		if b < 0 {
			b = 0
		}
		if b >= levels {
			b = levels - 1
		}
		return b
	}
	co := make([]float64, levels*levels)
	n := 0.0
	for y := r.Y0; y < r.Y1; y++ {
		for x := r.X0; x < r.X1; x++ {
			a := q(g.At(x, y))
			if x+1 < r.X1 {
				co[a*levels+q(g.At(x+1, y))]++
				n++
			}
			if y+1 < r.Y1 {
				co[a*levels+q(g.At(x, y+1))]++
				n++
			}
		}
	}
	var t Texture
	for i := 0; i < levels; i++ {
		for j := 0; j < levels; j++ {
			p := co[i*levels+j] / n
			if p == 0 {
				continue
			}
			d := float64(i - j)
			t.Energy += p * p
			t.Contrast += d * d * p
			t.Homogeneity += p / (1 + math.Abs(d))
			t.Entropy -= p * math.Log(p)
		}
	}
	return t, nil
}

// Distance returns the Euclidean distance between two texture descriptors
// in the 4-D (energy, contrast, homogeneity, entropy) space, with contrast
// log-compressed so one dimension does not dominate.
func (t Texture) Distance(o Texture) float64 {
	d1 := t.Energy - o.Energy
	d2 := math.Log1p(t.Contrast) - math.Log1p(o.Contrast)
	d3 := t.Homogeneity - o.Homogeneity
	d4 := t.Entropy - o.Entropy
	return math.Sqrt(d1*d1 + d2*d2 + d3*d3 + d4*d4)
}

// BandStats is the cheap tile-level statistics vector stored at the
// "features" abstraction level of the archive.
type BandStats struct {
	Mean, Std, Min, Max float64
}

// ComputeBandStats summarizes g over r.
func ComputeBandStats(g *raster.Grid, r raster.Rect) BandStats {
	r = r.Intersect(g.Bounds())
	var sum, sumSq float64
	lo, hi := math.Inf(1), math.Inf(-1)
	n := 0
	for y := r.Y0; y < r.Y1; y++ {
		row := g.Row(y)
		for x := r.X0; x < r.X1; x++ {
			v := row[x]
			sum += v
			sumSq += v * v
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
			n++
		}
	}
	if n == 0 {
		return BandStats{}
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if variance < 0 {
		variance = 0
	}
	return BandStats{Mean: mean, Std: math.Sqrt(variance), Min: lo, Max: hi}
}

// Moments are raw and central spatial moments of a (non-negative) surface
// over a region: mass, centroid and second central moments. Used for
// shape-level semantics (e.g. locating the center of a high-risk blob).
type Moments struct {
	Mass          float64
	Cx, Cy        float64
	Mxx, Myy, Mxy float64
}

// ComputeMoments integrates g (clamped to >= 0) over r.
func ComputeMoments(g *raster.Grid, r raster.Rect) Moments {
	r = r.Intersect(g.Bounds())
	var m Moments
	for y := r.Y0; y < r.Y1; y++ {
		row := g.Row(y)
		for x := r.X0; x < r.X1; x++ {
			v := row[x]
			if v < 0 {
				v = 0
			}
			m.Mass += v
			m.Cx += v * float64(x)
			m.Cy += v * float64(y)
		}
	}
	if m.Mass == 0 {
		return m
	}
	m.Cx /= m.Mass
	m.Cy /= m.Mass
	for y := r.Y0; y < r.Y1; y++ {
		row := g.Row(y)
		for x := r.X0; x < r.X1; x++ {
			v := row[x]
			if v < 0 {
				v = 0
			}
			dx, dy := float64(x)-m.Cx, float64(y)-m.Cy
			m.Mxx += v * dx * dx
			m.Myy += v * dy * dy
			m.Mxy += v * dx * dy
		}
	}
	m.Mxx /= m.Mass
	m.Myy /= m.Mass
	m.Mxy /= m.Mass
	return m
}

// ContourCell marks a grid cell crossed by the iso-line at the given level.
type ContourCell struct {
	X, Y int
}

// Contour returns the cells where g crosses `level` (i.e. the cell's value
// and at least one 4-neighbor straddle the level). The paper's Section 3.1
// cites contours as a low-volume abstraction "allowing for very rapid
// identification of areas with low or high parameter values".
func Contour(g *raster.Grid, level float64) []ContourCell {
	var out []ContourCell
	w, h := g.Width(), g.Height()
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := g.At(x, y)
			above := v >= level
			crossed := false
			if x+1 < w && (g.At(x+1, y) >= level) != above {
				crossed = true
			}
			if !crossed && y+1 < h && (g.At(x, y+1) >= level) != above {
				crossed = true
			}
			if crossed {
				out = append(out, ContourCell{X: x, Y: y})
			}
		}
	}
	return out
}
