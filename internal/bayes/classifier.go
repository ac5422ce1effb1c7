package bayes

import (
	"errors"
	"fmt"
	"math"

	"modelir/internal/pyramid"
	"modelir/internal/raster"
)

// Gaussian naive-Bayes pixel classification and its progressive variant.
// Reference [13] ("Progressive Classification in the Compressed Domain for
// Large EOS Satellite Databases") reports ~30× speedups by classifying at
// coarse resolution first and refining only ambiguous blocks; the paper
// frames that pipeline as "a special case of applying Bayesian network".

// GNB is a Gaussian naive-Bayes classifier over multiband pixels.
type GNB struct {
	classes int
	bands   int
	prior   []float64
	mean    [][]float64 // [class][band]
	std     [][]float64 // [class][band]
}

// TrainGNB fits class-conditional Gaussians per band from labeled pixels.
// labels[i] in [0, classes); xs[i] is a per-band value vector.
func TrainGNB(classes int, xs [][]float64, labels []int) (*GNB, error) {
	if classes < 2 {
		return nil, errors.New("bayes: need >= 2 classes")
	}
	if len(xs) == 0 || len(xs) != len(labels) {
		return nil, errors.New("bayes: bad training set")
	}
	bands := len(xs[0])
	if bands == 0 {
		return nil, errors.New("bayes: zero-dimensional pixels")
	}
	g := &GNB{
		classes: classes,
		bands:   bands,
		prior:   make([]float64, classes),
		mean:    make([][]float64, classes),
		std:     make([][]float64, classes),
	}
	count := make([]float64, classes)
	sum := make([][]float64, classes)
	sumSq := make([][]float64, classes)
	for c := 0; c < classes; c++ {
		sum[c] = make([]float64, bands)
		sumSq[c] = make([]float64, bands)
	}
	for i, x := range xs {
		c := labels[i]
		if c < 0 || c >= classes {
			return nil, fmt.Errorf("bayes: label %d out of range", c)
		}
		if len(x) != bands {
			return nil, fmt.Errorf("bayes: pixel %d has %d bands, want %d", i, len(x), bands)
		}
		count[c]++
		for b, v := range x {
			sum[c][b] += v
			sumSq[c][b] += v * v
		}
	}
	n := float64(len(xs))
	for c := 0; c < classes; c++ {
		if count[c] == 0 {
			return nil, fmt.Errorf("bayes: class %d has no training pixels", c)
		}
		g.prior[c] = count[c] / n
		g.mean[c] = make([]float64, bands)
		g.std[c] = make([]float64, bands)
		for b := 0; b < bands; b++ {
			m := sum[c][b] / count[c]
			variance := sumSq[c][b]/count[c] - m*m
			if variance < 1e-6 {
				variance = 1e-6 // floor to keep densities finite
			}
			g.mean[c][b] = m
			g.std[c][b] = math.Sqrt(variance)
		}
	}
	return g, nil
}

// LogPosteriors returns unnormalized log posteriors for one pixel.
func (g *GNB) LogPosteriors(x []float64, out []float64) ([]float64, error) {
	if len(x) != g.bands {
		return nil, fmt.Errorf("bayes: pixel has %d bands, want %d", len(x), g.bands)
	}
	if cap(out) < g.classes {
		out = make([]float64, g.classes)
	}
	out = out[:g.classes]
	for c := 0; c < g.classes; c++ {
		lp := math.Log(g.prior[c])
		for b, v := range x {
			z := (v - g.mean[c][b]) / g.std[c][b]
			lp += -0.5*z*z - math.Log(g.std[c][b])
		}
		out[c] = lp
	}
	return out, nil
}

// Classify returns the MAP class and the log-posterior margin to the
// runner-up (larger margin = more confident).
func (g *GNB) Classify(x []float64) (class int, margin float64, err error) {
	lps, err := g.LogPosteriors(x, nil)
	if err != nil {
		return 0, 0, err
	}
	best, second := 0, -1
	for c := 1; c < len(lps); c++ {
		if lps[c] > lps[best] {
			second = best
			best = c
		} else if second < 0 || lps[c] > lps[second] {
			second = c
		}
	}
	return best, lps[best] - lps[second], nil
}

// ClassifyScene labels every pixel of a multiband scene at full
// resolution: the flat baseline for experiment E2. Returns the label map
// and the number of classifier invocations.
func (g *GNB) ClassifyScene(m *raster.Multiband) (*raster.Grid, int, error) {
	if m.NumBands() != g.bands {
		return nil, 0, fmt.Errorf("bayes: scene has %d bands, classifier wants %d", m.NumBands(), g.bands)
	}
	out := raster.MustGrid(m.Width(), m.Height())
	px := make([]float64, g.bands)
	evals := 0
	for y := 0; y < m.Height(); y++ {
		for x := 0; x < m.Width(); x++ {
			px = m.Pixel(x, y, px)
			c, _, err := g.Classify(px)
			if err != nil {
				return nil, evals, err
			}
			evals++
			out.Set(x, y, float64(c))
		}
	}
	return out, evals, nil
}

// ProgressiveStats reports the work a progressive classification did.
type ProgressiveStats struct {
	// EvalsAtLevel[l] counts classifier invocations at pyramid level l.
	EvalsAtLevel []int
	// PixelsResolved[l] counts full-resolution pixels whose label was
	// decided at level l.
	PixelsResolved []int
}

// TotalEvals sums classifier invocations across levels.
func (s ProgressiveStats) TotalEvals() int {
	t := 0
	for _, n := range s.EvalsAtLevel {
		t += n
	}
	return t
}

// ProgressiveOptions tunes ClassifyProgressiveOpts.
type ProgressiveOptions struct {
	// MarginThreshold is the minimum log-posterior margin for resolving
	// a block at a coarse level.
	MarginThreshold float64
	// MaxRange, when positive, additionally requires every band's
	// (max − min) envelope within the block to be at most MaxRange
	// before the block may resolve coarse. This is the compressed-domain
	// purity test of [13]: mixed blocks average multiple class
	// signatures and can look confidently — but wrongly — like a third
	// class, so confidence alone is not enough.
	MaxRange float64
}

// ClassifyProgressiveOpts labels a scene coarse-to-fine on a multiband
// pyramid: blocks whose coarse-level classification margin is at least
// opt.MarginThreshold (and that pass the homogeneity gate, if set) are
// labeled wholesale; ambiguous blocks are split and re-examined at the
// next finer level, down to exact per-pixel classification at level 0.
// With spatially coherent scenes, most blocks resolve coarse, giving the
// [13]-style speedup while agreeing with the flat classifier except near
// class boundaries.
func (g *GNB) ClassifyProgressiveOpts(mp *pyramid.MultibandPyramid, opt ProgressiveOptions) (*raster.Grid, ProgressiveStats, error) {
	marginThreshold := opt.MarginThreshold
	if mp.NumBands() != g.bands {
		return nil, ProgressiveStats{}, fmt.Errorf("bayes: pyramid has %d bands, classifier wants %d", mp.NumBands(), g.bands)
	}
	levels := mp.NumLevels()
	st := ProgressiveStats{
		EvalsAtLevel:   make([]int, levels),
		PixelsResolved: make([]int, levels),
	}
	base := mp.Band(0).Level(0).Mean
	out := raster.MustGrid(base.Width(), base.Height())

	type cell struct{ x, y int }
	top := levels - 1
	coarse := mp.Band(0).Level(top).Mean
	frontier := make([]cell, 0, coarse.Width()*coarse.Height())
	for y := 0; y < coarse.Height(); y++ {
		for x := 0; x < coarse.Width(); x++ {
			frontier = append(frontier, cell{x, y})
		}
	}

	px := make([]float64, g.bands)
	for lvl := top; lvl >= 0; lvl-- {
		var next []cell
		for _, c := range frontier {
			for b := 0; b < g.bands; b++ {
				px[b] = mp.Band(b).Level(lvl).Mean.At(c.x, c.y)
			}
			class, margin, err := g.Classify(px)
			if err != nil {
				return nil, st, err
			}
			st.EvalsAtLevel[lvl]++
			pure := true
			if opt.MaxRange > 0 && lvl > 0 {
				for b := 0; b < g.bands && pure; b++ {
					l := mp.Band(b).Level(lvl)
					if l.Max.At(c.x, c.y)-l.Min.At(c.x, c.y) > opt.MaxRange {
						pure = false
					}
				}
			}
			if lvl == 0 || (margin >= marginThreshold && pure) {
				r := mp.Band(0).CellRect(lvl, c.x, c.y)
				for yy := r.Y0; yy < r.Y1; yy++ {
					for xx := r.X0; xx < r.X1; xx++ {
						out.Set(xx, yy, float64(class))
					}
				}
				st.PixelsResolved[lvl] += r.Area()
				continue
			}
			// Split into children at the next finer level.
			fine := mp.Band(0).Level(lvl - 1).Mean
			for dy := 0; dy < 2; dy++ {
				for dx := 0; dx < 2; dx++ {
					nx, ny := 2*c.x+dx, 2*c.y+dy
					if nx < fine.Width() && ny < fine.Height() {
						next = append(next, cell{nx, ny})
					}
				}
			}
		}
		frontier = next
	}
	return out, st, nil
}
