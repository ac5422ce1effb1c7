package experiments

import (
	"math/rand"
	"time"

	"modelir/internal/bayes"
	"modelir/internal/features"
	"modelir/internal/onion"
	"modelir/internal/pyramid"
	"modelir/internal/raster"
	"modelir/internal/synth"
	"modelir/repro/svd"
)

// Ablations for the design choices DESIGN.md calls out: the Onion layer
// cap and direction count (the d >= 4 substitution), the progressive
// classifier's two gates, the texture prefilter's keep fraction, and
// the [14] clustering+SVD baseline's cluster/dimension trade-off.

// A1 ablates the Onion index: layer cap, peel-direction count (for the
// d >= 4 direction-sampled construction) and data correlation.
func A1(cfg Config) (Table, error) {
	t := Table{
		ID:    "A1",
		Title: "Ablation: Onion layer cap / directions / data distribution (top-10 queries)",
		Columns: []string{
			"dist", "d", "max layers", "dirs", "pts touched", "layers scanned", "exact",
		},
	}
	n := 50_000
	queries := 10
	if cfg.Quick {
		n = 10_000
		queries = 3
	}
	type variant struct {
		dist string
		d    int
		gen  func() ([][]float64, error)
	}
	variants := []variant{
		{"iid", 3, func() ([][]float64, error) { return synth.GaussianTuples(201, n, 3) }},
		{"corr0.8", 3, func() ([][]float64, error) { return synth.CorrelatedTuples(202, n, 3, 0.8) }},
		{"iid", 6, func() ([][]float64, error) { return synth.GaussianTuples(203, n, 6) }},
	}
	for _, v := range variants {
		pts, err := v.gen()
		if err != nil {
			return t, err
		}
		type cfgRow struct {
			layers, dirs int
		}
		rows := []cfgRow{{8, 16}, {48, 16}, {48, 64}}
		if v.d == 3 {
			// Exact hull peeling ignores direction count.
			rows = []cfgRow{{4, 0}, {16, 0}, {48, 0}}
		}
		for _, r := range rows {
			ix, err := onion.Build(pts, onion.Options{MaxLayers: r.layers, Directions: r.dirs})
			if err != nil {
				return t, err
			}
			rng := rand.New(rand.NewSource(9))
			touched, layers := 0, 0
			exact := true
			for q := 0; q < queries; q++ {
				w := make([]float64, v.d)
				for i := range w {
					w[i] = rng.NormFloat64()
				}
				got, st, err := ix.TopK(w, 10)
				if err != nil {
					return t, err
				}
				want, _, err := onion.ScanTopK(pts, w, 10)
				if err != nil {
					return t, err
				}
				for i := range want {
					if got[i].ID != want[i].ID {
						exact = false
					}
				}
				touched += st.PointsTouched
				layers += st.LayersScanned
			}
			dirsCell := f("%d", r.dirs)
			if v.d == 3 {
				dirsCell = "-"
			}
			t.Rows = append(t.Rows, []string{
				v.dist, f("%d", v.d), f("%d", r.layers), dirsCell,
				f("%d", touched/queries), f("%d", layers/queries), f("%v", exact),
			})
		}
	}
	t.Notes = append(t.Notes,
		"exactness must hold in every cell (the bound check guarantees it; layering",
		"quality only moves work); deeper layer caps cut the core-bucket fallback and",
		"correlated clouds have thinner hulls. Honest negative result: at d=6 the",
		"direction-sampled substitution cannot prune i.i.d. Gaussian data — both the",
		"box and Cauchy-Schwarz suffix bounds exceed the attainable top-K floor, so",
		"every point is touched. Exact high-dimensional convex layering (which the",
		"Onion paper also does not attempt; its evaluation is 3-attribute) would be",
		"required; results remain exact either way.")
	return t, nil
}

// A2 ablates the progressive classifier's two gates: posterior-margin
// threshold and block-purity (max-min envelope) bound.
func A2(cfg Config) (Table, error) {
	t := Table{
		ID:    "A2",
		Title: "Ablation: progressive classification gates (margin x purity)",
		Columns: []string{
			"margin", "max range", "evals", "speedup", "agreement",
		},
	}
	size := 256
	if cfg.Quick {
		size = 128
	}
	mb, g, err := classScene(31, size, size)
	if err != nil {
		return t, err
	}
	flat, flatEvals, err := g.ClassifyScene(mb)
	if err != nil {
		return t, err
	}
	mp, err := pyramid.BuildMultiband(mb, 6)
	if err != nil {
		return t, err
	}
	for _, opt := range []bayes.ProgressiveOptions{
		{MarginThreshold: 10, MaxRange: 0},   // margin only
		{MarginThreshold: 10, MaxRange: 40},  // strict purity
		{MarginThreshold: 10, MaxRange: 80},  // the default
		{MarginThreshold: 10, MaxRange: 150}, // loose purity
		{MarginThreshold: 100, MaxRange: 0},  // very strict margin only
	} {
		prog, st, err := g.ClassifyProgressiveOpts(mp, opt)
		if err != nil {
			return t, err
		}
		agree := 0
		for i, v := range flat.Data() {
			if prog.Data()[i] == v {
				agree++
			}
		}
		t.Rows = append(t.Rows, []string{
			f("%.0f", opt.MarginThreshold), f("%.0f", opt.MaxRange),
			f("%d", st.TotalEvals()),
			f("%.1fx", float64(flatEvals)/float64(st.TotalEvals())),
			f("%.2f%%", 100*float64(agree)/float64(len(flat.Data()))),
		})
	}
	t.Notes = append(t.Notes,
		"margin alone over-commits on mixed blocks (fast but low agreement);",
		"purity alone controls agreement; the pair trades speed for fidelity",
		"smoothly — the shipped default (10, 80) sits at the knee.")
	return t, nil
}

// A3 ablates the texture prefilter's keep fraction.
func A3(cfg Config) (Table, error) {
	t := Table{
		ID:    "A3",
		Title: "Ablation: progressive texture prefilter keep-fraction",
		Columns: []string{
			"keep", "flat GLCMs", "prog GLCMs", "speedup", "target rank",
		},
	}
	size := 256
	if cfg.Quick {
		size = 128
	}
	const tile = 32
	rng := rand.New(rand.NewSource(77))
	g := raster.MustGrid(size, size)
	for i := range g.Data() {
		g.Data()[i] = 95 + rng.Float64()*10
	}
	tx, ty := (size/tile/2)*tile, (size/tile/2)*tile
	for y := 0; y < tile; y++ {
		for x := 0; x < tile; x++ {
			v := 50.0
			if ((x/4)+(y/4))%2 == 0 {
				v = 200
			}
			g.Set(tx+x, ty+y, v)
		}
	}
	tiles := g.Tiles(tile)
	target := raster.Rect{X0: tx, Y0: ty, X1: tx + tile, Y1: ty + tile}
	p, err := pyramid.Build(g, 4)
	if err != nil {
		return t, err
	}
	const coarseLevel = 2
	coarse := p.Level(coarseLevel)
	cRect := raster.Rect{
		X0: target.X0 / coarse.Scale, Y0: target.Y0 / coarse.Scale,
		X1: target.X1 / coarse.Scale, Y1: target.Y1 / coarse.Scale,
	}
	base := features.TextureQuery{Bins: 8, Levels: 8, Lo: 0, Hi: 255}
	base.TargetHist, err = features.NewHistogram(coarse.Mean, cRect, base.Bins, base.Lo, base.Hi)
	if err != nil {
		return t, err
	}
	base.TargetTexture, err = features.GLCM(g, target, base.Levels, base.Lo, base.Hi)
	if err != nil {
		return t, err
	}
	_, fst, err := features.MatchFlat(g, tiles, base)
	if err != nil {
		return t, err
	}
	for _, keep := range []float64{0.05, 0.15, 0.3, 0.6, 1.0} {
		q := base
		q.PrefilterKeep = keep
		prog, pst, err := features.MatchProgressive(p, tiles, q, coarseLevel)
		if err != nil {
			return t, err
		}
		rank := "-"
		for i, m := range prog {
			if m.Tile == target {
				rank = f("%d", i+1)
				break
			}
		}
		t.Rows = append(t.Rows, []string{
			f("%.2f", keep), f("%d", fst.FullGLCMs), f("%d", pst.FullGLCMs),
			f("%.1fx", float64(fst.FullGLCMs)/float64(pst.FullGLCMs)),
			rank,
		})
	}
	t.Notes = append(t.Notes,
		"smaller keep fractions trade recall risk for speed; the planted target",
		"survives even the tightest prefilter here because its coarse histogram is",
		"maximally distinctive — natural textures need the 0.15-0.3 middle ground.")
	return t, nil
}

// A4 ablates the [14] clustering+SVD baseline: clusters x retained dims
// vs k-NN recall and points compared.
func A4(cfg Config) (Table, error) {
	t := Table{
		ID:    "A4",
		Title: "Ablation: clustering+SVD approximate index [14] (10-NN, 8-dim clustered data)",
		Columns: []string{
			"clusters", "dims", "avg recall", "pts compared", "build time",
		},
	}
	n := 20_000
	queries := 15
	if cfg.Quick {
		n = 4_000
		queries = 5
	}
	// Clustered data: the regime [14] targets.
	rng := rand.New(rand.NewSource(301))
	const d, blobs = 8, 10
	centers := make([][]float64, blobs)
	for i := range centers {
		centers[i] = make([]float64, d)
		for j := range centers[i] {
			centers[i][j] = rng.NormFloat64() * 15
		}
	}
	pts := make([][]float64, n)
	for i := range pts {
		c := centers[i%blobs]
		p := make([]float64, d)
		for j := range p {
			p[j] = c[j] + rng.NormFloat64()
		}
		pts[i] = p
	}
	for _, row := range []struct{ clusters, dims int }{
		{10, 2}, {10, 4}, {10, 8}, {40, 2}, {40, 4},
	} {
		start := time.Now()
		ix, err := svd.Build(pts, svd.Options{Clusters: row.clusters, Dims: row.dims, Seed: 5})
		if err != nil {
			return t, err
		}
		buildDur := time.Since(start)
		var recallSum float64
		compared := 0
		qrng := rand.New(rand.NewSource(6))
		for q := 0; q < queries; q++ {
			target := pts[qrng.Intn(n)]
			approx, st, err := ix.NearestK(target, 10)
			if err != nil {
				return t, err
			}
			exact, err := svd.ExactNearestK(pts, target, 10)
			if err != nil {
				return t, err
			}
			recallSum += svd.Recall(approx, exact)
			compared += st.PointsCompared
		}
		t.Rows = append(t.Rows, []string{
			f("%d", row.clusters), f("%d", row.dims),
			f("%.2f", recallSum/float64(queries)),
			f("%d", compared/queries),
			buildDur.Round(time.Millisecond).String(),
		})
	}
	t.Notes = append(t.Notes,
		"recall rises with retained dimensions (full dims = near-exact) and the",
		"points compared fall with cluster count — the approximate-index trade-off",
		"the paper contrasts with Onion's exact model-specific retrieval.")
	return t, nil
}

// Ablations runs A1-A4.
func Ablations(cfg Config) ([]Table, error) {
	runs := []func(Config) (Table, error){A1, A2, A3, A4}
	out := make([]Table, 0, len(runs))
	for _, r := range runs {
		if err := cfg.ctx().Err(); err != nil {
			return out, err
		}
		tbl, err := r(cfg)
		if err != nil {
			return out, err
		}
		out = append(out, tbl)
	}
	return out, nil
}
