// Package experiments regenerates every quantitative claim of the paper
// (DESIGN.md §1, C1–C8) as a table. Each experiment returns rows of
// plain columns so repro/benchtab can print them and the root benchmarks
// can assert on their shape.
//
// Absolute numbers depend on the host; what must reproduce is the shape:
// who wins, by roughly what factor, and where the crossovers are.
package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"modelir/internal/bayes"
	"modelir/internal/core"
	"modelir/internal/features"
	"modelir/internal/fsm"
	"modelir/internal/linear"
	"modelir/internal/metrics"
	"modelir/internal/onion"
	"modelir/internal/progressive"
	"modelir/internal/pyramid"
	"modelir/internal/raster"
	"modelir/internal/sproc"
	"modelir/internal/synth"
	"modelir/repro/rtree"
)

// Table is one experiment's output.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Config scales the experiments. Quick mode shrinks data sizes so the
// full suite runs in seconds (used by tests); full mode matches the
// sizes quoted in EXPERIMENTS.md.
type Config struct {
	Quick bool
	// Ctx bounds experiment execution (benchtab's -timeout flag); nil
	// means context.Background(). The experiment driver checks it
	// between experiments.
	Ctx context.Context
}

// ctx returns the configured context, defaulting to Background.
func (c Config) ctx() context.Context {
	if c.Ctx == nil {
		return context.Background()
	}
	return c.Ctx
}

func f(format string, args ...any) string { return fmt.Sprintf(format, args...) }

// E1 reproduces claim C1: Onion vs sequential scan (and the R-tree
// baseline of Section 3.2) on 3-attribute Gaussian data.
func E1(cfg Config) (Table, error) {
	t := Table{
		ID:    "E1",
		Title: "Onion index vs sequential scan (3-attr Gaussian tuples), and R-tree baseline",
		Columns: []string{
			"N", "K", "scan pts", "onion pts", "pts speedup",
			"time speedup", "rtree pts", "onion layers",
		},
	}
	sizes := []int{10_000, 50_000, 200_000}
	queries := 20
	if cfg.Quick {
		sizes = []int{5_000, 20_000}
		queries = 5
	}
	for _, n := range sizes {
		pts, err := synth.GaussianTuples(101, n, 3)
		if err != nil {
			return t, err
		}
		ix, err := onion.Build(pts, onion.Options{})
		if err != nil {
			return t, err
		}
		rt, err := rtree.Build(pts, rtree.Options{})
		if err != nil {
			return t, err
		}
		rng := rand.New(rand.NewSource(7))
		for _, k := range []int{1, 10, 100} {
			var onionPts, scanPts, rtreePts, layers int
			var onionNS, scanNS int64
			for q := 0; q < queries; q++ {
				w := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}

				start := time.Now()
				got, ost, err := ix.TopK(w, k)
				if err != nil {
					return t, err
				}
				onionNS += time.Since(start).Nanoseconds()

				start = time.Now()
				want, sst, err := onion.ScanTopK(pts, w, k)
				if err != nil {
					return t, err
				}
				scanNS += time.Since(start).Nanoseconds()

				for i := range want {
					if got[i].ID != want[i].ID {
						return t, fmt.Errorf("E1: onion diverged from scan at N=%d K=%d", n, k)
					}
				}
				_, rst, err := rt.LinearTopK(w, k)
				if err != nil {
					return t, err
				}
				onionPts += ost.PointsTouched
				layers += ost.LayersScanned
				scanPts += sst.PointsTouched
				rtreePts += rst.PointsTouched
			}
			t.Rows = append(t.Rows, []string{
				f("%d", n), f("%d", k),
				f("%d", scanPts/queries), f("%d", onionPts/queries),
				f("%.0fx", float64(scanPts)/float64(onionPts)),
				f("%.0fx", float64(scanNS)/float64(onionNS)),
				f("%d", rtreePts/queries), f("%d", layers/queries),
			})
		}
	}
	t.Notes = append(t.Notes,
		"paper claim C1: 13,000x (top-1) and 1,400x (top-10) vs scan on the authors' testbed;",
		"shape to reproduce: orders-of-magnitude point reduction, larger for smaller K,",
		"and the R-tree (Section 3.2's incumbent) touching far more points than Onion.")
	return t, nil
}

// classScene builds the [13]-style land-cover classification workload:
// a smooth latent field is quantized into discrete cover classes, each
// class renders a distinct 3-band spectral signature plus sensor noise,
// and a Gaussian naive-Bayes classifier is trained on a sparse sample.
// Class regions are spatially coherent, so most pyramid blocks are pure —
// the regime in which progressive classification pays off.
func classScene(seed int64, w, h int) (*raster.Multiband, *bayes.GNB, error) {
	field, err := synth.SmoothField(seed, w, h, 4)
	if err != nil {
		return nil, nil, err
	}
	// Signatures: water, forest, cropland, built-up (digital numbers).
	sigs := [4][3]float64{
		{20, 15, 10},
		{60, 140, 40},
		{120, 180, 90},
		{180, 90, 170},
	}
	const noise = 6.0
	rng := rand.New(rand.NewSource(seed + 1))
	bands := [3]*raster.Grid{
		raster.MustGrid(w, h), raster.MustGrid(w, h), raster.MustGrid(w, h),
	}
	labelOf := func(x, y int) int {
		c := int(field.At(x, y) * 4)
		if c > 3 {
			c = 3
		}
		return c
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			c := labelOf(x, y)
			for b := 0; b < 3; b++ {
				bands[b].Set(x, y, sigs[c][b]+rng.NormFloat64()*noise)
			}
		}
	}
	mb, err := raster.Stack([]string{"b1", "b2", "b3"}, bands[0], bands[1], bands[2])
	if err != nil {
		return nil, nil, err
	}
	var xs [][]float64
	var labels []int
	for y := 0; y < h; y += 3 {
		for x := 0; x < w; x += 3 {
			xs = append(xs, mb.Pixel(x, y, nil))
			labels = append(labels, labelOf(x, y))
		}
	}
	g, err := bayes.TrainGNB(4, xs, labels)
	if err != nil {
		return nil, nil, err
	}
	return mb, g, nil
}

// E2 reproduces claim C2: progressive classification speedup [13].
func E2(cfg Config) (Table, error) {
	t := Table{
		ID:    "E2",
		Title: "Progressive classification on the pyramid vs flat per-pixel classification",
		Columns: []string{
			"scene", "flat evals", "prog evals", "eval speedup",
			"time speedup", "agreement",
		},
	}
	sizes := [][2]int{{256, 256}, {512, 512}}
	if cfg.Quick {
		sizes = [][2]int{{128, 128}}
	}
	for _, wh := range sizes {
		mb, g, err := classScene(31, wh[0], wh[1])
		if err != nil {
			return t, err
		}
		start := time.Now()
		flat, flatEvals, err := g.ClassifyScene(mb)
		if err != nil {
			return t, err
		}
		flatNS := time.Since(start).Nanoseconds()

		mp, err := pyramid.BuildMultiband(mb, 6)
		if err != nil {
			return t, err
		}
		start = time.Now()
		prog, st, err := g.ClassifyProgressiveOpts(mp, bayes.ProgressiveOptions{
			MarginThreshold: 10,
			MaxRange:        80,
		})
		if err != nil {
			return t, err
		}
		progNS := time.Since(start).Nanoseconds()

		agree := 0
		for i, v := range flat.Data() {
			if prog.Data()[i] == v {
				agree++
			}
		}
		t.Rows = append(t.Rows, []string{
			f("%dx%d", wh[0], wh[1]),
			f("%d", flatEvals), f("%d", st.TotalEvals()),
			f("%.1fx", float64(flatEvals)/float64(st.TotalEvals())),
			f("%.1fx", float64(flatNS)/float64(progNS)),
			f("%.1f%%", 100*float64(agree)/float64(len(flat.Data()))),
		})
	}
	t.Notes = append(t.Notes,
		"paper claim C2 ([13]): ~30x speedup from progressive classification in the",
		"compressed domain; shape: order-tens eval reduction with >95% label agreement.")
	return t, nil
}

// E3 reproduces claim C3: progressive texture matching speedup [12].
func E3(cfg Config) (Table, error) {
	t := Table{
		ID:    "E3",
		Title: "Progressive texture matching (coarse histogram prefilter + GLCM refine) vs flat",
		Columns: []string{
			"scene", "tiles", "flat GLCMs", "prog GLCMs",
			"GLCM speedup", "time speedup", "target found",
		},
	}
	sizes := [][2]int{{256, 256}, {512, 512}}
	keep := 0.15
	if cfg.Quick {
		sizes = [][2]int{{128, 128}}
		keep = 0.3
	}
	const tile = 32
	for _, wh := range sizes {
		w, h := wh[0], wh[1]
		rng := rand.New(rand.NewSource(77))
		g := raster.MustGrid(w, h)
		for i := range g.Data() {
			g.Data()[i] = 95 + rng.Float64()*10
		}
		// Plant a periodic texture tile.
		tx, ty := (w/tile/2)*tile, (h/tile/2)*tile
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
		q := features.TextureQuery{Bins: 8, Levels: 8, Lo: 0, Hi: 255, PrefilterKeep: keep}
		q.TargetHist, err = features.NewHistogram(coarse.Mean, cRect, q.Bins, q.Lo, q.Hi)
		if err != nil {
			return t, err
		}
		q.TargetTexture, err = features.GLCM(g, target, q.Levels, q.Lo, q.Hi)
		if err != nil {
			return t, err
		}

		start := time.Now()
		flat, fst, err := features.MatchFlat(g, tiles, q)
		if err != nil {
			return t, err
		}
		flatNS := time.Since(start).Nanoseconds()
		start = time.Now()
		prog, pst, err := features.MatchProgressive(p, tiles, q, coarseLevel)
		if err != nil {
			return t, err
		}
		progNS := time.Since(start).Nanoseconds()

		found := flat[0].Tile == target && prog[0].Tile == target
		t.Rows = append(t.Rows, []string{
			f("%dx%d", w, h), f("%d", len(tiles)),
			f("%d", fst.FullGLCMs), f("%d", pst.FullGLCMs),
			f("%.1fx", float64(fst.FullGLCMs)/float64(pst.FullGLCMs)),
			f("%.1fx", float64(flatNS)/float64(progNS)),
			f("%v", found),
		})
	}
	t.Notes = append(t.Notes,
		"paper claim C3 ([12]): 4-8x speedup from progressive feature extraction;",
		"shape: single-digit-multiple speedup with the planted target still ranked first.")
	return t, nil
}

// E4 reproduces claim C4: SPROC complexity vs brute force.
func E4(cfg Config) (Table, error) {
	t := Table{
		ID:    "E4",
		Title: "SPROC fuzzy Cartesian queries: brute force O(L^M) vs DP O(MKL^2) vs sorted-pruned",
		Columns: []string{
			"L", "M", "brute tuples", "dp pair evals", "pruned pair evals",
			"dp time", "pruned time", "agree",
		},
	}
	ls := []int{50, 100, 200, 400}
	ms := []int{2, 3}
	const k = 10
	if cfg.Quick {
		ls = []int{30, 60}
		ms = []int{2}
	}
	for _, m := range ms {
		for _, l := range ls {
			q := randomSprocQuery(int64(l*10+m), l, m)

			bruteCount := "-"
			total := 1
			overflow := false
			for i := 0; i < m; i++ {
				total *= l
				if total > sproc.MaxBruteForceTuples {
					overflow = true
					break
				}
			}
			var bf []sproc.Match
			if !overflow {
				var bst sproc.Stats
				var err error
				bf, bst, err = sproc.BruteForce(l, q, k)
				if err != nil {
					return t, err
				}
				bruteCount = f("%d", bst.TuplesConsidered)
			}

			start := time.Now()
			dp, dst, err := sproc.DP(l, q, k)
			if err != nil {
				return t, err
			}
			dpDur := time.Since(start)
			start = time.Now()
			pr, pst, err := sproc.Pruned(l, q, k)
			if err != nil {
				return t, err
			}
			prDur := time.Since(start)

			agree := true
			for i := range dp {
				if math.Abs(dp[i].Score-pr[i].Score) > 1e-12 {
					agree = false
				}
				if bf != nil && math.Abs(dp[i].Score-bf[i].Score) > 1e-12 {
					agree = false
				}
			}
			t.Rows = append(t.Rows, []string{
				f("%d", l), f("%d", m), bruteCount,
				f("%d", dst.PairEvals), f("%d", pst.PairEvals),
				dpDur.Round(time.Microsecond).String(),
				prDur.Round(time.Microsecond).String(),
				f("%v", agree),
			})
		}
	}
	t.Notes = append(t.Notes,
		"paper claim C4: O(L^M) -> O(MKL^2) [15] -> O(ML log L + ...) [16];",
		"shape: brute tuples explode exponentially in M while DP grows ~L^2 and the",
		"pruned variant stays below DP; all three agree exactly on top-K scores.")
	return t, nil
}

func randomSprocQuery(seed int64, l, m int) sproc.Query {
	rng := rand.New(rand.NewSource(seed))
	unary := make([][]float64, m)
	for mi := range unary {
		unary[mi] = make([]float64, l)
		for j := range unary[mi] {
			// Sparse high grades: realistic selective rules.
			if rng.Float64() < 0.1 {
				unary[mi][j] = 0.5 + 0.5*rng.Float64()
			} else {
				unary[mi][j] = 0.4 * rng.Float64()
			}
		}
	}
	pair := make([]float64, l*l)
	for i := range pair {
		pair[i] = rng.Float64()
	}
	return sproc.Query{
		M:     m,
		Unary: func(mi, item int) float64 { return unary[mi][item] },
		Pair:  func(mi, a, b int) float64 { return pair[a*l+b] },
	}
}

// E5 reproduces claim C5: combined progressive model × data speedup.
func E5(cfg Config) (Table, error) {
	t := Table{
		ID:    "E5",
		Title: "Progressive model x progressive data: work reduction vs flat execution",
		Columns: []string{
			"scene", "model", "K", "flat work", "pm (model)", "pd (data)", "combined",
		},
	}
	sizes := []int{256, 512}
	ks := []int{10, 100}
	if cfg.Quick {
		sizes = []int{128}
		ks = []int{10}
	}
	lo := []float64{0, 0, 0, 0}
	hi := []float64{255, 255, 255, 1500}
	// The published HPS coefficients only mildly favor the leading terms;
	// the "dominant" variant realizes the paper's |a1,a2| >> |a3,a4|
	// premise, isolating what pm contributes when the premise holds.
	domModel, err := linear.New(
		[]string{"b4", "b5", "b7", "elev"},
		[]float64{0.9, 0.02, 0.01, 0.15}, 0)
	if err != nil {
		return t, err
	}
	models := []struct {
		name   string
		m      *linear.Model
		levels []int
	}{
		{"hps", linear.HPSRisk(), []int{2, 4}},
		{"dominant", domModel, []int{2, 4}},
	}
	for _, size := range sizes {
		sc, err := synth.LandsatScene(synth.SceneConfig{Seed: 55, W: size, H: size})
		if err != nil {
			return t, err
		}
		mp, err := pyramid.BuildMultiband(sc.Bands, 6)
		if err != nil {
			return t, err
		}
		for _, mv := range models {
			pm, err := linear.Decompose(mv.m, lo, hi, mv.levels...)
			if err != nil {
				return t, err
			}
			for _, k := range ks {
				sp, _, err := progressive.Compare(pm, mp, k)
				if err != nil {
					return t, err
				}
				t.Rows = append(t.Rows, []string{
					f("%dx%d", size, size), mv.name, f("%d", k),
					f("%d", sp.FlatWork),
					f("%.1fx", sp.Pm()), f("%.1fx", sp.Pd()), f("%.1fx", sp.PmPd()),
				})
			}
		}
	}
	t.Notes = append(t.Notes,
		"paper claim C5: O(nN) -> O(nN/(pm*pd));",
		"shape: combined >= max(pm, pd); pm is material only when the term-dominance",
		"premise holds (the published HPS weights are close to uniform after span",
		"weighting, so pm is small there); all four strategies return identical",
		"result sets (verified internally).")
	return t, nil
}

// E6 reproduces claim C6: the Section 4.1 accuracy metrics.
func E6(cfg Config) (Table, error) {
	t := Table{
		ID:    "E6",
		Title: "Model accuracy (Section 4.1): threshold sweep, cost trade-off, precision/recall@K",
		Columns: []string{
			"T", "Pm", "Pf", "CT(cm=1,cf=1)", "CT(cm=10,cf=1)", "CT(cm=1,cf=10)",
		},
	}
	size := 256
	steps := 9
	if cfg.Quick {
		size = 96
		steps = 5
	}
	sc, err := synth.LandsatScene(synth.SceneConfig{Seed: 66, W: size, H: size})
	if err != nil {
		return t, err
	}
	mp, err := pyramid.BuildMultiband(sc.Bands, 4)
	if err != nil {
		return t, err
	}
	surface, err := progressive.RiskSurface(linear.HPSRisk(), mp)
	if err != nil {
		return t, err
	}
	norm := surface.Clone()
	lo, hi := norm.MinMax()
	norm.Apply(func(v float64) float64 { return (v - lo) / (hi - lo) })
	occ, err := synth.Outbreak(synth.OutbreakConfig{Seed: 67, BaseRate: -3}, norm)
	if err != nil {
		return t, err
	}
	weights, err := synth.PopulationWeights(68, size, size)
	if err != nil {
		return t, err
	}
	balanced, err := metrics.Sweep(surface, occ, weights, metrics.Costs{Miss: 1, FalseAlarm: 1}, steps)
	if err != nil {
		return t, err
	}
	missHeavy, err := metrics.Sweep(surface, occ, weights, metrics.Costs{Miss: 10, FalseAlarm: 1}, steps)
	if err != nil {
		return t, err
	}
	faHeavy, err := metrics.Sweep(surface, occ, weights, metrics.Costs{Miss: 1, FalseAlarm: 10}, steps)
	if err != nil {
		return t, err
	}
	for i := range balanced {
		t.Rows = append(t.Rows, []string{
			f("%.1f", balanced[i].Threshold),
			f("%.3f", balanced[i].Pm), f("%.3f", balanced[i].Pf),
			f("%.0f", balanced[i].Cost), f("%.0f", missHeavy[i].Cost), f("%.0f", faHeavy[i].Cost),
		})
	}
	bm, err := metrics.BestThreshold(missHeavy)
	if err != nil {
		return t, err
	}
	bf, err := metrics.BestThreshold(faHeavy)
	if err != nil {
		return t, err
	}
	pr, err := metrics.PRAtK(surface, occ, []int{10, 50, 100})
	if err != nil {
		return t, err
	}
	t.Notes = append(t.Notes,
		f("optimal T shifts with costs: %.1f (miss-heavy) < %.1f (false-alarm-heavy)",
			bm.Threshold, bf.Threshold),
		f("precision@10/50/100 = %.2f/%.2f/%.2f, recall = %.4f/%.4f/%.4f",
			pr[10][0], pr[50][0], pr[100][0], pr[10][1], pr[50][1], pr[100][1]),
		"shape: Pm rises and Pf falls monotonically in T; CT is U-shaped; the optimum",
		"moves left when misses are expensive and right when false alarms are.")
	return t, nil
}

// E7 reproduces claim C7: fire-ants finite-state retrieval (Fig. 1).
func E7(cfg Config) (Table, error) {
	t := Table{
		ID:    "E7",
		Title: "Fire-ants FSM retrieval over the weather archive: flat scan vs metadata pruning",
		Columns: []string{
			"regions", "days", "flat days", "pruned days", "regions skipped",
			"scan speedup", "top-10 agree",
		},
	}
	configs := []synth.WeatherConfig{
		{Seed: 71, Regions: 500, Days: 730, MeanTempC: 16},
		{Seed: 72, Regions: 2000, Days: 730, MeanTempC: 16},
	}
	if cfg.Quick {
		configs = []synth.WeatherConfig{{Seed: 71, Regions: 200, Days: 365, MeanTempC: 16}}
	}
	for _, wc := range configs {
		arch, err := synth.WeatherArchive(wc)
		if err != nil {
			return t, err
		}
		e := core.NewEngineWith(core.Options{CacheEntries: -1})
		if err := e.AddSeries("w", arch); err != nil {
			return t, err
		}
		m := fsm.FireAnts()
		run := func(pre core.FSMPrefilter) (core.Result, error) {
			return e.Run(context.Background(), core.Request{
				Dataset: "w",
				Query:   core.FSMQuery{Machine: m, Prefilter: pre},
				K:       10,
			})
		}
		flat, err := run(nil)
		if err != nil {
			return t, err
		}
		pruned, err := run(core.FireAntsPrefilter)
		if err != nil {
			return t, err
		}
		agree := len(flat.Items) == len(pruned.Items)
		for i := range flat.Items {
			if !agree || flat.Items[i].ID != pruned.Items[i].ID {
				agree = false
				break
			}
		}
		fst, pst := flat.Stats, pruned.Stats
		speedup := "-"
		if pst.Evaluations > 0 {
			speedup = f("%.1fx", float64(fst.Evaluations)/float64(pst.Evaluations))
		}
		t.Rows = append(t.Rows, []string{
			f("%d", wc.Regions), f("%d", wc.Days),
			f("%d", fst.Evaluations), f("%d", pst.Evaluations),
			f("%d/%d", pst.Pruned, pst.Examined+pst.Pruned),
			speedup, f("%v", agree),
		})
	}
	t.Notes = append(t.Notes,
		"claim C7 (Fig. 1): the finite-state model retrieves fly-risk regions; the",
		"metadata abstraction level (dry-spell summaries) soundly skips regions whose",
		"summaries prove a zero score, without changing the result set.")
	return t, nil
}

// E8 reproduces claim C8: the geology knowledge model (Fig. 4).
func E8(cfg Config) (Table, error) {
	t := Table{
		ID:    "E8",
		Title: "Geology knowledge model (Fig. 4): riverbed retrieval from well logs via SPROC",
		Columns: []string{
			"wells", "method", "evaluations", "time", "planted recall", "top-K agree",
		},
	}
	nWells := 300
	if cfg.Quick {
		nWells = 60
	}
	wells, planted, err := synth.WellArchive(synth.WellConfig{Seed: 81, Wells: nWells})
	if err != nil {
		return t, err
	}
	e := core.NewEngineWith(core.Options{CacheEntries: -1})
	if err := e.AddWells("basin", wells); err != nil {
		return t, err
	}
	q := core.GeologyQuery{
		Sequence: []synth.Lithology{synth.Shale, synth.Sandstone, synth.Siltstone},
		MaxGapFt: 10,
		MinGamma: 45,
	}
	type res struct {
		matches []core.WellMatch
		stats   core.QueryStats
		dur     time.Duration
	}
	methods := []struct {
		name string
		m    core.GeologyMethod
	}{
		{"brute", core.GeoBruteForce}, {"dp", core.GeoDP}, {"pruned", core.GeoPruned},
	}
	results := make(map[string]res, len(methods))
	for _, mm := range methods {
		start := time.Now()
		q.Method = mm.m
		r, err := e.Run(context.Background(), core.Request{Dataset: "basin", Query: q, K: nWells})
		if err != nil {
			return t, err
		}
		matches, err := core.WellMatches(r.Items)
		if err != nil {
			return t, err
		}
		results[mm.name] = res{matches: matches, stats: r.Stats, dur: time.Since(start)}
	}
	recallOf := func(r res) string {
		got := make(map[int]bool)
		for _, m := range r.matches {
			if m.Score >= 0.999 {
				got[m.Well] = true
			}
		}
		hits := 0
		for _, w := range planted {
			if got[w] {
				hits++
			}
		}
		return f("%d/%d", hits, len(planted))
	}
	ref := results["dp"]
	for _, mm := range methods {
		r := results[mm.name]
		agree := len(r.matches) == len(ref.matches)
		for i := range r.matches {
			if !agree || r.matches[i].Well != ref.matches[i].Well ||
				math.Abs(r.matches[i].Score-ref.matches[i].Score) > 1e-12 {
				agree = false
				break
			}
		}
		t.Rows = append(t.Rows, []string{
			f("%d", nWells), mm.name,
			f("%d", r.stats.Evaluations),
			r.dur.Round(time.Microsecond).String(),
			recallOf(r), f("%v", agree),
		})
	}
	t.Notes = append(t.Notes,
		"claim C8 (Fig. 4): shale-on-sandstone-on-siltstone with gamma > 45;",
		"shape: all methods retrieve every planted riverbed; dp and pruned are one",
		"floored evaluator in the engine (equal work), far below brute force.")
	return t, nil
}

// All runs every experiment in order.
func All(cfg Config) ([]Table, error) {
	runs := []func(Config) (Table, error){E1, E2, E3, E4, E5, E6, E7, E8}
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

// ByID returns the experiment runner for an id like "e3".
func ByID(id string) (func(Config) (Table, error), bool) {
	switch id {
	case "e1", "E1":
		return E1, true
	case "e2", "E2":
		return E2, true
	case "e3", "E3":
		return E3, true
	case "e4", "E4":
		return E4, true
	case "e5", "E5":
		return E5, true
	case "e6", "E6":
		return E6, true
	case "e7", "E7":
		return E7, true
	case "e8", "E8":
		return E8, true
	case "a1", "A1":
		return A1, true
	case "a2", "A2":
		return A2, true
	case "a3", "A3":
		return A3, true
	case "a4", "A4":
		return A4, true
	default:
		return nil, false
	}
}
