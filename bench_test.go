// Benchmarks regenerating the paper's evaluation, one family per
// experiment (E1-E8; see DESIGN.md §3), plus the engine's shard-scaling
// and serving costs. `go test -bench=. -benchmem` reports the
// micro-level costs; `go run ./repro/benchtab` prints the corresponding
// tables with speedup ratios.
package modelir_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"modelir/internal/bayes"
	"modelir/internal/colstore"
	"modelir/internal/core"
	"modelir/internal/features"
	"modelir/internal/fsm"
	"modelir/internal/linear"
	"modelir/internal/metrics"
	"modelir/internal/onion"
	"modelir/internal/parallel"
	"modelir/internal/progressive"
	"modelir/internal/pyramid"
	"modelir/internal/raster"
	"modelir/internal/sproc"
	"modelir/internal/synth"
	"modelir/internal/topk"
	"modelir/repro/rtree"
)

// ---- E1: Onion vs scan vs R-tree on 3-attr Gaussian tuples ----

var e1Data = sync.OnceValues(func() (struct {
	pts   [][]float64
	onion *onion.Index
	rtree *rtree.Tree
	ws    [][]float64
}, error) {
	var out struct {
		pts   [][]float64
		onion *onion.Index
		rtree *rtree.Tree
		ws    [][]float64
	}
	pts, err := synth.GaussianTuples(101, 50_000, 3)
	if err != nil {
		return out, err
	}
	ix, err := onion.Build(pts, onion.Options{})
	if err != nil {
		return out, err
	}
	rt, err := rtree.Build(pts, rtree.Options{})
	if err != nil {
		return out, err
	}
	rng := rand.New(rand.NewSource(5))
	ws := make([][]float64, 32)
	for i := range ws {
		ws[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	out.pts, out.onion, out.rtree, out.ws = pts, ix, rt, ws
	return out, nil
})

func benchOnionK(b *testing.B, k int) {
	d, err := e1Data()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := d.onion.TopK(d.ws[i&31], k); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1OnionTop1(b *testing.B)   { benchOnionK(b, 1) }
func BenchmarkE1OnionTop10(b *testing.B)  { benchOnionK(b, 10) }
func BenchmarkE1OnionTop100(b *testing.B) { benchOnionK(b, 100) }

func BenchmarkE1SequentialScanTop10(b *testing.B) {
	d, err := e1Data()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := onion.ScanTopK(d.pts, d.ws[i&31], 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1RTreeTop10(b *testing.B) {
	d, err := e1Data()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := d.rtree.LinearTopK(d.ws[i&31], 10); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E2: progressive classification ----

var e2Data = sync.OnceValues(func() (struct {
	mb  *raster.Multiband
	gnb *bayes.GNB
	mp  *pyramid.MultibandPyramid
}, error) {
	var out struct {
		mb  *raster.Multiband
		gnb *bayes.GNB
		mp  *pyramid.MultibandPyramid
	}
	field, err := synth.SmoothField(31, 256, 256, 4)
	if err != nil {
		return out, err
	}
	sigs := [4][3]float64{{20, 15, 10}, {60, 140, 40}, {120, 180, 90}, {180, 90, 170}}
	rng := rand.New(rand.NewSource(32))
	bands := [3]*raster.Grid{
		raster.MustGrid(256, 256), raster.MustGrid(256, 256), raster.MustGrid(256, 256),
	}
	labelOf := func(x, y int) int {
		c := int(field.At(x, y) * 4)
		if c > 3 {
			c = 3
		}
		return c
	}
	for y := 0; y < 256; y++ {
		for x := 0; x < 256; x++ {
			c := labelOf(x, y)
			for bd := 0; bd < 3; bd++ {
				bands[bd].Set(x, y, sigs[c][bd]+rng.NormFloat64()*6)
			}
		}
	}
	mb, err := raster.Stack([]string{"b1", "b2", "b3"}, bands[0], bands[1], bands[2])
	if err != nil {
		return out, err
	}
	var xs [][]float64
	var labels []int
	for y := 0; y < 256; y += 3 {
		for x := 0; x < 256; x += 3 {
			xs = append(xs, mb.Pixel(x, y, nil))
			labels = append(labels, labelOf(x, y))
		}
	}
	gnb, err := bayes.TrainGNB(4, xs, labels)
	if err != nil {
		return out, err
	}
	mp, err := pyramid.BuildMultiband(mb, 6)
	if err != nil {
		return out, err
	}
	out.mb, out.gnb, out.mp = mb, gnb, mp
	return out, nil
})

func BenchmarkE2FlatClassification(b *testing.B) {
	d, err := e2Data()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := d.gnb.ClassifyScene(d.mb); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE2ProgressiveClassification(b *testing.B) {
	d, err := e2Data()
	if err != nil {
		b.Fatal(err)
	}
	opt := bayes.ProgressiveOptions{MarginThreshold: 10, MaxRange: 80}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := d.gnb.ClassifyProgressiveOpts(d.mp, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E3: progressive texture matching ----

var e3Data = sync.OnceValues(func() (struct {
	g     *raster.Grid
	p     *pyramid.Pyramid
	tiles []raster.Rect
	q     features.TextureQuery
}, error) {
	var out struct {
		g     *raster.Grid
		p     *pyramid.Pyramid
		tiles []raster.Rect
		q     features.TextureQuery
	}
	const w, h, tile = 256, 256, 32
	rng := rand.New(rand.NewSource(77))
	g := raster.MustGrid(w, h)
	for i := range g.Data() {
		g.Data()[i] = 95 + rng.Float64()*10
	}
	tx, ty := 128, 128
	for y := 0; y < tile; y++ {
		for x := 0; x < tile; x++ {
			v := 50.0
			if ((x/4)+(y/4))%2 == 0 {
				v = 200
			}
			g.Set(tx+x, ty+y, v)
		}
	}
	p, err := pyramid.Build(g, 4)
	if err != nil {
		return out, err
	}
	target := raster.Rect{X0: tx, Y0: ty, X1: tx + tile, Y1: ty + tile}
	coarse := p.Level(2)
	cRect := raster.Rect{
		X0: target.X0 / coarse.Scale, Y0: target.Y0 / coarse.Scale,
		X1: target.X1 / coarse.Scale, Y1: target.Y1 / coarse.Scale,
	}
	q := features.TextureQuery{Bins: 8, Levels: 8, Lo: 0, Hi: 255, PrefilterKeep: 0.15}
	q.TargetHist, err = features.NewHistogram(coarse.Mean, cRect, q.Bins, q.Lo, q.Hi)
	if err != nil {
		return out, err
	}
	q.TargetTexture, err = features.GLCM(g, target, q.Levels, q.Lo, q.Hi)
	if err != nil {
		return out, err
	}
	out.g, out.p, out.tiles, out.q = g, p, g.Tiles(tile), q
	return out, nil
})

func BenchmarkE3FlatTextureMatch(b *testing.B) {
	d, err := e3Data()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := features.MatchFlat(d.g, d.tiles, d.q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE3ProgressiveTextureMatch(b *testing.B) {
	d, err := e3Data()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := features.MatchProgressive(d.p, d.tiles, d.q, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E4: SPROC evaluators ----

var e4Query = sync.OnceValue(func() sproc.Query {
	const l, m = 100, 3
	rng := rand.New(rand.NewSource(40))
	unary := make([][]float64, m)
	for mi := range unary {
		unary[mi] = make([]float64, l)
		for j := range unary[mi] {
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
})

func BenchmarkE4SprocBruteForce(b *testing.B) {
	q := e4Query()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sproc.BruteForce(100, q, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE4SprocDP(b *testing.B) {
	q := e4Query()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sproc.DP(100, q, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE4SprocPruned(b *testing.B) {
	q := e4Query()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sproc.Pruned(100, q, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E5: progressive model x progressive data ----

var e5Data = sync.OnceValues(func() (struct {
	mp *pyramid.MultibandPyramid
	pm *linear.ProgressiveModel
}, error) {
	var out struct {
		mp *pyramid.MultibandPyramid
		pm *linear.ProgressiveModel
	}
	sc, err := synth.LandsatScene(synth.SceneConfig{Seed: 55, W: 256, H: 256})
	if err != nil {
		return out, err
	}
	mp, err := pyramid.BuildMultiband(sc.Bands, 6)
	if err != nil {
		return out, err
	}
	pm, err := linear.Decompose(linear.HPSRisk(),
		[]float64{0, 0, 0, 0}, []float64{255, 255, 255, 1500}, 2, 4)
	if err != nil {
		return out, err
	}
	out.mp, out.pm = mp, pm
	return out, nil
})

func BenchmarkE5FlatRetrieval(b *testing.B) {
	d, err := e5Data()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := progressive.Flat(d.pm.Full(), d.mp, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE5ProgModelRetrieval(b *testing.B) {
	d, err := e5Data()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := progressive.ProgModel(d.pm, d.mp, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE5ProgDataRetrieval(b *testing.B) {
	d, err := e5Data()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := progressive.ProgData(d.pm.Full(), d.mp, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE5CombinedRetrieval(b *testing.B) {
	d, err := e5Data()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := progressive.Combined(d.pm, d.mp, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E6: accuracy metrics ----

var e6Data = sync.OnceValues(func() (struct {
	risk, occ, weights *raster.Grid
}, error) {
	var out struct {
		risk, occ, weights *raster.Grid
	}
	sc, err := synth.LandsatScene(synth.SceneConfig{Seed: 66, W: 256, H: 256})
	if err != nil {
		return out, err
	}
	mp, err := pyramid.BuildMultiband(sc.Bands, 4)
	if err != nil {
		return out, err
	}
	risk, err := progressive.RiskSurface(linear.HPSRisk(), mp)
	if err != nil {
		return out, err
	}
	norm := risk.Clone()
	lo, hi := norm.MinMax()
	norm.Apply(func(v float64) float64 { return (v - lo) / (hi - lo) })
	occ, err := synth.Outbreak(synth.OutbreakConfig{Seed: 67, BaseRate: -3}, norm)
	if err != nil {
		return out, err
	}
	weights, err := synth.PopulationWeights(68, 256, 256)
	if err != nil {
		return out, err
	}
	out.risk, out.occ, out.weights = risk, occ, weights
	return out, nil
})

func BenchmarkE6ThresholdSweep(b *testing.B) {
	d, err := e6Data()
	if err != nil {
		b.Fatal(err)
	}
	costs := metrics.Costs{Miss: 10, FalseAlarm: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := metrics.Sweep(d.risk, d.occ, d.weights, costs, 16); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE6PrecisionRecallAtK(b *testing.B) {
	d, err := e6Data()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := metrics.PRAtK(d.risk, d.occ, []int{10, 50, 100}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E7: fire-ants FSM retrieval ----

var e7Engine = sync.OnceValues(func() (*core.Engine, error) {
	arch, err := synth.WeatherArchive(synth.WeatherConfig{
		Seed: 71, Regions: 500, Days: 730, MeanTempC: 16,
	})
	if err != nil {
		return nil, err
	}
	// Timing engines disable the serving-layer result cache: these
	// benchmarks measure execution, and a repeated identical query
	// would otherwise be served from memory after the first rep.
	e := core.NewEngineWith(core.Options{CacheEntries: -1})
	if err := e.AddSeries("w", arch); err != nil {
		return nil, err
	}
	return e, nil
})

func BenchmarkE7FSMFlatScan(b *testing.B) {
	e, err := e7Engine()
	if err != nil {
		b.Fatal(err)
	}
	req := core.Request{Dataset: "w", Query: core.FSMQuery{Machine: fsm.FireAnts()}, K: 10}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE7FSMMetadataPruned(b *testing.B) {
	e, err := e7Engine()
	if err != nil {
		b.Fatal(err)
	}
	req := core.Request{
		Dataset: "w",
		Query:   core.FSMQuery{Machine: fsm.FireAnts(), Prefilter: core.FireAntsPrefilter},
		K:       10,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- The finite-state scan layer ----

// BenchmarkFSMScan times the engine's finite-state scan over the load
// benchmark's weather shape (1,000 regions x 365 days, default shards,
// cache off): one Run of the fire-ants fsm query and one of the
// fsm-distance query at horizon 8, each over every region. ns/day is
// the request's wall time per day scanned, compile of the step table
// included.
func BenchmarkFSMScan(b *testing.B) {
	const regions, days = 1000, 365
	arch, err := synth.WeatherArchive(synth.WeatherConfig{Seed: 3, Regions: regions, Days: days})
	if err != nil {
		b.Fatal(err)
	}
	e := core.NewEngineWith(core.Options{CacheEntries: -1})
	defer e.Close()
	if err := e.AddSeries("weather", arch); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		q    core.Query
	}{
		{"fsm", core.FSMQuery{Machine: fsm.FireAnts()}},
		{"fsm-distance", core.FSMDistanceQuery{Target: fsm.FireAnts(), Horizon: 8}},
	} {
		b.Run(c.name, func(b *testing.B) {
			req := core.Request{Dataset: "weather", Query: c.q, K: 10}
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := e.Run(ctx, req)
				if err != nil {
					b.Fatal(err)
				}
				if res.Stats.Evaluations != regions*days {
					b.Fatalf("scanned %d days, want %d", res.Stats.Evaluations, regions*days)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*regions*days), "ns/day")
		})
	}
}

// ---- E8: geology knowledge model ----

var e8Engine = sync.OnceValues(func() (*core.Engine, error) {
	wells, _, err := synth.WellArchive(synth.WellConfig{Seed: 81, Wells: 300})
	if err != nil {
		return nil, err
	}
	e := core.NewEngineWith(core.Options{CacheEntries: -1})
	if err := e.AddWells("basin", wells); err != nil {
		return nil, err
	}
	return e, nil
})

var e8Query = core.GeologyQuery{
	Sequence: []synth.Lithology{synth.Shale, synth.Sandstone, synth.Siltstone},
	MaxGapFt: 10,
	MinGamma: 45,
}

func benchGeology(b *testing.B, m core.GeologyMethod) {
	e, err := e8Engine()
	if err != nil {
		b.Fatal(err)
	}
	q := e8Query
	q.Method = m
	req := core.Request{Dataset: "basin", Query: q, K: 10}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE8GeologyBruteForce(b *testing.B) { benchGeology(b, core.GeoBruteForce) }
func BenchmarkE8GeologyDP(b *testing.B)         { benchGeology(b, core.GeoDP) }
func BenchmarkE8GeologyPruned(b *testing.B)     { benchGeology(b, core.GeoPruned) }

// ---- Shard scaling of the tuple engine ----

// shardWorkload is the scan-bound archive and model the shard-scaling,
// serving and columnar-scan benchmarks share: 100,000 8-dimensional
// Gaussian tuples. At 8 dimensions the zone-map and norm bounds are
// loose and a query scores a large share of the rows, making it
// scan-bound — the workload shard fan-out exists for.
func shardWorkload() ([][]float64, *linear.Model, error) {
	pts, err := synth.GaussianTuples(91, 100_000, 8)
	if err != nil {
		return nil, nil, err
	}
	m, err := linear.New(
		[]string{"a", "b", "c", "d", "e", "f", "g", "h"},
		[]float64{1, -0.5, 2, 0.25, -1.5, 0.75, -0.25, 1.25}, 0)
	if err != nil {
		return nil, nil, err
	}
	return pts, m, nil
}

// shardData is shardWorkload, built once. On a multi-core host the
// sub-benchmarks of BenchmarkLinearTopKSharded trace the speedup curve;
// GOMAXPROCS=1 shows break-even overhead.
var shardData = sync.OnceValues(func() (struct {
	pts [][]float64
	m   *linear.Model
}, error) {
	var out struct {
		pts [][]float64
		m   *linear.Model
	}
	pts, m, err := shardWorkload()
	if err != nil {
		return out, err
	}
	out.pts, out.m = pts, m
	return out, nil
})

func BenchmarkLinearTopKSharded(b *testing.B) {
	d, err := shardData()
	if err != nil {
		b.Fatal(err)
	}
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			e := core.NewEngineWith(core.Options{Shards: shards, CacheEntries: -1})
			if err := e.AddTuples("t", d.pts); err != nil {
				b.Fatal(err)
			}
			// First query builds the per-shard indexes; keep that out
			// of the timed region.
			ctx := context.Background()
			req := core.Request{Dataset: "t", Query: core.LinearQuery{Model: d.m}, K: 10}
			if _, err := e.Run(ctx, req); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(ctx, req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Unified Run API overhead vs the direct unit queue ----

// BenchmarkRunOverhead pins the cost of the Engine.Run request plumbing
// (Request validation, ctx checks, stats normalization) against a raw
// block queue over the same per-shard stores and workload: the
// difference is what the request API costs the hot path.
func BenchmarkRunOverhead(b *testing.B) {
	d, err := shardData()
	if err != nil {
		b.Fatal(err)
	}
	e := core.NewEngineWith(core.Options{Shards: 4, CacheEntries: -1})
	if err := e.AddTuples("t", d.pts); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	req := core.Request{Dataset: "t", Query: core.LinearQuery{Model: d.m}, K: 10}
	// First query warms the scratch pools outside the timed region.
	if _, err := e.Run(ctx, req); err != nil {
		b.Fatal(err)
	}

	b.Run("unified-run", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := e.Run(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("direct-queue", func(b *testing.B) {
		// The execution core without Request plumbing: one block queue
		// over per-shard norm-ordered stores like the engine's, drained
		// by parallel.TopK.
		stores := make([]*colstore.Store, 4)
		offs := make([]int, 4)
		n := len(d.pts)
		for s := 0; s < 4; s++ {
			lo, hi := s*n/4, (s+1)*n/4
			st, err := colstore.Build(d.pts[lo:hi], colstore.Options{})
			if err != nil {
				b.Fatal(err)
			}
			stores[s], offs[s] = st, lo
		}
		wNorm := colstore.WeightNorm(d.m.Coeffs)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q := colstore.GetBlockQueue(d.m.Coeffs, wNorm, nil)
			for s, st := range stores {
				q.Add(st, int64(offs[s]))
			}
			_, err := parallel.TopK(ctx, q, 10, nil)
			q.Release()
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- Group commit under concurrent appenders ----

// BenchmarkAppenderConcurrent measures how many appends core.Appender's
// group commit folds into one: 1, 4 and 16 goroutines append 1-row
// batches to one 3-wide tuple dataset (2 shards, cache off).
// gens/append is the dataset's generation bumps per append: 1 when every
// append is its own flush, lower as concurrent callers share flushes.
func BenchmarkAppenderConcurrent(b *testing.B) {
	pts, err := synth.GaussianTuples(51, 1000, 3)
	if err != nil {
		b.Fatal(err)
	}
	row := pts[:1]
	for _, g := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			e := core.NewEngineWith(core.Options{Shards: 2, CacheEntries: -1})
			defer e.Close()
			if err := e.AddTuples("t", pts); err != nil {
				b.Fatal(err)
			}
			a := core.NewAppender(e, core.AppenderOptions{})
			defer a.Close()
			gen0 := e.Datasets()[0].Gen
			ctx := context.Background()
			var wg sync.WaitGroup
			b.ResetTimer()
			for w := 0; w < g; w++ {
				n := b.N / g
				if w < b.N%g {
					n++
				}
				wg.Add(1)
				go func(n int) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						if err := a.AppendTuples(ctx, "t", row); err != nil {
							b.Error(err)
							return
						}
					}
				}(n)
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(e.Datasets()[0].Gen-gen0)/float64(b.N), "gens/append")
		})
	}
}

// ---- Linear reads over live delta segments ----

// BenchmarkRunLinearDeltas is the in-process shape of the load
// benchmark's ingest_reads workload: unique linear reads of a 20,000 x 3
// stream-shaped tuple set on 2 shards carrying 6 live 128-row deltas,
// K log-uniform in 10-200, cache off. Every base shard and delta scans
// under the request's shared floor, so this is where rows below that
// floor used to churn the shard-local heaps. The first append leaves a
// one-row gap in the ID space, which pins the set against compaction
// (the tier rule would fold four equal deltas into one): all six stay
// live for the whole run.
func BenchmarkRunLinearDeltas(b *testing.B) {
	const rows, dim, deltas, deltaRows = 20_000, 3, 6, 128
	pts, err := synth.GaussianTuples(41, rows+deltas*deltaRows, dim)
	if err != nil {
		b.Fatal(err)
	}
	e := core.NewEngineWith(core.Options{Shards: 2, CacheEntries: -1})
	defer e.Close()
	if err := e.AddTuples("stream", pts[:rows]); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < deltas; i++ {
		batch := pts[rows+i*deltaRows : rows+(i+1)*deltaRows]
		if i == 0 {
			err = e.AppendTuplesAt("stream", rows+1, batch)
		} else {
			err = e.AppendTuples("stream", batch)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	if ds := e.Datasets()[0]; ds.Deltas != deltas {
		b.Fatalf("%d live deltas, want %d", ds.Deltas, deltas)
	}
	rng := rand.New(rand.NewSource(43))
	reqs := make([]core.Request, 256)
	for i := range reqs {
		m, err := linear.New([]string{"a", "b", "c"},
			[]float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}, 0)
		if err != nil {
			b.Fatal(err)
		}
		k := int(math.Round(10 * math.Pow(20, rng.Float64()))) // log-uniform in [10, 200]
		reqs[i] = core.Request{Dataset: "stream", Query: core.LinearQuery{Model: m}, K: k}
	}
	ctx := context.Background()
	for _, req := range reqs { // builds the base indexes and warms the pools
		if _, err := e.Run(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(ctx, reqs[i%len(reqs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Serving layer: RunBatch amortization and the result cache ----

// BenchmarkRunBatch compares a batch of distinct linear requests
// executed as one serving unit (shared worker pool, one admission
// grant) against the same requests issued as individual Runs. Caches
// are disabled on both engines so the comparison is pure execution;
// the cache's own win is BenchmarkCacheHit's subject.
func BenchmarkRunBatch(b *testing.B) {
	d, err := shardData()
	if err != nil {
		b.Fatal(err)
	}
	e := core.NewEngineWith(core.Options{Shards: 4, CacheEntries: -1})
	if err := e.AddTuples("t", d.pts); err != nil {
		b.Fatal(err)
	}
	const width = 8
	dim := len(d.pts[0])
	reqs := make([]core.Request, width)
	for i := range reqs {
		attrs := make([]string, dim)
		coeffs := make([]float64, dim)
		for j := range coeffs {
			attrs[j] = fmt.Sprintf("x%d", j)
			coeffs[j] = d.m.Coeffs[j] + float64(i)*0.01*float64(j+1)
		}
		m, err := linear.New(attrs, coeffs, 0)
		if err != nil {
			b.Fatal(err)
		}
		reqs[i] = core.Request{Dataset: "t", Query: core.LinearQuery{Model: m}, K: 10}
	}
	ctx := context.Background()
	// Build the per-shard indexes outside the timed region.
	if _, err := e.Run(ctx, reqs[0]); err != nil {
		b.Fatal(err)
	}

	b.Run("batch-8", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			batch, err := e.RunBatch(ctx, reqs)
			if err != nil {
				b.Fatal(err)
			}
			for _, br := range batch {
				if br.Err != nil {
					b.Fatal(br.Err)
				}
			}
		}
	})
	b.Run("solo-8", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, req := range reqs {
				if _, err := e.Run(ctx, req); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkCacheHit pins the acceptance criterion: on the linear
// family, a cache hit must be at least 10x cheaper than the cold
// execution it replays (CI compares the two ns/op lines).
func BenchmarkCacheHit(b *testing.B) {
	d, err := shardData()
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()

	b.Run("cold", func(b *testing.B) {
		e := core.NewEngineWith(core.Options{Shards: 4, CacheEntries: -1})
		if err := e.AddTuples("t", d.pts); err != nil {
			b.Fatal(err)
		}
		req := core.Request{Dataset: "t", Query: core.LinearQuery{Model: d.m}, K: 10}
		if _, err := e.Run(ctx, req); err != nil { // index build untimed
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Run(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		e := core.NewEngineWith(core.Options{Shards: 4})
		if err := e.AddTuples("t", d.pts); err != nil {
			b.Fatal(err)
		}
		req := core.Request{Dataset: "t", Query: core.LinearQuery{Model: d.m}, K: 10}
		if _, err := e.Run(ctx, req); err != nil { // warm the cache
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := e.Run(ctx, req)
			if err != nil {
				b.Fatal(err)
			}
			if !res.Stats.Cache.Hit {
				b.Fatal("benchmark fell off the cache path")
			}
		}
	})
}

// ---- Columnar scan-bound hot path: layout and allocation pins ----

// shardStore builds the shard workload into a columnar store
// (norm-ordered blocks with zone maps) — the storage layout every tuple
// engine shard scans.
var shardStore = sync.OnceValues(func() (struct {
	store *colstore.Store
	w     []float64
}, error) {
	var out struct {
		store *colstore.Store
		w     []float64
	}
	pts, m, err := shardWorkload()
	if err != nil {
		return out, err
	}
	st, err := colstore.Build(pts, colstore.Options{})
	if err != nil {
		return out, err
	}
	out.store, out.w = st, m.Coeffs
	return out, nil
})

// BenchmarkLinearScanSteadyState is the zero-allocation acceptance
// pin: the columnar blocked scan over the scan-bound workload, with a
// pooled heap and a reused result buffer, must report 0 allocs/op — the
// benchmark fails (not just reports) if a warmed-up scan allocates.
func BenchmarkLinearScanSteadyState(b *testing.B) {
	d, err := shardStore()
	if err != nil {
		b.Fatal(err)
	}
	wNorm := colstore.WeightNorm(d.w)
	h := topk.MustHeap(10)
	buf := make([]topk.Item, 0, 10)
	var st colstore.Stats
	scan := func() {
		h.Reset()
		d.store.Scan(d.w, wNorm, h, nil, nil, nil, &st)
		buf = h.AppendResults(buf[:0])
	}
	scan() // warm the scratch pool
	if allocs := testing.AllocsPerRun(5, scan); allocs != 0 {
		b.Fatalf("steady-state columnar scan allocates %.1f allocs/op, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scan()
	}
	if len(buf) != 10 {
		b.Fatalf("scan kept %d items", len(buf))
	}
}

// TestLinearScanSteadyStateUnderRace is the race-detector companion of
// BenchmarkLinearScanSteadyState (satellite of the columnar-kernel
// work): the zero-allocation assertion is meaningless under -race
// (sync.Pool intentionally drops puts), so this variant exercises the
// same steady-state loop — pooled scratch, reused heap, reused result
// buffer — WITHOUT allocation counting and pins its results against a
// fresh non-pooled scan each iteration. `go test -race ./...` in CI
// therefore covers the steady-state path in both build modes.
func TestLinearScanSteadyStateUnderRace(t *testing.T) {
	d, err := shardStore()
	if err != nil {
		t.Fatal(err)
	}
	wNorm := colstore.WeightNorm(d.w)
	h := topk.MustHeap(10)
	buf := make([]topk.Item, 0, 10)
	var st colstore.Stats
	for iter := 0; iter < 5; iter++ {
		// Steady-state shape: reused heap and buffer.
		h.Reset()
		d.store.Scan(d.w, wNorm, h, nil, nil, nil, &st)
		buf = h.AppendResults(buf[:0])
		// Non-pooled correctness variant: fresh heap, fresh results.
		fresh := topk.MustHeap(10)
		var fst colstore.Stats
		d.store.Scan(d.w, wNorm, fresh, nil, nil, nil, &fst)
		want := fresh.Results()
		if len(buf) != len(want) {
			t.Fatalf("iter %d: steady-state kept %d items, fresh %d", iter, len(buf), len(want))
		}
		for i := range want {
			if buf[i].ID != want[i].ID || buf[i].Score != want[i].Score {
				t.Fatalf("iter %d pos %d: steady %+v vs fresh %+v", iter, i, buf[i], want[i])
			}
		}
	}
}

// ---- Columnar pyramid scan: layout and allocation pins ----

// BenchmarkSceneScanSteadyState is the pyramid-family zero-allocation
// acceptance pin: the flat-layout branch-and-bound descent with a reused
// heap, pooled scratch and a reused result buffer must report
// 0 allocs/op — the benchmark fails (not just reports) if a warmed-up
// descent allocates.
func BenchmarkSceneScanSteadyState(b *testing.B) {
	d, err := e5Data()
	if err != nil {
		b.Fatal(err)
	}
	h := topk.MustHeap(10)
	buf := make([]topk.Item, 0, 10)
	scan := func() {
		h.Reset()
		if _, err := progressive.CombinedInto(d.pm, d.mp, h, progressive.DescendOpts{}); err != nil {
			b.Fatal(err)
		}
		buf = h.AppendResults(buf[:0])
	}
	scan() // warm the pools
	if allocs := testing.AllocsPerRun(5, scan); allocs != 0 {
		b.Fatalf("steady-state pyramid descent allocates %.1f allocs/op, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scan()
	}
	if len(buf) != 10 {
		b.Fatalf("descent kept %d items", len(buf))
	}
}
