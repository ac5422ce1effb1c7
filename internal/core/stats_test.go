package core

import (
	"context"
	"testing"

	"modelir/internal/archive"
	"modelir/internal/fsm"
	"modelir/internal/linear"
	"modelir/internal/sproc"
	"modelir/internal/synth"
)

// The QueryStats accounting pins: Evaluations / Examined / Pruned /
// Truncated asserted exactly, family by family, on archives small
// enough to count by hand. Engines run Shards:1 and requests Workers:1
// so budget truncation points are deterministic.

func statsEngine(t *testing.T) *Engine {
	t.Helper()
	return NewEngineWith(Options{Shards: 1})
}

// assertStats pins the four normalized counters plus Shards and Kind.
func assertStats(t *testing.T, label string, st QueryStats, kind ModelKind, evals, examined, pruned int, truncated bool) {
	t.Helper()
	if st.Kind != kind || st.Evaluations != evals || st.Examined != examined ||
		st.Pruned != pruned || st.Truncated != truncated || st.Shards != 1 {
		t.Fatalf("%s: got {Kind:%v Evaluations:%d Examined:%d Pruned:%d Truncated:%v Shards:%d}, "+
			"want {Kind:%v Evaluations:%d Examined:%d Pruned:%d Truncated:%v Shards:1}",
			label, st.Kind, st.Evaluations, st.Examined, st.Pruned, st.Truncated, st.Shards,
			kind, evals, examined, pruned, truncated)
	}
}

// TestStatsLinearExact: K >= N with no floor disables all screening, so
// the blocked scan must score every point exactly once.
func TestStatsLinearExact(t *testing.T) {
	e := statsEngine(t)
	pts := [][]float64{{1, 0}, {0, 1}, {2, 2}, {-1, 3}, {4, -2}}
	if err := e.AddTuples("t", pts); err != nil {
		t.Fatal(err)
	}
	m, err := linear.New([]string{"x", "y"}, []float64{1, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(context.Background(), Request{
		Dataset: "t", Query: LinearQuery{Model: m}, K: 10, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertStats(t, "linear full scan", res.Stats, KindLinear, len(pts), len(pts), 0, false)
}

// TestStatsSceneExact: K >= W*H disables branch-and-bound pruning, so
// every pixel and every pyramid cell must be visited — for a 16×16
// scene with 3 levels that is 256 pixels, 64 level-1 cells, and 16
// root cells.
func TestStatsSceneExact(t *testing.T) {
	e := statsEngine(t)
	sc, err := synth.LandsatScene(synth.SceneConfig{Seed: 9, W: 16, H: 16})
	if err != nil {
		t.Fatal(err)
	}
	arch, err := archive.BuildScene("s", sc.Bands, archive.Options{TileSize: 8, PyramidLevels: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddScene("s", arch); err != nil {
		t.Fatal(err)
	}
	pm, err := linear.Decompose(linear.HPSRisk(),
		[]float64{0, 0, 0, 0}, []float64{255, 255, 255, 1500}, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(context.Background(), Request{
		Dataset: "s", Query: SceneQuery{Model: pm}, K: 256, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The descent pops every cell at every level: 16 roots (4×4),
	// 64 level-1 cells (8×8), and 256 pixel-level cells, bounding each
	// from its min/max envelope (2 evaluations per term), then scores
	// all 256 pixels with every term of the 4-term model (no floor, so
	// no pixel stops at its coarse sub-model).
	wantCells := 256 + 64 + 16
	const terms = 4 // linear.HPSRisk: b4, b5, b7, elev
	assertStats(t, "scene full refine", res.Stats, KindLinear, wantCells*2*terms+256*terms, 256+wantCells, 0, false)
}

// fsmStatsArchive is the hand-built 4-region series archive:
//
//	region 0: 5 all-rain days        → MaxDrySpell 0, prefiltered
//	region 1: 6 days with a 4-day dry spell whose 3rd+ days hit 30°C
//	region 2: 4 all-rain days        → prefiltered
//	region 3: 7 days with a 3-day hot-ending dry spell
func fsmStatsArchive() []synth.RegionSeries {
	rain := func(n int) []synth.DayWeather {
		out := make([]synth.DayWeather, n)
		for i := range out {
			out[i] = synth.DayWeather{Rain: true, RainMM: 5, TempC: 20}
		}
		return out
	}
	r1 := []synth.DayWeather{
		{TempC: 20}, {TempC: 22}, {TempC: 30}, {TempC: 28}, // 4-day dry spell, hot at day 3
		{Rain: true, RainMM: 3, TempC: 20},
		{TempC: 21},
	}
	r3 := []synth.DayWeather{
		{Rain: true, TempC: 18}, {Rain: true, TempC: 19},
		{TempC: 21}, {TempC: 23}, {TempC: 27}, // 3-day dry spell ending hot
		{Rain: true, TempC: 20}, {Rain: true, TempC: 20},
	}
	return []synth.RegionSeries{
		{Region: 0, Days: rain(5)},
		{Region: 1, Days: r1},
		{Region: 2, Days: rain(4)},
		{Region: 3, Days: r3},
	}
}

// TestStatsFSMExact pins prefilter pruning accounting: 2 regions
// pruned from metadata, 2 scanned (6+7 = 13 days evaluated).
func TestStatsFSMExact(t *testing.T) {
	e := statsEngine(t)
	if err := e.AddSeries("w", fsmStatsArchive()); err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(context.Background(), Request{
		Dataset: "w",
		Query:   FSMQuery{Machine: fsm.FireAnts(), Prefilter: FireAntsPrefilter},
		K:       4, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertStats(t, "fsm prefiltered", res.Stats, KindFiniteState, 13, 2, 2, false)
}

// TestStatsFSMBudgetExact pins budget truncation: the meter is
// exhausted once charged work strictly exceeds the budget, so Budget 4
// against region 0's 5 days stops the single-worker scan after exactly
// one region.
func TestStatsFSMBudgetExact(t *testing.T) {
	e := statsEngine(t)
	if err := e.AddSeries("w", fsmStatsArchive()); err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(context.Background(), Request{
		Dataset: "w",
		Query:   FSMQuery{Machine: fsm.FireAnts()},
		K:       4, Workers: 1, Budget: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertStats(t, "fsm budgeted", res.Stats, KindFiniteState, 5, 1, 0, true)
}

// TestStatsFSMDistanceExact: no prefilter path exists, so every region
// is examined and every day scanned (5+6+4+7 = 22).
func TestStatsFSMDistanceExact(t *testing.T) {
	e := statsEngine(t)
	if err := e.AddSeries("w", fsmStatsArchive()); err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(context.Background(), Request{
		Dataset: "w",
		Query:   FSMDistanceQuery{Target: fsm.FireAnts(), Horizon: 4},
		K:       4, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertStats(t, "fsm distance", res.Stats, KindFiniteState, 22, 4, 0, false)
}

// geoStatsWells builds three tiny hand-made wells.
func geoStatsWells() []synth.WellLog {
	return []synth.WellLog{
		{Well: 0, Strata: []synth.Stratum{
			{Lith: synth.Shale, TopFt: 0, ThickFt: 10, GammaAPI: 100},
			{Lith: synth.Sandstone, TopFt: 12, ThickFt: 8, GammaAPI: 30},
			{Lith: synth.Siltstone, TopFt: 22, ThickFt: 5, GammaAPI: 60},
		}},
		{Well: 1, Strata: []synth.Stratum{
			{Lith: synth.Limestone, TopFt: 0, ThickFt: 20, GammaAPI: 25},
			{Lith: synth.Shale, TopFt: 21, ThickFt: 10, GammaAPI: 120},
		}},
		{Well: 2, Strata: []synth.Stratum{
			{Lith: synth.Shale, TopFt: 0, ThickFt: 6, GammaAPI: 90},
			{Lith: synth.Shale, TopFt: 7, ThickFt: 6, GammaAPI: 95},
			{Lith: synth.Sandstone, TopFt: 14, ThickFt: 9, GammaAPI: 35},
			{Lith: synth.Sandstone, TopFt: 40, ThickFt: 9, GammaAPI: 35},
		}},
	}
}

// TestStatsGeologyExact pins the aggregation: the engine's Evaluations
// must equal the sum of per-well SPROC unary+pair evaluations computed
// directly from the same evaluator, and Examined must count every well.
func TestStatsGeologyExact(t *testing.T) {
	e := statsEngine(t)
	wells := geoStatsWells()
	if err := e.AddWells("g", wells); err != nil {
		t.Fatal(err)
	}
	gq := GeologyQuery{
		Sequence: []synth.Lithology{synth.Shale, synth.Sandstone},
		MaxGapFt: 10, MinGamma: 45, Method: GeoBruteForce,
	}
	wantEvals := 0
	for _, w := range wells {
		_, wst, err := sproc.BruteForceCtx(context.Background(), len(w.Strata), geologySprocQuery(w, gq), 1)
		if err != nil {
			t.Fatal(err)
		}
		wantEvals += wst.UnaryEvals + wst.PairEvals
	}
	res, err := e.Run(context.Background(), Request{Dataset: "g", Query: gq, K: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	assertStats(t, "geology brute force", res.Stats, KindKnowledge, wantEvals, len(wells), 0, false)
}

// TestStatsKnowledgeExact: a 16×16 scene tiled 8×8 has exactly 4 tiles;
// with the 3-clause HPS rule set every tile costs 3 rule evaluations.
func TestStatsKnowledgeExact(t *testing.T) {
	e := statsEngine(t)
	sc, err := synth.LandsatScene(synth.SceneConfig{Seed: 9, W: 16, H: 16})
	if err != nil {
		t.Fatal(err)
	}
	arch, err := archive.BuildScene("s", sc.Bands, archive.Options{TileSize: 8, PyramidLevels: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddScene("s", arch); err != nil {
		t.Fatal(err)
	}
	rules := HPSTileRules()
	res, err := e.Run(context.Background(), Request{
		Dataset: "s", Query: KnowledgeQuery{Rules: rules}, K: 4, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertStats(t, "knowledge tiles", res.Stats, KindKnowledge, 4*rules.Len(), 4, 0, false)

	// Budget below one tile's cost: the first tile's charge exhausts
	// the meter, so exactly one tile is scored, truncated.
	res, err = e.Run(context.Background(), Request{
		Dataset: "s", Query: KnowledgeQuery{Rules: rules}, K: 4, Workers: 1, Budget: rules.Len() - 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertStats(t, "knowledge budgeted", res.Stats, KindKnowledge, rules.Len(), 1, 0, true)
}
