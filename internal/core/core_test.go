package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"modelir/internal/archive"
	"modelir/internal/fsm"
	"modelir/internal/linear"
	"modelir/internal/segment"
	"modelir/internal/synth"
	"modelir/internal/topk"
)

func engineWithTuples(t *testing.T) (*Engine, [][]float64) {
	t.Helper()
	e := NewEngine()
	pts, err := synth.GaussianTuples(3, 5000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddTuples("gauss", pts); err != nil {
		t.Fatal(err)
	}
	return e, pts
}

// mustRun executes req and fails the test on error.
func mustRun(t testing.TB, e *Engine, req Request) Result {
	t.Helper()
	res, err := e.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRegistrationErrors(t *testing.T) {
	e := NewEngine()
	if err := e.AddTuples("x", nil); err == nil {
		t.Fatal("want empty tuples error")
	}
	pts, _ := synth.GaussianTuples(1, 10, 2)
	if err := e.AddTuples("x", pts); err != nil {
		t.Fatal(err)
	}
	if err := e.AddTuples("x", pts); err == nil {
		t.Fatal("want duplicate error")
	}
	if err := e.AddScene("s", nil); err == nil {
		t.Fatal("want nil scene error")
	}
	if err := e.AddSeries("w", nil); err == nil {
		t.Fatal("want empty series error")
	}
	if err := e.AddWells("g", nil); err == nil {
		t.Fatal("want empty wells error")
	}
}

// TestAddTuplesRefusesUnstorableRows: rows no columnar store can hold
// fail the registration itself. The name stays free, nothing is
// registered under it, and every other dataset still serves and
// snapshots.
func TestAddTuplesRefusesUnstorableRows(t *testing.T) {
	cases := []struct {
		name string
		rows [][]float64
	}{
		{"nan", [][]float64{{1, 2}, {3, 4}, {5, 6}, {math.NaN(), 8}}},
		{"+inf", [][]float64{{1, 2}, {math.Inf(1), 4}, {5, 6}}},
		{"-inf", [][]float64{{1, 2}, {3, 4}, {5, math.Inf(-1)}}},
		{"ragged", [][]float64{{1, 2}, {3, 4, 5}, {6, 7}}},
		{"ragged later shard", [][]float64{{1, 2}, {3, 4}, {5, 6}, {7}}},
		{"zero-width", [][]float64{{}, {}, {}}},
	}
	good, err := synth.GaussianTuples(5, 40, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngineWith(Options{Shards: 2})
			if err := e.AddTuples("good", good); err != nil {
				t.Fatal(err)
			}
			if err := e.AddTuples("bad", tc.rows); err == nil {
				t.Fatal("AddTuples accepted rows no store can hold")
			}
			for _, ds := range e.Datasets() {
				if ds.Name == "bad" {
					t.Fatalf("refused dataset listed: %+v", ds)
				}
			}
			dir, err := segment.NewDir(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Snapshot(context.Background(), dir); err != nil {
				t.Fatalf("snapshot after a refused registration: %v", err)
			}
			// The refusal released the name.
			if err := e.AddTuples("bad", good); err != nil {
				t.Fatalf("name not released: %v", err)
			}
		})
	}
}

// TestLinearModelDimMismatch: a model whose coefficient count differs
// from a segment's attribute count is an error, never a panic or a
// silently truncated score; and a delta of a different width is
// refused at append, so it can never leave a segment no model fits.
func TestLinearModelDimMismatch(t *testing.T) {
	e := NewEngineWith(Options{Shards: 2})
	pts, err := synth.GaussianTuples(4, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddTuples("t", pts); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 4} {
		m, err := linear.New(make([]string, n), make([]float64, n), 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(context.Background(), Request{Dataset: "t", Query: LinearQuery{Model: m}}); err == nil {
			t.Fatalf("%d coefficients over 3 attributes: no error", n)
		}
	}
	if err := e.AppendTuples("t", [][]float64{{1, 2, 3, 4}}); !errors.Is(err, ErrWidthMismatch) {
		t.Fatalf("4-attribute delta on a 3-attribute dataset: err %v, want ErrWidthMismatch", err)
	}
	m, err := linear.New([]string{"a", "b", "c"}, []float64{1, 1, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(context.Background(), Request{Dataset: "t", Query: LinearQuery{Model: m}}); err != nil {
		t.Fatalf("3 coefficients after a refused 4-attribute delta: %v", err)
	}
}

// TestSmallShardsPrune: shards and deltas far smaller than a default
// block still split into several zone-mapped blocks, so a top-K scan
// skips most of their rows. Workers: 1 runs the shards in order, which
// makes the counts deterministic.
func TestSmallShardsPrune(t *testing.T) {
	pts, err := synth.GaussianTuples(3, 5128, 3)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngineWith(Options{Shards: 8, CacheEntries: -1})
	if err := e.AddTuples("t", pts[:5000]); err != nil {
		t.Fatal(err)
	}
	if err := e.AppendTuples("t", pts[5000:]); err != nil {
		t.Fatal(err)
	}
	m, err := linear.New([]string{"a", "b", "c"}, []float64{1, -0.5, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	st := mustRun(t, e, Request{Dataset: "t", Query: LinearQuery{Model: m}, K: 5, Workers: 1}).Stats
	if st.Examined+st.Pruned != len(pts) || st.Examined > len(pts)/2 {
		t.Fatalf("examined %d, pruned %d of %d rows in 625-row shards and a 128-row delta", st.Examined, st.Pruned, len(pts))
	}
}

func TestModelKindString(t *testing.T) {
	if KindLinear.String() != "linear" || KindFiniteState.String() != "finite-state" ||
		KindKnowledge.String() != "knowledge" || ModelKind(0).String() != "unknown" {
		t.Fatal("kind names wrong")
	}
}

func TestLinearTopKTuples(t *testing.T) {
	e, pts := engineWithTuples(t)
	m, err := linear.New([]string{"a", "b", "c"}, []float64{1, -0.5, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, e, Request{Dataset: "gauss", Query: LinearQuery{Model: m}, K: 5})
	items, st := res.Items, res.Stats
	if len(items) != 5 {
		t.Fatalf("got %d items", len(items))
	}
	// Verify against direct evaluation, including the intercept shift.
	bestID, bestScore := -1, math.Inf(-1)
	for i, p := range pts {
		s, _ := m.Eval(p)
		if s > bestScore {
			bestID, bestScore = i, s
		}
	}
	if items[0].ID != int64(bestID) || math.Abs(items[0].Score-bestScore) > 1e-12 {
		t.Fatalf("top item %d/%v want %d/%v", items[0].ID, items[0].Score, bestID, bestScore)
	}
	if st.Examined+st.Pruned != len(pts) || st.Examined >= len(pts) {
		t.Fatalf("index touched %d of %d (pruned %d)", st.Examined, len(pts), st.Pruned)
	}
	// Cached index reused on second query.
	mustRun(t, e, Request{Dataset: "gauss", Query: LinearQuery{Model: m}, K: 1})
	if _, err := e.Run(context.Background(), Request{Dataset: "missing", Query: LinearQuery{Model: m}, K: 1}); err == nil {
		t.Fatal("want unknown dataset error")
	}
}

func TestSceneTopK(t *testing.T) {
	e := NewEngine()
	sc, err := synth.LandsatScene(synth.SceneConfig{Seed: 4, W: 64, H: 64})
	if err != nil {
		t.Fatal(err)
	}
	ar, err := archive.BuildScene("s", sc.Bands, archive.Options{TileSize: 16, PyramidLevels: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddScene("hps", ar); err != nil {
		t.Fatal(err)
	}
	pm, err := linear.Decompose(linear.HPSRisk(),
		[]float64{0, 0, 0, 0}, []float64{255, 255, 255, 1500}, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, e, Request{Dataset: "hps", Query: SceneQuery{Model: pm}, K: 10})
	if len(res.Items) != 10 {
		t.Fatalf("items=%d", len(res.Items))
	}
	if res.Stats.Evaluations == 0 {
		t.Fatal("no work recorded")
	}
	if _, err := e.Run(context.Background(), Request{Dataset: "missing", Query: SceneQuery{Model: pm}, K: 1}); err == nil {
		t.Fatal("want unknown dataset error")
	}
}

func TestFSMTopKWithPruning(t *testing.T) {
	e := NewEngine()
	arch, err := synth.WeatherArchive(synth.WeatherConfig{Seed: 6, Regions: 40, Days: 365})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddSeries("weather", arch); err != nil {
		t.Fatal(err)
	}
	m := fsm.FireAnts()

	baseRes := mustRun(t, e, Request{Dataset: "weather", Query: FSMQuery{Machine: m}, K: 10})
	prunedRes := mustRun(t, e, Request{Dataset: "weather", Query: FSMQuery{Machine: m, Prefilter: FireAntsPrefilter}, K: 10})
	base, baseSt := baseRes.Items, baseRes.Stats
	pruned, prunedSt := prunedRes.Items, prunedRes.Stats
	if len(base) != len(pruned) {
		t.Fatalf("result sizes differ: %d vs %d", len(base), len(pruned))
	}
	for i := range base {
		if base[i].ID != pruned[i].ID || base[i].Score != pruned[i].Score {
			t.Fatalf("pruning changed results at %d: %+v vs %+v", i, base[i], pruned[i])
		}
	}
	if prunedSt.Evaluations > baseSt.Evaluations {
		t.Fatal("pruning increased scan work")
	}
	if baseSt.Examined+baseSt.Pruned != 40 || prunedSt.Examined+prunedSt.Pruned != 40 {
		t.Fatalf("regions total %d / %d", baseSt.Examined+baseSt.Pruned, prunedSt.Examined+prunedSt.Pruned)
	}
	if _, err := e.Run(context.Background(), Request{Dataset: "missing", Query: FSMQuery{Machine: m}, K: 1}); err == nil {
		t.Fatal("want unknown dataset error")
	}
}

func TestFSMDistanceRank(t *testing.T) {
	e := NewEngine()
	arch, err := synth.WeatherArchive(synth.WeatherConfig{Seed: 7, Regions: 10, Days: 400})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddSeries("weather", arch); err != nil {
		t.Fatal(err)
	}
	items := mustRun(t, e, Request{Dataset: "weather", Query: FSMDistanceQuery{Target: fsm.FireAnts(), Horizon: 10}, K: 5}).Items
	if len(items) != 5 {
		t.Fatalf("items=%d", len(items))
	}
	// Data consistent with the reference machine extracts the reference
	// exactly, so every region scores 1.
	for _, it := range items {
		if it.Score != 1 {
			t.Fatalf("region %d score %v want 1", it.ID, it.Score)
		}
	}
	if _, err := e.Run(context.Background(), Request{Dataset: "missing", Query: FSMDistanceQuery{Target: fsm.FireAnts(), Horizon: 5}, K: 1}); err == nil {
		t.Fatal("want unknown dataset error")
	}
}

func TestGeologyTopKFindsPlantedWells(t *testing.T) {
	e := NewEngine()
	wells, planted, err := synth.WellArchive(synth.WellConfig{Seed: 8, Wells: 40})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddWells("basin", wells); err != nil {
		t.Fatal(err)
	}
	q := GeologyQuery{
		Sequence: []synth.Lithology{synth.Shale, synth.Sandstone, synth.Siltstone},
		MaxGapFt: 10,
		MinGamma: 45,
	}
	// Natural shale/sandstone/siltstone sequences can also score 1, so
	// retrieve every well to check the planted ones are all present.
	k := len(wells)

	geology := func(method GeologyMethod) ([]WellMatch, QueryStats) {
		q := q
		q.Method = method
		res := mustRun(t, e, Request{Dataset: "basin", Query: q, K: k})
		matches, err := WellMatches(res.Items)
		if err != nil {
			t.Fatal(err)
		}
		return matches, res.Stats
	}
	dp, dpSt := geology(GeoDP)
	pruned, prSt := geology(GeoPruned)
	if len(dp) != len(pruned) {
		t.Fatalf("dp %d vs pruned %d wells", len(dp), len(pruned))
	}
	for i := range dp {
		if dp[i].Well != pruned[i].Well || math.Abs(dp[i].Score-pruned[i].Score) > 1e-12 {
			t.Fatalf("method mismatch at %d: %+v vs %+v", i, dp[i], pruned[i])
		}
	}
	// Every planted well must be retrieved with a perfect score.
	found := make(map[int]bool)
	for _, m := range dp {
		if m.Score == 1 {
			found[m.Well] = true
		}
	}
	for _, w := range planted {
		if !found[w] {
			t.Fatalf("planted well %d not retrieved at score 1", w)
		}
	}
	// Retrieved strata must actually satisfy the oracle.
	for _, m := range dp {
		if m.Score == 1 && !synth.HasRiverbedSignature(wells[m.Well], q.MaxGapFt, q.MinGamma) {
			t.Fatalf("well %d scored 1 but fails the oracle", m.Well)
		}
	}
	// One floored evaluator serves both methods. K covers every well,
	// so no heap fills and the floor stays at the least positive score
	// whatever the scheduling: the work is equal, not merely bounded.
	if prSt.Evaluations != dpSt.Evaluations || prSt.Examined != dpSt.Examined || prSt.Pruned != dpSt.Pruned {
		t.Fatalf("pruned method did different work than DP: %+v vs %+v", prSt, dpSt)
	}
}

// TestGeologyMatchesBruteForce: GeoDP and GeoPruned, one floored top-1
// DP screening every well against the merged top-K floor, must return
// exactly what the unfloored brute-force oracle returns — well IDs,
// scores and strata — for every shard count, worker count, crisp and
// ramped gamma, K from 1 to above the well count, and a MinScore equal
// to some well's score. The oracle's full ranking is computed once per
// archive and query; a request's answer is its first K items, then
// those at or above MinScore.
func TestGeologyMatchesBruteForce(t *testing.T) {
	ctx := context.Background()
	queries := []GeologyQuery{
		{Sequence: []synth.Lithology{synth.Shale, synth.Sandstone, synth.Siltstone}, MaxGapFt: 10, MinGamma: 45},
		{Sequence: []synth.Lithology{synth.Shale, synth.Sandstone, synth.Siltstone}, MaxGapFt: 10, MinGamma: 45, GammaRampAPI: 6},
		{Sequence: []synth.Lithology{synth.Sandstone, synth.Shale}, MaxGapFt: 15, MinGamma: 50, GammaRampAPI: 12},
	}
	for _, seed := range []int64{31, 32} {
		wells, _, err := synth.WellArchive(synth.WellConfig{Seed: seed, Wells: 60})
		if err != nil {
			t.Fatal(err)
		}
		oracle := NewEngineWith(Options{Shards: 1, CacheEntries: -1})
		if err := oracle.AddWells("b", wells); err != nil {
			t.Fatal(err)
		}
		engines := map[int]*Engine{}
		for _, shards := range []int{1, 3} {
			engines[shards] = NewEngineWith(Options{Shards: shards, CacheEntries: -1})
			if err := engines[shards].AddWells("b", wells); err != nil {
				t.Fatal(err)
			}
		}
		for qi, q := range queries {
			bq := q
			bq.Method = GeoBruteForce
			full, err := oracle.Run(ctx, Request{Dataset: "b", Query: bq, K: len(wells), Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if len(full.Items) < 4 {
				t.Fatalf("seed %d query %d: only %d matching wells", seed, qi, len(full.Items))
			}
			atWell := full.Items[len(full.Items)/2].Score
			for _, k := range []int{1, 3, 10, len(wells) + 7} {
				for _, minScore := range []*float64{nil, &atWell} {
					want := append([]topk.Item(nil), full.Items[:min(k, len(full.Items))]...)
					if minScore != nil {
						want = filterMinScore(want, *minScore)
					}
					for shards, e := range engines {
						for _, workers := range []int{1, 2, 8} {
							for _, method := range []GeologyMethod{GeoDP, GeoPruned} {
								fq := q
								fq.Method = method
								res, err := e.Run(ctx, Request{Dataset: "b", Query: fq, K: k, MinScore: minScore, Workers: workers})
								if err != nil {
									t.Fatal(err)
								}
								if !reflect.DeepEqual(res.Items, want) {
									t.Fatalf("seed %d query %d k %d min %v shards %d workers %d method %d:\n got %v\nwant %v",
										seed, qi, k, minScore != nil, shards, workers, method, res.Items, want)
								}
								// The floor is doing the work: at K=1 a
								// serial scan rejects wells before pairs.
								if k == 1 && shards == 1 && res.Stats.Pruned == 0 {
									t.Fatalf("seed %d query %d: K=1 pruned no well", seed, qi)
								}
							}
						}
					}
				}
			}
		}
	}
}

func TestGeologyValidation(t *testing.T) {
	e := NewEngine()
	wells, _, _ := synth.WellArchive(synth.WellConfig{Seed: 9, Wells: 5})
	if err := e.AddWells("b", wells); err != nil {
		t.Fatal(err)
	}
	run := func(dataset string, q GeologyQuery) error {
		_, err := e.Run(context.Background(), Request{Dataset: dataset, Query: q, K: 1})
		return err
	}
	bad := GeologyQuery{Method: GeoDP}
	if err := run("b", bad); err == nil {
		t.Fatal("want empty sequence error")
	}
	q := GeologyQuery{Sequence: []synth.Lithology{synth.Shale}, MaxGapFt: -1, Method: GeoDP}
	if err := run("b", q); err == nil {
		t.Fatal("want negative gap error")
	}
	ok := GeologyQuery{Sequence: []synth.Lithology{synth.Shale}, MinGamma: 45, Method: GeoDP}
	if err := run("missing", ok); err == nil {
		t.Fatal("want unknown dataset error")
	}
	ok.Method = GeologyMethod(99)
	if err := run("b", ok); err == nil {
		t.Fatal("want unknown method error")
	}
}

func TestWorkflowFig5(t *testing.T) {
	wf, err := NewWorkflow([]string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewWorkflow(nil); err == nil {
		t.Fatal("want attrs error")
	}
	// True model: y = 2a - b + 1.
	gen := func(n int, seed int64) ([][]float64, []float64) {
		xs := make([][]float64, n)
		ys := make([]float64, n)
		s := seed
		for i := range xs {
			s = s*6364136223846793005 + 1442695040888963407
			a := float64(s%1000)/500 - 1
			s = s*6364136223846793005 + 1442695040888963407
			b := float64(s%1000)/500 - 1
			xs[i] = []float64{a, b}
			ys[i] = 2*a - b + 1
		}
		return xs, ys
	}
	xs, ys := gen(50, 1)
	m, err := wf.Calibrate(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Coeffs[0]-2) > 0.01 || math.Abs(m.Coeffs[1]+1) > 0.01 {
		t.Fatalf("calibrated coeffs %v", m.Coeffs)
	}
	// Fold in more data (step 4): still consistent, refit sharpens.
	xs2, ys2 := gen(100, 99)
	m2, err := wf.Calibrate(xs2, ys2)
	if err != nil {
		t.Fatal(err)
	}
	if wf.TrainingSize() != 150 || wf.Revisions != 2 {
		t.Fatalf("training=%d revisions=%d", wf.TrainingSize(), wf.Revisions)
	}
	if math.Abs(m2.Intercept-1) > 0.01 {
		t.Fatalf("revised intercept %v", m2.Intercept)
	}
	if _, err := wf.Calibrate(nil, nil); err == nil {
		t.Fatal("want bad rows error")
	}
	if _, err := wf.Calibrate([][]float64{{1}}, []float64{1}); err == nil {
		t.Fatal("want row shape error")
	}
}
