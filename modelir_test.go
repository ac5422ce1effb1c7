package modelir_test

import (
	"context"
	"math"
	"path/filepath"
	"testing"

	"modelir"
)

// The facade tests exercise the public API exactly as a downstream user
// would: generate an archive, register it, query it with each model
// family, and check the results are sane. Detailed behaviour is covered
// by the internal package suites.

// run executes req on e and fails the test on error.
func run(t *testing.T, e *modelir.Engine, req modelir.Request) modelir.Result {
	t.Helper()
	res, err := e.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPublicTupleRetrieval(t *testing.T) {
	pts, err := modelir.GenerateTuples(1, 5000, 3)
	if err != nil {
		t.Fatal(err)
	}
	e := modelir.NewEngine()
	if err := e.AddTuples("t", pts); err != nil {
		t.Fatal(err)
	}
	m, err := modelir.NewLinearModel([]string{"a", "b", "c"}, []float64{1, 1, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, e, modelir.Request{Dataset: "t", Query: modelir.LinearQuery{Model: m}, K: 5})
	items := res.Items
	if len(items) != 5 {
		t.Fatalf("items=%d", len(items))
	}
	if res.Stats.Examined >= len(pts) {
		t.Fatal("index did not prune")
	}
	// Scores must be real model values, descending.
	for i, it := range items {
		got, err := m.Eval(pts[it.ID])
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-it.Score) > 1e-12 {
			t.Fatalf("score mismatch at %d", i)
		}
		if i > 0 && items[i-1].Score < it.Score {
			t.Fatal("results not descending")
		}
	}
}

func TestPublicSceneWorkflow(t *testing.T) {
	scene, err := modelir.GenerateScene(modelir.SceneConfig{Seed: 2, W: 64, H: 64})
	if err != nil {
		t.Fatal(err)
	}
	arch, err := modelir.BuildSceneArchive("s", scene.Bands, modelir.ArchiveOptions{
		TileSize: 16, PyramidLevels: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Round-trip via disk like the CLI does.
	path := filepath.Join(t.TempDir(), "s.gob")
	if err := arch.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := modelir.LoadSceneArchive(path)
	if err != nil {
		t.Fatal(err)
	}
	e := modelir.NewEngine()
	if err := e.AddScene("s", loaded); err != nil {
		t.Fatal(err)
	}
	pm, err := modelir.DecomposeLinear(modelir.HPSRiskModel(),
		[]float64{0, 0, 0, 0}, []float64{255, 255, 255, 1500}, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	items := run(t, e, modelir.Request{Dataset: "s", Query: modelir.SceneQuery{Model: pm}, K: 5}).Items
	if len(items) != 5 {
		t.Fatalf("items=%d", len(items))
	}
}

func TestPublicFSMAndKnowledge(t *testing.T) {
	e := modelir.NewEngine()
	weather, err := modelir.GenerateWeather(modelir.WeatherConfig{Seed: 3, Regions: 20, Days: 365})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddSeries("w", weather); err != nil {
		t.Fatal(err)
	}
	items := run(t, e, modelir.Request{Dataset: "w", Query: modelir.FSMQuery{Machine: modelir.FireAntsModel()}, K: 3}).Items
	if len(items) == 0 {
		t.Fatal("no fly-risk regions found in a warm archive")
	}

	wells, planted, err := modelir.GenerateWells(modelir.WellConfig{Seed: 4, Wells: 30})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddWells("g", wells); err != nil {
		t.Fatal(err)
	}
	q := modelir.GeologyQuery{
		Sequence: []modelir.Lithology{modelir.Shale, modelir.Sandstone, modelir.Siltstone},
		MaxGapFt: 10,
		MinGamma: 45,
		Method:   modelir.GeoPruned,
	}
	matches, err := modelir.WellMatches(run(t, e, modelir.Request{Dataset: "g", Query: q, K: len(wells)}).Items)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[int]bool)
	for _, m := range matches {
		if m.Score >= 0.999 {
			got[m.Well] = true
		}
	}
	for _, w := range planted {
		if !got[w] {
			t.Fatalf("planted well %d missing", w)
		}
	}
}

func TestPublicModelHelpers(t *testing.T) {
	if p := modelir.ForeclosureProbability(680); math.Abs(p-0.02) > 0.001 {
		t.Fatalf("P(680)=%v", p)
	}
	credit := modelir.CreditScoreModel()
	clean := make([]float64, credit.NumTerms())
	if s, _ := credit.Eval(clean); s != 900 {
		t.Fatalf("clean score %v", s)
	}
	d, err := modelir.MachineDistance(modelir.FireAntsModel(), modelir.FireAntsModel(), 8)
	if err != nil || d != 0 {
		t.Fatalf("self distance %v err %v", d, err)
	}
	wf, err := modelir.NewWorkflow([]string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	m, err := wf.Calibrate([][]float64{{0}, {1}, {2}, {3}}, []float64{1, 3, 5, 7})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Coeffs[0]-2) > 1e-9 || math.Abs(m.Intercept-1) > 1e-9 {
		t.Fatalf("fit %v + %v", m.Coeffs, m.Intercept)
	}
}

func TestPublicShardedEngineOptions(t *testing.T) {
	pts, err := modelir.GenerateTuples(2, 6000, 3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := modelir.NewLinearModel([]string{"a", "b", "c"}, []float64{2, -1, 0.5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var want []modelir.Item
	for _, shards := range []int{1, 3, 8} {
		e := modelir.NewEngineWithOptions(modelir.EngineOptions{Shards: shards})
		if e.NumShards() != shards {
			t.Fatalf("NumShards = %d, want %d", e.NumShards(), shards)
		}
		if err := e.AddTuples("t", pts); err != nil {
			t.Fatal(err)
		}
		items := run(t, e, modelir.Request{Dataset: "t", Query: modelir.LinearQuery{Model: m}, K: 7}).Items
		if want == nil {
			want = items
			continue
		}
		if len(items) != len(want) {
			t.Fatalf("shards=%d: %d vs %d items", shards, len(items), len(want))
		}
		for i := range want {
			if items[i].ID != want[i].ID || items[i].Score != want[i].Score {
				t.Fatalf("shards=%d pos %d: %+v vs %+v", shards, i, items[i], want[i])
			}
		}
	}
	// Zero options default to GOMAXPROCS shards.
	if got := modelir.NewEngineWithOptions(modelir.EngineOptions{}).NumShards(); got < 1 {
		t.Fatalf("default NumShards = %d", got)
	}
}
