package core

import (
	"context"
	"math"
	"reflect"
	"testing"

	"modelir/internal/fsm"
	"modelir/internal/linear"
	"modelir/internal/synth"
	"modelir/internal/topk"
)

func TestFSMTopKParallelMatchesSerial(t *testing.T) {
	e := NewEngine()
	arch, err := synth.WeatherArchive(synth.WeatherConfig{Seed: 12, Regions: 80, Days: 365})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddSeries("w", arch); err != nil {
		t.Fatal(err)
	}
	m := fsm.FireAnts()
	req := Request{Dataset: "w", Query: FSMQuery{Machine: m, Prefilter: FireAntsPrefilter}, K: 10}
	serialRes := mustRun(t, e, req)
	serial, serialSt := serialRes.Items, serialRes.Stats
	for _, workers := range []int{1, 2, 8, 100} {
		req.Workers = workers
		parRes := mustRun(t, e, req)
		par, parSt := parRes.Items, parRes.Stats
		if len(par) != len(serial) {
			t.Fatalf("workers=%d: %d vs %d results", workers, len(par), len(serial))
		}
		for i := range serial {
			if par[i].ID != serial[i].ID || par[i].Score != serial[i].Score {
				t.Fatalf("workers=%d pos %d: %+v vs %+v", workers, i, par[i], serial[i])
			}
		}
		if parSt.Pruned != serialSt.Pruned || parSt.Evaluations != serialSt.Evaluations {
			t.Fatalf("workers=%d stats diverged: %+v vs %+v", workers, parSt, serialSt)
		}
	}
	req.Dataset, req.K = "missing", 1
	if _, err := e.Run(context.Background(), req); err == nil {
		t.Fatal("want unknown dataset error")
	}
}

func TestGeologyTopKParallelMatchesSerial(t *testing.T) {
	// Uncached, so every run executes; eight shards so eight workers
	// race on the shared floor.
	e := NewEngineWith(Options{Shards: 8, CacheEntries: -1})
	wells, _, err := synth.WellArchive(synth.WellConfig{Seed: 13, Wells: 50})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddWells("b", wells); err != nil {
		t.Fatal(err)
	}
	q := GeologyQuery{
		Sequence: []synth.Lithology{synth.Shale, synth.Sandstone, synth.Siltstone},
		MaxGapFt: 10,
		MinGamma: 45,
	}
	geology := func(dataset string, q GeologyQuery, k int, method GeologyMethod, workers int) ([]WellMatch, QueryStats, error) {
		q.Method = method
		res, err := e.Run(context.Background(), Request{Dataset: dataset, Query: q, K: k, Workers: workers})
		if err != nil {
			return nil, QueryStats{}, err
		}
		matches, err := WellMatches(res.Items)
		return matches, res.Stats, err
	}
	// With a cross-well floor the pair work depends on which shard
	// raises first, so only the result bits are compared across worker
	// counts; exact counters are compared at one worker, where GeoDP and
	// GeoPruned run the same floored evaluator in the same order.
	serial, serialSt, err := geology("b", q, 20, GeoPruned, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, dpSt, err := geology("b", q, 20, GeoDP, 1)
	if err != nil {
		t.Fatal(err)
	}
	if dpSt.Evaluations != serialSt.Evaluations || dpSt.Examined != serialSt.Examined ||
		dpSt.Pruned != serialSt.Pruned {
		t.Fatalf("one worker: dp stats %+v vs pruned %+v", dpSt, serialSt)
	}
	par, parSt, err := geology("b", q, 20, GeoPruned, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(par, serial) {
		t.Fatalf("8 workers: %+v\nvs 1 worker: %+v", par, serial)
	}
	// Every well is either examined or rejected by the floor, whatever
	// the floor.
	if parSt.Examined+parSt.Pruned != len(wells) || serialSt.Examined+serialSt.Pruned != len(wells) {
		t.Fatalf("wells accounted: %d and %d of %d", parSt.Examined+parSt.Pruned,
			serialSt.Examined+serialSt.Pruned, len(wells))
	}
	if _, _, err := geology("b", GeologyQuery{}, 1, GeoDP, 2); err == nil {
		t.Fatal("want validation error")
	}
	if _, _, err := geology("missing", q, 1, GeoDP, 2); err == nil {
		t.Fatal("want unknown dataset error")
	}
	if _, _, err := geology("b", q, 1, GeologyMethod(99), 2); err == nil {
		t.Fatal("want unknown method error")
	}
}

func TestScanTopKTuplesParallel(t *testing.T) {
	e := NewEngine()
	pts, err := synth.GaussianTuples(14, 20000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddTuples("t", pts); err != nil {
		t.Fatal(err)
	}
	coeffs := []float64{1, -2, 0.5}
	// The oracle: a naive scan of every row.
	oracle := topk.MustHeap(10)
	for i, p := range pts {
		s := 3.0
		for j, c := range coeffs {
			s += c * p[j]
		}
		oracle.OfferScore(int64(i), s)
	}
	par := oracle.Results()
	// Cross-check against the indexed path.
	m, err := linear.New([]string{"a", "b", "c"}, coeffs, 3)
	if err != nil {
		t.Fatal(err)
	}
	indexed := mustRun(t, e, Request{Dataset: "t", Query: LinearQuery{Model: m}, K: 10}).Items
	for i := range indexed {
		if par[i].ID != indexed[i].ID || math.Abs(par[i].Score-indexed[i].Score) > 1e-12 {
			t.Fatalf("pos %d: scan %+v vs indexed %+v", i, par[i], indexed[i])
		}
	}
}
