package core

import (
	"math"
	"reflect"
	"testing"

	"modelir/internal/fsm"
	"modelir/internal/linear"
	"modelir/internal/synth"
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
	serial, serialSt, err := e.FSMTopK("w", m, 10, FireAntsPrefilter)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8, 100} {
		par, parSt, err := e.FSMTopKParallel("w", m, 10, FireAntsPrefilter, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(par) != len(serial) {
			t.Fatalf("workers=%d: %d vs %d results", workers, len(par), len(serial))
		}
		for i := range serial {
			if par[i].ID != serial[i].ID || par[i].Score != serial[i].Score {
				t.Fatalf("workers=%d pos %d: %+v vs %+v", workers, i, par[i], serial[i])
			}
		}
		if parSt.RegionsPruned != serialSt.RegionsPruned ||
			parSt.DaysScanned != serialSt.DaysScanned {
			t.Fatalf("workers=%d stats diverged: %+v vs %+v", workers, parSt, serialSt)
		}
	}
	if _, _, err := e.FSMTopKParallel("missing", m, 1, nil, 2); err == nil {
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
	// With a cross-well floor the pair work depends on which shard
	// raises first, so only the result bits are compared across worker
	// counts; exact counters are compared at one worker, where GeoDP and
	// GeoPruned run the same floored evaluator in the same order.
	serial, serialSt, err := e.GeologyTopKParallel("b", q, 20, GeoPruned, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, dpSt, err := e.GeologyTopKParallel("b", q, 20, GeoDP, 1)
	if err != nil {
		t.Fatal(err)
	}
	if dpSt.UnaryEvals != serialSt.UnaryEvals || dpSt.PairEvals != serialSt.PairEvals ||
		dpSt.TuplesConsidered != serialSt.TuplesConsidered {
		t.Fatalf("one worker: dp stats %+v vs pruned %+v", dpSt, serialSt)
	}
	par, parSt, err := e.GeologyTopKParallel("b", q, 20, GeoPruned, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(par, serial) {
		t.Fatalf("8 workers: %+v\nvs 1 worker: %+v", par, serial)
	}
	// Every well's unary grades are evaluated whatever the floor.
	if parSt.UnaryEvals != serialSt.UnaryEvals {
		t.Fatalf("unary evals diverged: %d vs %d", parSt.UnaryEvals, serialSt.UnaryEvals)
	}
	bad := GeologyQuery{}
	if _, _, err := e.GeologyTopKParallel("b", bad, 1, GeoDP, 2); err == nil {
		t.Fatal("want validation error")
	}
	if _, _, err := e.GeologyTopKParallel("missing", q, 1, GeoDP, 2); err == nil {
		t.Fatal("want unknown dataset error")
	}
	if _, _, err := e.GeologyTopKParallel("b", q, 1, GeologyMethod(99), 2); err == nil {
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
	par, err := e.ScanTopKTuplesParallel("t", coeffs, 3, 10, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-check against the indexed path.
	m, err := linear.New([]string{"a", "b", "c"}, coeffs, 3)
	if err != nil {
		t.Fatal(err)
	}
	indexed, _, err := e.LinearTopKTuples("t", m, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range indexed {
		if par[i].ID != indexed[i].ID || math.Abs(par[i].Score-indexed[i].Score) > 1e-12 {
			t.Fatalf("pos %d: scan %+v vs indexed %+v", i, par[i], indexed[i])
		}
	}
	if _, err := e.ScanTopKTuplesParallel("missing", coeffs, 0, 1, 2); err == nil {
		t.Fatal("want unknown dataset error")
	}
	if _, err := e.ScanTopKTuplesParallel("t", []float64{1}, 0, 1, 2); err == nil {
		t.Fatal("want dimension error")
	}
}
