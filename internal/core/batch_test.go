package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"modelir/internal/fsm"
	"modelir/internal/linear"
)

// normStats strips the two fields that legitimately differ between
// executions of the same request: wall time and the cache-counter
// sample. Everything else must be bit-identical.
func normStats(st QueryStats) QueryStats {
	st.Wall = 0
	st.Cache = CacheInfo{}
	return st
}

func statsEqual(t *testing.T, label string, got, want QueryStats) {
	t.Helper()
	if !reflect.DeepEqual(normStats(got), normStats(want)) {
		t.Fatalf("%s: stats differ modulo Wall/Cache:\n got %+v\nwant %+v",
			label, normStats(got), normStats(want))
	}
}

// resultsEqual pins full Result equivalence: items (IDs, scores, and
// geology strata payloads) plus stats modulo Wall/Cache.
func resultsEqual(t *testing.T, label string, got, want Result) {
	t.Helper()
	itemsEqual(t, label, got.Items, want.Items)
	for i := range want.Items {
		if !reflect.DeepEqual(got.Items[i].Payload, want.Items[i].Payload) {
			t.Fatalf("%s pos %d: payload %v vs %v", label, i, got.Items[i].Payload, want.Items[i].Payload)
		}
	}
	statsEqual(t, label, got.Stats, want.Stats)
}

// batchRequests is the all-families request mix the equivalence pins
// run: every query type, plus option variations (K, MinScore).
func batchRequests(a testArchives, lm *linear.Model) []Request {
	machine := fsm.FireAnts()
	min := 0.5
	gq := testGeoQuery()
	gq.Method = GeoPruned
	return []Request{
		{Dataset: "gauss", Query: LinearQuery{Model: lm}, K: 10},
		{Dataset: "hps", Query: SceneQuery{Model: a.pm}, K: 7},
		{Dataset: "weather", Query: FSMQuery{Machine: machine}, K: 10},
		{Dataset: "weather", Query: FSMDistanceQuery{Target: machine, Horizon: 6}, K: 5},
		{Dataset: "basin", Query: gq, K: 10},
		{Dataset: "hps", Query: KnowledgeQuery{Rules: HPSTileRules()}, K: 10},
		{Dataset: "gauss", Query: LinearQuery{Model: lm}, K: 3, MinScore: &min},
	}
}

// TestBatchMatchesRun pins the tentpole equivalence: every request in
// a RunBatch returns items, scores, and stats (modulo Wall and the
// cache-counter sample) bit-identical to a solo Engine.Run of the same
// request, across all five query families and shard counts 1, 4 and 7.
// Both engines run with the cache disabled so the pin exercises the
// shared-pool batch execution path, not cache serving.
func TestBatchMatchesRun(t *testing.T) {
	a := buildArchives(t)
	lm := testLinearModel(t)
	ctx := context.Background()
	for _, shards := range []int{1, 4, 7} {
		// Two identical engines: the batch must not be able to warm
		// anything the solo runs then consume.
		be := engineWithArchivesOpts(t, Options{Shards: shards, CacheEntries: -1}, a)
		se := engineWithArchivesOpts(t, Options{Shards: shards, CacheEntries: -1}, a)
		reqs := batchRequests(a, lm)
		batch, err := be.RunBatch(ctx, reqs)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) != len(reqs) {
			t.Fatalf("shards=%d: %d batch results for %d requests", shards, len(batch), len(reqs))
		}
		for i, req := range reqs {
			label := fmt.Sprintf("shards=%d req=%d (%T)", shards, i, req.Query)
			if batch[i].Err != nil {
				t.Fatalf("%s: %v", label, batch[i].Err)
			}
			solo, err := se.Run(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			resultsEqual(t, label, batch[i].Result, solo)
			if batch[i].Result.Stats.Wall <= 0 {
				t.Fatalf("%s: missing wall time", label)
			}
		}
	}
}

// TestBatchDedupSharesOneExecution pins phase-1 dedup: identical
// cacheable requests collapse onto one leader, every follower receives
// an equal result in its own slices, and exactly one entry lands in the
// cache. Single execution itself is pinned white-box below
// (TestBatchDedupSingleFlight).
func TestBatchDedupSharesOneExecution(t *testing.T) {
	a := buildArchives(t)
	e := engineWithArchives(t, 4, a)
	lm := testLinearModel(t)
	req := Request{Dataset: "gauss", Query: LinearQuery{Model: lm}, K: 5}
	batch, err := e.RunBatch(context.Background(), []Request{req, req, req})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 3; i++ {
		resultsEqual(t, fmt.Sprintf("follower %d", i), batch[i].Result, batch[0].Result)
	}
	// Three probes missed (one per slot), one execution, one entry.
	st := e.CacheStats()
	if st.Misses != 3 || st.Hits != 0 || st.Entries != 1 {
		t.Fatalf("cache counters after dedup batch: %+v", st)
	}
	// A repeat batch is pure cache traffic.
	if _, err := e.RunBatch(context.Background(), []Request{req, req, req}); err != nil {
		t.Fatal(err)
	}
	if st := e.CacheStats(); st.Hits != 3 {
		t.Fatalf("repeat batch hits %d, want 3", st.Hits)
	}
	// Followers own their slices: corrupting one result must not leak
	// into its batchmates.
	batch[1].Result.Items[0].Score = -12345
	if batch[0].Result.Items[0].Score == -12345 || batch[2].Result.Items[0].Score == -12345 {
		t.Fatal("batch results share item slices")
	}
}

// TestBatchDedupSingleFlight proves duplicates execute once: every
// execution ends in exactly one cache store, so three identical
// requests in one batch must leave the store counter at one.
func TestBatchDedupSingleFlight(t *testing.T) {
	a := buildArchives(t)
	e := engineWithArchivesOpts(t, Options{Shards: 1}, a)
	lm := testLinearModel(t)
	req := Request{Dataset: "gauss", Query: LinearQuery{Model: lm}, K: 5}
	batch, err := e.RunBatch(context.Background(), []Request{req, req, req})
	if err != nil {
		t.Fatal(err)
	}
	for i, br := range batch {
		if br.Err != nil {
			t.Fatalf("slot %d: %v", i, br.Err)
		}
	}
	if st := e.CacheStats(); st.Stores != 1 || st.Entries != 1 || st.Misses != 3 {
		t.Fatalf("cache counters %+v: want exactly one store for three duplicates", st)
	}
}

// TestBatchServesFromCache pins phase-1 cache probing: a batch issued
// after a solo Run of the same request serves it from cache,
// bit-identically.
func TestBatchServesFromCache(t *testing.T) {
	a := buildArchives(t)
	e := engineWithArchives(t, 4, a)
	lm := testLinearModel(t)
	req := Request{Dataset: "gauss", Query: LinearQuery{Model: lm}, K: 5}
	solo, err := e.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := e.RunBatch(context.Background(), []Request{req})
	if err != nil {
		t.Fatal(err)
	}
	if batch[0].Err != nil {
		t.Fatal(batch[0].Err)
	}
	if !batch[0].Result.Stats.Cache.Hit {
		t.Fatal("batched repeat of a solo request missed the cache")
	}
	resultsEqual(t, "cache-served batch entry", batch[0].Result, solo)
}

// TestBatchErrorIsolation pins that malformed and failing requests
// poison only their own slots.
func TestBatchErrorIsolation(t *testing.T) {
	a := buildArchives(t)
	e := engineWithArchives(t, 4, a)
	lm := testLinearModel(t)
	reqs := []Request{
		{Dataset: "gauss", Query: LinearQuery{Model: lm}, K: 5},
		{Dataset: "gauss", Query: nil},                         // validation error
		{Dataset: "nope", Query: LinearQuery{Model: lm}, K: 5}, // plan error
		{Dataset: "weather", Query: FSMQuery{Machine: fsm.FireAnts()}, K: 5},
	}
	batch, err := e.RunBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if batch[0].Err != nil || batch[3].Err != nil {
		t.Fatalf("healthy requests errored: %v, %v", batch[0].Err, batch[3].Err)
	}
	if batch[1].Err == nil {
		t.Fatal("nil-query request passed validation")
	}
	if !errors.Is(batch[2].Err, ErrUnknownDataset) {
		t.Fatalf("unknown dataset: got %v", batch[2].Err)
	}
	if len(batch[0].Result.Items) == 0 || len(batch[3].Result.Items) == 0 {
		t.Fatal("healthy requests returned no items")
	}
}

// TestBatchCancellation pins that a cancelled batch reports the bare
// context error both as the batch error and in every unserved slot.
func TestBatchCancellation(t *testing.T) {
	a := buildArchives(t)
	e := engineWithArchivesOpts(t, Options{Shards: 4, CacheEntries: -1}, a)
	lm := testLinearModel(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already-dead context: every slot must carry ctx.Err()
	batch, err := e.RunBatch(ctx, batchRequests(a, lm))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("batch error %v, want context.Canceled", err)
	}
	for i, br := range batch {
		if !errors.Is(br.Err, context.Canceled) {
			t.Fatalf("slot %d: %v, want context.Canceled", i, br.Err)
		}
	}
}

// TestBatchEmptyAndNilCtx pins the degenerate inputs.
func TestBatchEmptyAndNilCtx(t *testing.T) {
	a := buildArchives(t)
	e := engineWithArchives(t, 2, a)
	out, err := e.RunBatch(context.Background(), nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty batch: %v, %d results", err, len(out))
	}
	lm := testLinearModel(t)
	//nolint:staticcheck // nil ctx is part of the API contract under test
	batch, err := e.RunBatch(nil, []Request{{Dataset: "gauss", Query: LinearQuery{Model: lm}, K: 3}})
	if err != nil || batch[0].Err != nil {
		t.Fatalf("nil-ctx batch: %v / %v", err, batch[0].Err)
	}
}

// engineWithArchivesOpts is engineWithArchives with full Options
// control (cache, admission) for the serving-layer tests.
func engineWithArchivesOpts(t *testing.T, opt Options, a testArchives) *Engine {
	t.Helper()
	e := NewEngineWith(opt)
	if err := e.AddTuples("gauss", a.pts); err != nil {
		t.Fatal(err)
	}
	if err := e.AddScene("hps", a.scene); err != nil {
		t.Fatal(err)
	}
	if err := e.AddSeries("weather", a.arch); err != nil {
		t.Fatal(err)
	}
	if err := e.AddWells("basin", a.wells); err != nil {
		t.Fatal(err)
	}
	return e
}
