package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"modelir/internal/bayes"
	"modelir/internal/fsm"
	"modelir/internal/linear"
	"modelir/internal/synth"
	"modelir/internal/topk"
)

func testLinearModel(t *testing.T) *linear.Model {
	t.Helper()
	m, err := linear.New([]string{"a", "b", "c"}, []float64{1, -0.5, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func testGeoQuery() GeologyQuery {
	return GeologyQuery{
		Sequence: []synth.Lithology{synth.Shale, synth.Sandstone, synth.Siltstone},
		MaxGapFt: 10,
		MinGamma: 45,
	}
}

// TestRunWorkerOverride pins that the worker-pool width changes
// scheduling only, never results.
func TestRunWorkerOverride(t *testing.T) {
	a := buildArchives(t)
	e := engineWithArchives(t, 4, a)
	lm := testLinearModel(t)
	ctx := context.Background()
	var want []topk.Item
	for _, workers := range []int{1, 2, 5} {
		res, err := e.Run(ctx, Request{
			Dataset: "gauss", Query: LinearQuery{Model: lm}, K: 8, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = res.Items
			continue
		}
		itemsEqual(t, fmt.Sprintf("workers=%d", workers), res.Items, want)
	}
}

func TestRunValidation(t *testing.T) {
	a := buildArchives(t)
	e := engineWithArchives(t, 2, a)
	lm := testLinearModel(t)
	ctx := context.Background()

	cases := []struct {
		name string
		req  Request
	}{
		{"nil query", Request{Dataset: "gauss"}},
		{"negative K", Request{Dataset: "gauss", Query: LinearQuery{Model: lm}, K: -1}},
		{"negative budget", Request{Dataset: "gauss", Query: LinearQuery{Model: lm}, Budget: -1}},
		{"negative workers", Request{Dataset: "gauss", Query: LinearQuery{Model: lm}, Workers: -1}},
		{"nil linear model", Request{Dataset: "gauss", Query: LinearQuery{}}},
		{"nil scene model", Request{Dataset: "hps", Query: SceneQuery{}}},
		{"nil machine", Request{Dataset: "weather", Query: FSMQuery{}}},
		{"nil distance target", Request{Dataset: "weather", Query: FSMDistanceQuery{}}},
		{"empty geology sequence", Request{Dataset: "basin", Query: GeologyQuery{}}},
		{"bad geology method", Request{Dataset: "basin", Query: GeologyQuery{
			Sequence: []synth.Lithology{synth.Shale}, Method: GeologyMethod(99),
		}}},
		{"empty rule set", Request{Dataset: "hps", Query: KnowledgeQuery{}}},
		{"unknown tuples", Request{Dataset: "nope", Query: LinearQuery{Model: lm}}},
		{"unknown scene", Request{Dataset: "nope", Query: SceneQuery{Model: a.pm}}},
		{"unknown series", Request{Dataset: "nope", Query: FSMQuery{Machine: fsm.FireAnts()}}},
		{"unknown wells", Request{Dataset: "nope", Query: testGeoQuery()}},
	}
	for _, c := range cases {
		if _, err := e.Run(ctx, c.req); err == nil {
			t.Fatalf("%s: want error", c.name)
		}
	}

	nan := math.NaN()
	if _, err := e.Run(ctx, Request{Dataset: "gauss", Query: LinearQuery{Model: lm}, MinScore: &nan}); err == nil {
		t.Fatal("NaN MinScore: want error")
	}

	// K defaulting: zero means DefaultK on the unified path.
	res, err := e.Run(ctx, Request{Dataset: "gauss", Query: LinearQuery{Model: lm}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != DefaultK {
		t.Fatalf("defaulted K returned %d items, want %d", len(res.Items), DefaultK)
	}
	// A negative K is rejected, not defaulted.
	if _, err := e.Run(ctx, Request{Dataset: "gauss", Query: LinearQuery{Model: lm}, K: -1}); !errors.Is(err, topk.ErrBadCapacity) {
		t.Fatalf("linear K=-1: got %v, want ErrBadCapacity", err)
	}
	if _, err := e.Run(ctx, Request{Dataset: "weather", Query: FSMQuery{Machine: fsm.FireAnts()}, K: -1}); !errors.Is(err, topk.ErrBadCapacity) {
		t.Fatalf("fsm K=-1: got %v, want ErrBadCapacity", err)
	}
}

// TestRunExpiredDeadlineAllFamilies pins the cancellation contract at
// the entry: a request whose deadline has already passed returns
// ctx.Err() on every family without doing archive work.
func TestRunExpiredDeadlineAllFamilies(t *testing.T) {
	a := buildArchives(t)
	e := engineWithArchives(t, 4, a)
	lm := testLinearModel(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()

	queries := map[string]Request{
		"linear":    {Dataset: "gauss", Query: LinearQuery{Model: lm}},
		"scene":     {Dataset: "hps", Query: SceneQuery{Model: a.pm}},
		"fsm":       {Dataset: "weather", Query: FSMQuery{Machine: fsm.FireAnts()}},
		"fsm-dist":  {Dataset: "weather", Query: FSMDistanceQuery{Target: fsm.FireAnts(), Horizon: 6}},
		"geology":   {Dataset: "basin", Query: testGeoQuery()},
		"knowledge": {Dataset: "hps", Query: KnowledgeQuery{Rules: HPSTileRules()}},
	}
	for name, req := range queries {
		if _, err := e.Run(ctx, req); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: got %v, want DeadlineExceeded", name, err)
		}
	}
}

// TestRunCancelMidQueryFSM proves deterministically that cancellation
// aborts shard work mid-scan: a prefilter blocks the scan until the
// test cancels, and the per-region context check must then surface
// ctx.Err() long before the archive is exhausted.
func TestRunCancelMidQueryFSM(t *testing.T) {
	a := buildArchives(t)
	e := engineWithArchives(t, 4, a)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	started := make(chan struct{})
	var once func()
	once = func() { close(started); once = func() {} }
	pre := func(s synth.DrySpellStats) bool {
		once()
		<-ctx.Done() // park the scan until the test cancels
		return true
	}
	done := make(chan error, 1)
	go func() {
		_, err := e.Run(ctx, Request{
			Dataset: "weather",
			Query:   FSMQuery{Machine: fsm.FireAnts(), Prefilter: pre},
			K:       5,
			Workers: 1, // single worker: the park blocks the whole scan
		})
		done <- err
	}()
	<-started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled query did not return")
	}
}

// TestRunCancelMidQueryKnowledge is the deterministic mid-scan abort
// for the tile path: a rule membership cancels the context from inside
// the first scored tile, and the per-tile check must stop the scan.
func TestRunCancelMidQueryKnowledge(t *testing.T) {
	a := buildArchives(t)
	e := engineWithArchives(t, 2, a)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rules := bayes.NewRuleSet().Require("b4.mean", cancellingMembership{cancel: cancel})
	_, err := e.Run(ctx, Request{Dataset: "hps", Query: KnowledgeQuery{Rules: rules}, K: 5})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

type cancellingMembership struct{ cancel context.CancelFunc }

func (m cancellingMembership) Grade(float64) float64 {
	m.cancel()
	return 1
}

// TestRunBudget pins the budget contract: a tiny budget truncates (the
// scan stops early, flagged, no error), a generous budget changes
// nothing.
func TestRunBudget(t *testing.T) {
	a := buildArchives(t)
	e := engineWithArchives(t, 4, a)
	lm := testLinearModel(t)
	ctx := context.Background()

	full, err := e.Run(ctx, Request{Dataset: "gauss", Query: LinearQuery{Model: lm}, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	tiny, err := e.Run(ctx, Request{Dataset: "gauss", Query: LinearQuery{Model: lm}, K: 10, Budget: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !tiny.Stats.Truncated {
		t.Fatalf("budget 8 not truncated: %+v", tiny.Stats)
	}
	if tiny.Stats.Evaluations >= full.Stats.Evaluations {
		t.Fatalf("budgeted run did %d evals, unbudgeted %d", tiny.Stats.Evaluations, full.Stats.Evaluations)
	}
	// Pruned must credit screening only: the budget-skipped remainder
	// is neither examined nor pruned, so a truncated run accounts for
	// strictly fewer rows than the archive holds.
	if n := tiny.Stats.Examined + tiny.Stats.Pruned; n >= len(a.pts) || tiny.Stats.Pruned < 0 {
		t.Fatalf("examined %d + pruned %d of %d rows: no budget skips",
			tiny.Stats.Examined, tiny.Stats.Pruned, len(a.pts))
	}
	big, err := e.Run(ctx, Request{Dataset: "gauss", Query: LinearQuery{Model: lm}, K: 10, Budget: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if big.Stats.Truncated {
		t.Fatal("generous budget flagged truncated")
	}
	itemsEqual(t, "generous budget", big.Items, full.Items)

	// Same contract on a scan-shaped family.
	fullF, err := e.Run(ctx, Request{Dataset: "weather", Query: FSMQuery{Machine: fsm.FireAnts()}, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	tinyF, err := e.Run(ctx, Request{Dataset: "weather", Query: FSMQuery{Machine: fsm.FireAnts()}, K: 10, Budget: 400})
	if err != nil {
		t.Fatal(err)
	}
	if !tinyF.Stats.Truncated || tinyF.Stats.Evaluations >= fullF.Stats.Evaluations {
		t.Fatalf("fsm budget: tiny %+v vs full %+v", tinyF.Stats, fullF.Stats)
	}
	// Examined must count regions actually scanned, not the dataset
	// total: a truncated scan inspected strictly fewer candidates.
	if tinyF.Stats.Examined >= fullF.Stats.Examined {
		t.Fatalf("fsm budget examined %d >= full %d", tinyF.Stats.Examined, fullF.Stats.Examined)
	}
}

// TestRunMinScore pins the score-floor contract: results equal the
// unrestricted run filtered at the floor (inclusive), on a family that
// consults the screening bound (linear) and one that post-filters only
// (fsm).
func TestRunMinScore(t *testing.T) {
	a := buildArchives(t)
	e := engineWithArchives(t, 4, a)
	lm := testLinearModel(t)
	ctx := context.Background()

	full, err := e.Run(ctx, Request{Dataset: "gauss", Query: LinearQuery{Model: lm}, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Items) < 4 {
		t.Fatalf("fixture too small: %d items", len(full.Items))
	}
	floor := full.Items[3].Score // keeps exactly the top 4 (scores are distinct here)
	res, err := e.Run(ctx, Request{Dataset: "gauss", Query: LinearQuery{Model: lm}, K: 10, MinScore: &floor})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]topk.Item, 0, 4)
	for _, it := range full.Items {
		if it.Score >= floor {
			want = append(want, it)
		}
	}
	itemsEqual(t, "linear minscore", res.Items, want)

	fullF, err := e.Run(ctx, Request{Dataset: "weather", Query: FSMQuery{Machine: fsm.FireAnts()}, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(fullF.Items) == 0 {
		t.Fatal("fsm fixture returned no items")
	}
	mid := fullF.Items[len(fullF.Items)/2].Score
	resF, err := e.Run(ctx, Request{Dataset: "weather", Query: FSMQuery{Machine: fsm.FireAnts()}, K: 10, MinScore: &mid})
	if err != nil {
		t.Fatal(err)
	}
	wantF := make([]topk.Item, 0, len(fullF.Items))
	for _, it := range fullF.Items {
		if it.Score >= mid {
			wantF = append(wantF, it)
		}
	}
	itemsEqual(t, "fsm minscore", resF.Items, wantF)
}

// TestFSMDistanceHorizonValidated pins that a horizon outside
// 1..MaxFSMHorizon is refused before the cache and the scan: on a
// series dataset (where a zero horizon once failed at the first region
// and a huge one ran for minutes), on an unknown dataset, and in a
// batch. The refusals count no cache miss.
func TestFSMDistanceHorizonValidated(t *testing.T) {
	arch, err := synth.WeatherArchive(synth.WeatherConfig{Seed: 5, Regions: 20, Days: 60})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngineWith(Options{Shards: 2})
	defer e.Close()
	if err := e.AddSeries("weather", arch); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, c := range []struct {
		horizon int
		ok      bool
	}{
		{math.MinInt, false},
		{-1, false},
		{0, false},
		{1, true},
		{8, true},
		{MaxFSMHorizon, true},
		{MaxFSMHorizon + 1, false},
		{math.MaxInt32, false},
	} {
		q := FSMDistanceQuery{Target: fsm.FireAnts(), Horizon: c.horizon}
		for _, ds := range []string{"weather", "missing"} {
			res, err := e.Run(ctx, Request{Dataset: ds, Query: q, K: 3})
			switch {
			case !c.ok && (err == nil || errors.Is(err, ErrUnknownDataset)):
				t.Fatalf("horizon %d on %q: err %v, want a horizon refusal", c.horizon, ds, err)
			case c.ok && ds != "missing" && err != nil:
				t.Fatalf("horizon %d on %q: %v", c.horizon, ds, err)
			case c.ok && ds == "weather" && len(res.Items) != 3:
				t.Fatalf("horizon %d: %d items, want 3", c.horizon, len(res.Items))
			}
		}
		br, err := e.RunBatch(ctx, []Request{{Dataset: "weather", Query: q, K: 3}})
		if err != nil {
			t.Fatal(err)
		}
		if (br[0].Err == nil) != c.ok {
			t.Fatalf("horizon %d in a batch: err %v, want ok=%v", c.horizon, br[0].Err, c.ok)
		}
	}
	// Only accepted requests reached the cache: 3 horizons, each a miss
	// on "weather" and on "missing" then a batch hit, and this one miss
	// more.
	res, err := e.Run(ctx, Request{Dataset: "weather", Query: FSMDistanceQuery{Target: fsm.FireAnts(), Horizon: 2}, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Stats.Cache.Misses; got != 7 {
		t.Fatalf("%d cache misses, want 7 (refused requests must not probe the cache)", got)
	}
}
