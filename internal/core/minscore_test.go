package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"modelir/internal/linear"
)

func minScoreTestEngine(t *testing.T) (*Engine, Request) {
	t.Helper()
	a := buildArchives(t)
	e := engineWithArchives(t, 4, a)
	lm, err := linear.New([]string{"a", "b", "c"}, []float64{1, -0.5, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	return e, Request{Dataset: "gauss", Query: LinearQuery{Model: lm}, K: 10}
}

// TestScreenFloorIsLeastReaching pins screenFloor's rule on random and
// adversarial scales: the floor's shifted value reaches min, and the
// next float below it does not.
func TestScreenFloorIsLeastReaching(t *testing.T) {
	cases := [][2]float64{{1 << 53, 1<<53 - 1}, {5, 2}, {7, 2}, {0, 0.1}, {-3, 1e300}, {1e-300, -1}, {math.Inf(1), 1}}
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		scale := math.Pow(2, float64(r.Intn(120)-60))
		cases = append(cases, [2]float64{r.NormFloat64() * scale, r.NormFloat64() * scale * math.Pow(2, float64(r.Intn(60)))})
	}
	for _, c := range cases {
		min, shift := c[0], c[1]
		f := screenFloor(min, shift)
		if f+shift < min || math.Nextafter(f, math.Inf(-1))+shift >= min {
			t.Fatalf("screenFloor(%v, %v) = %v: not the least score reaching min", min, shift, f)
		}
	}
}

// TestLinearMinScoreFloorRoundsDown is the rounding repro: both rows
// score exactly 2^53 after an intercept of 2^53-1, so MinScore 2^53 must
// return both, though MinScore minus the intercept is 1 and both
// pre-intercept scores are below it.
func TestLinearMinScoreFloorRoundsDown(t *testing.T) {
	lm, err := linear.New([]string{"x0"}, []float64{1}, 1<<53-1)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2} {
		e := NewEngineWith(Options{Shards: shards})
		if err := e.AddTuples("t", [][]float64{{0.9999999999999999}, {0.5}}); err != nil {
			t.Fatal(err)
		}
		min := float64(1 << 53)
		for _, ms := range []*float64{nil, &min} {
			res, err := e.Run(context.Background(), Request{Dataset: "t", Query: LinearQuery{Model: lm}, K: 5, MinScore: ms})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Items) != 2 || res.Items[0].Score != min || res.Items[1].Score != min {
				t.Fatalf("shards=%d MinScore=%v: %+v, want both rows at 2^53", shards, ms != nil, res.Items)
			}
		}
	}
}

// A floor proved elsewhere reaches a run as its MinScore (a cluster
// node folds the router's floor and the K-th best score of the
// partitions it already ran into it). The run returns exactly the
// reference items at or above it: items scoring >= the floor can never
// be pruned (strict screening), and the rest are filtered.
func TestMinScoreFloorPrunes(t *testing.T) {
	e, req := minScoreTestEngine(t)
	want, err := e.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	floor := want.Items[2].Score // only the top 3 can survive for sure
	floored := req
	floored.MinScore = &floor
	got, err := e.Run(context.Background(), floored)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for n < len(want.Items) && want.Items[n].Score >= floor {
		n++
	}
	itemsEqual(t, "items at/above the floor", got.Items, want.Items[:n])
}

// A run pruned by a floor proved elsewhere must not poison the result
// cache: an identical unfloored request afterwards misses and gets the
// full local answer.
func TestRunSharedForeignFloorNotCached(t *testing.T) {
	e, req := minScoreTestEngine(t)
	want, err := engineWithArchives(t, 4, buildArchives(t)).Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	floor := want.Items[0].Score // aggressive foreign floor
	floored := req
	floored.MinScore = &floor
	if _, err := e.Run(context.Background(), floored); err != nil {
		t.Fatal(err)
	}
	got, err := e.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.Cache.Hit {
		t.Fatal("foreign-floored result was served from cache")
	}
	itemsEqual(t, "unfloored run after a floored one", got.Items, want.Items)
}

// A run seeded with a floor before it starts is cached under the
// request and that floor, since MinScore is part of the cache key: the
// same request under the same floor hits with the same items, while
// another floor and the unfloored request miss, and the unfloored
// request still gets the full local answer. This is how a cluster node
// keeps its cache when it carries one partition's floor into the next.
func TestRunSharedSeededFloorCachedUnderSeed(t *testing.T) {
	e, req := minScoreTestEngine(t)
	full, err := engineWithArchives(t, 4, buildArchives(t)).Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	run := func(floor float64) Result {
		t.Helper()
		floored := req
		floored.MinScore = &floor
		res, err := e.Run(context.Background(), floored)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	floor := full.Items[3].Score
	cold := run(floor)
	if cold.Stats.Cache.Hit || len(cold.Items) >= len(full.Items) {
		t.Fatalf("floored cold run: hit %v, %d items of %d", cold.Stats.Cache.Hit, len(cold.Items), len(full.Items))
	}
	hit := run(floor)
	if !hit.Stats.Cache.Hit {
		t.Fatal("the same floor missed the cache")
	}
	itemsEqual(t, "floored hit", hit.Items, cold.Items)
	if other := run(full.Items[5].Score); other.Stats.Cache.Hit {
		t.Fatal("another floor was served the first floor's entry")
	}
	plain, err := e.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Stats.Cache.Hit {
		t.Fatal("the unfloored request was served a floored entry")
	}
	itemsEqual(t, "unfloored run", plain.Items, full.Items)
}
