package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"modelir/internal/linear"
	"modelir/internal/topk"
)

func remoteTestEngine(t *testing.T) (*Engine, Request) {
	t.Helper()
	a := buildArchives(t)
	e := engineWithArchives(t, 4, a)
	lm, err := linear.New([]string{"a", "b", "c"}, []float64{1, -0.5, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	return e, Request{Dataset: "gauss", Query: LinearQuery{Model: lm}, K: 10}
}

func TestSharedBoundTranslation(t *testing.T) {
	sb := NewSharedBound()
	if f := sb.Floor(); !math.IsInf(f, -1) {
		t.Fatalf("fresh Floor = %v", f)
	}
	// Raises before attach are buffered and applied, shift-adjusted,
	// when the plan's bound arrives.
	sb.Raise(5)
	sb.Raise(3) // lower: ignored
	b := topk.NewBound()
	sb.attach(b, 2) // result = internal + 2
	// Translated down, never up: 3-2^-51 plus 2 ties halfway below 5 and
	// rounds to 5, so the least internal score that reaches 5 is under 3.
	if got, want := b.Get(), math.Nextafter(3, math.Inf(-1)); got != want {
		t.Fatalf("internal floor after attach = %v, want %v", got, want)
	}
	sb.Raise(7)
	if got := b.Get(); got != 5 {
		t.Fatalf("internal floor after raise = %v, want 5", got)
	}
	// Local raises surface through Floor in result scale.
	b.Raise(10)
	if got := sb.Floor(); got != 12 {
		t.Fatalf("Floor = %v, want 12", got)
	}
	sb.detach()
	if got := sb.Floor(); got != 12 {
		t.Fatalf("Floor after detach = %v, want 12", got)
	}
	if _, raises := sb.seed(); raises == 0 {
		t.Fatal("no raise counted after an external raise")
	}
	if _, raises := NewSharedBound().seed(); raises != 0 {
		t.Fatalf("%d raises on a fresh bound", raises)
	}
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

func TestRunSharedMatchesRun(t *testing.T) {
	e, req := remoteTestEngine(t)
	// Cold run first so the plan actually attaches (a cache hit would
	// short-circuit before the bound exists and leave the floor at -Inf).
	sb := NewSharedBound()
	got, err := e.RunShared(context.Background(), req, sb)
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	itemsEqual(t, "RunShared vs Run", got.Items, want.Items)

	// Floor after the run reflects the filled heap's threshold: at
	// least the K-th best score, in result scale.
	kth := want.Items[len(want.Items)-1].Score
	if f := sb.Floor(); f < kth {
		t.Fatalf("Floor = %v, want >= k-th score %v", f, kth)
	}
}

// A foreign floor prunes, but every surviving item is bit-identical to
// the reference run's items at or above the floor.
func TestRunSharedForeignFloorPrunes(t *testing.T) {
	e, req := remoteTestEngine(t)
	want, err := e.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	floor := want.Items[2].Score // only the top 3 can survive for sure
	sb := NewSharedBound()
	sb.Raise(floor)
	got, err := e.RunShared(context.Background(), req, sb)
	if err != nil {
		t.Fatal(err)
	}
	// Items scoring >= floor can never be pruned (strict screening), so
	// they must appear exactly as in the reference.
	n := 0
	for n < len(want.Items) && want.Items[n].Score >= floor {
		n++
	}
	if len(got.Items) < n {
		t.Fatalf("got %d items, want at least the %d at/above the floor", len(got.Items), n)
	}
	itemsEqual(t, "items at/above foreign floor", got.Items[:n], want.Items[:n])
	for _, it := range got.Items[n:] {
		if it.Score >= floor {
			t.Fatalf("item %d score %v >= floor yet not in reference prefix", it.ID, it.Score)
		}
	}
}

// A run pruned by a foreign floor must not poison the result cache: an
// identical standalone request afterwards gets the full local answer.
func TestRunSharedForeignFloorNotCached(t *testing.T) {
	e, req := remoteTestEngine(t)

	ref := NewEngineWith(Options{Shards: 4})
	a := buildArchives(t)
	if err := ref.AddTuples("gauss", a.pts); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	sb := NewSharedBound()
	sb.Raise(want.Items[0].Score) // aggressive foreign floor
	if _, err := e.RunShared(context.Background(), req, sb); err != nil {
		t.Fatal(err)
	}
	got, err := e.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.Cache.Hit {
		t.Fatal("foreign-floored result was served from cache")
	}
	itemsEqual(t, "post-scatter standalone run", got.Items, want.Items)
}

// A run seeded with a foreign floor before it starts is cached under the
// request and that floor: the same request under the same seed hits
// with the same items, while another seed and the unseeded request
// miss. This is how a cluster node keeps its cache when it carries one
// partition's floor into the next.
func TestRunSharedSeededFloorCachedUnderSeed(t *testing.T) {
	e, req := remoteTestEngine(t)
	full, err := engineWithArchives(t, 4, buildArchives(t)).Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	run := func(seed float64) Result {
		t.Helper()
		sb := NewSharedBound()
		sb.Raise(seed)
		res, err := e.RunShared(context.Background(), req, sb)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seed := full.Items[3].Score
	cold := run(seed)
	if cold.Stats.Cache.Hit || len(cold.Items) >= len(full.Items) {
		t.Fatalf("seeded cold run: hit %v, %d items of %d", cold.Stats.Cache.Hit, len(cold.Items), len(full.Items))
	}
	hit := run(seed)
	if !hit.Stats.Cache.Hit {
		t.Fatal("the same seed missed the cache")
	}
	itemsEqual(t, "seeded hit", hit.Items, cold.Items)
	if other := run(full.Items[5].Score); other.Stats.Cache.Hit {
		t.Fatal("another seed was served the first seed's entry")
	}
	plain, err := e.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Stats.Cache.Hit {
		t.Fatal("the unseeded request was served a seeded entry")
	}
	itemsEqual(t, "unseeded run", plain.Items, full.Items)
}
