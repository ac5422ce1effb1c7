package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"modelir/internal/bayes"
	"modelir/internal/fsm"
	"modelir/internal/linear"
	"modelir/internal/qcache"
	"modelir/internal/topk"
)

// TestCacheHitMatchesMiss pins the acceptance criterion: a cache hit
// returns items, scores, payloads, and stats bit-identical (modulo
// Wall and the Cache sample) to the cold run that populated it, across
// all five query families and shard counts 1, 4 and 7.
func TestCacheHitMatchesMiss(t *testing.T) {
	a := buildArchives(t)
	lm := testLinearModel(t)
	ctx := context.Background()
	for _, shards := range []int{1, 4, 7} {
		e := engineWithArchives(t, shards, a)
		for i, req := range batchRequests(a, lm) {
			label := fmt.Sprintf("shards=%d req=%d (%T)", shards, i, req.Query)
			cold, err := e.Run(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if cold.Stats.Cache.Hit {
				t.Fatalf("%s: first run reported a cache hit", label)
			}
			hit, err := e.Run(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if !hit.Stats.Cache.Hit {
				t.Fatalf("%s: repeat run missed the cache", label)
			}
			resultsEqual(t, label, hit, cold)

			// Cached memory must be unreachable from either result: a
			// caller scribbling over its items cannot poison later hits.
			if len(hit.Items) > 0 {
				hit.Items[0].Score = -99999
				again, err := e.Run(ctx, req)
				if err != nil {
					t.Fatal(err)
				}
				hit.Items[0] = again.Items[0]
				resultsEqual(t, label+" after scribble", again, cold)
			}
		}
	}
}

// TestCacheGenerationInvalidation is the deterministic stale-entry
// pin for per-dataset invalidation: an append to the queried dataset
// kills its cached entry unserved, while registrations and appends to
// OTHER datasets leave it alone.
func TestCacheGenerationInvalidation(t *testing.T) {
	a := buildArchives(t)
	e := engineWithArchives(t, 4, a)
	lm := testLinearModel(t)
	ctx := context.Background()
	req := Request{Dataset: "gauss", Query: LinearQuery{Model: lm}, K: 5}

	if _, err := e.Run(ctx, req); err != nil {
		t.Fatal(err)
	}
	// Warm entry serves.
	warm, err := e.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Stats.Cache.Hit {
		t.Fatal("warm entry did not serve")
	}

	// A registration elsewhere does not touch gauss's generation: the
	// entry must keep serving. The new dataset starts at generation 1
	// and answers from a cold run.
	unrelated := Request{Dataset: "unrelated", Query: LinearQuery{Model: lm}, K: 1}
	if _, err := e.Run(ctx, unrelated); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("query before registration: %v", err)
	}
	if err := e.AddTuples("unrelated", [][]float64{{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	if g, u := genOf(t, e, "gauss"), genOf(t, e, "unrelated"); g != 1 || u != 1 {
		t.Fatalf("generations gauss %d unrelated %d, want 1 and 1", g, u)
	}
	if res, err := e.Run(ctx, unrelated); err != nil || res.Stats.Cache.Hit || len(res.Items) != 1 {
		t.Fatalf("first query after registration: %+v, %v", res, err)
	}
	after, err := e.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !after.Stats.Cache.Hit {
		t.Fatal("unrelated registration evicted gauss's entry")
	}
	// A failed registration (a duplicate name) changes nothing either.
	if err := e.AddTuples("gauss", a.pts); !errors.Is(err, ErrDuplicateDataset) {
		t.Fatalf("duplicate registration: %v", err)
	}
	if after, err = e.Run(ctx, req); err != nil || !after.Stats.Cache.Hit {
		t.Fatalf("duplicate registration evicted gauss's entry (%v)", err)
	}
	// An append to another dataset likewise leaves gauss alone.
	if err := e.AppendTuples("unrelated", [][]float64{{4, 5, 6}}); err != nil {
		t.Fatal(err)
	}
	after, err = e.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !after.Stats.Cache.Hit {
		t.Fatal("append to another dataset evicted gauss's entry")
	}

	// An append to gauss itself bumps its generation; the entry must
	// die unserved and the recompute must see the delta segment.
	row := make([]float64, len(a.pts[0]))
	if err := e.AppendTuples("gauss", [][]float64{row}); err != nil {
		t.Fatal(err)
	}
	if g := genOf(t, e, "gauss"); g != 2 {
		t.Fatalf("gauss generation after append = %d, want 2", g)
	}
	stale, err := e.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if stale.Stats.Cache.Hit {
		t.Fatal("stale entry served after append to queried dataset")
	}
	if stale.Stats.Cache.Invalidations == 0 {
		t.Fatal("stale entry dropped without counting an invalidation")
	}
	if stale.Stats.Shards != 5 {
		t.Fatalf("post-append fan-out = %d segments, want 4 base + 1 delta", stale.Stats.Shards)
	}
	// And the recompute re-populates the cache under the new generation.
	again, err := e.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Stats.Cache.Hit {
		t.Fatal("recomputed entry did not re-cache")
	}
	resultsEqual(t, "re-cache under new generation", again, stale)
}

// genOf reports the cache generation Datasets lists for the tuple
// dataset name.
func genOf(t *testing.T, e *Engine, name string) uint64 {
	t.Helper()
	for _, ds := range e.Datasets() {
		if ds.Name == name && ds.Kind == kindTuples {
			return ds.Gen
		}
	}
	t.Fatalf("dataset %q not listed", name)
	return 0
}

// requestKey is cacheKey's bytes as a comparable value.
func requestKey(req Request) (string, bool) {
	kp := cacheKey(req, ownParts(req))
	if kp == nil {
		return "", false
	}
	defer releaseKey(kp)
	return string(*kp), true
}

// TestFingerprintSemantics pins which requests share a cache line and
// which never enter the cache at all.
func TestFingerprintSemantics(t *testing.T) {
	lm := testLinearModel(t)
	base := Request{Dataset: "gauss", Query: LinearQuery{Model: lm}, K: 5}
	if err := validateRequest(&base); err != nil {
		t.Fatal(err)
	}
	baseKey, ok := requestKey(base)
	if !ok {
		t.Fatal("plain linear request not cacheable")
	}

	// Workers changes scheduling only — it must share the cache line.
	workers := base
	workers.Workers = 7
	if k, ok := requestKey(workers); !ok || k != baseKey {
		t.Fatal("Workers changed the fingerprint")
	}

	// Distinct semantics, distinct keys.
	distinct := []Request{
		{Dataset: "other", Query: LinearQuery{Model: lm}, K: 5},
		{Dataset: "gauss", Query: LinearQuery{Model: lm}, K: 6},
	}
	min := 0.0
	withMin := base
	withMin.MinScore = &min
	distinct = append(distinct, withMin)
	m2, err := modelWithCoeffs(t, []float64{1, -0.5, 2.001}, 3)
	if err != nil {
		t.Fatal(err)
	}
	distinct = append(distinct, Request{Dataset: "gauss", Query: LinearQuery{Model: m2}, K: 5})
	seen := map[string]int{baseKey: -1}
	for i := range distinct {
		if err := validateRequest(&distinct[i]); err != nil {
			t.Fatal(err)
		}
		k, ok := requestKey(distinct[i])
		if !ok {
			t.Fatalf("variant %d not cacheable", i)
		}
		if j, dup := seen[k]; dup {
			t.Fatalf("variants %d and %d collide", i, j)
		}
		seen[k] = i
	}

	// Uncacheable shapes: scheduling-dependent or unfingerprintable.
	budget := base
	budget.Budget = 100
	if _, ok := requestKey(budget); ok {
		t.Fatal("budgeted request fingerprinted (truncation is scheduling-dependent)")
	}
	pre := Request{Dataset: "weather", Query: FSMQuery{Machine: fsm.FireAnts(), Prefilter: FireAntsPrefilter}, K: 5}
	if err := validateRequest(&pre); err != nil {
		t.Fatal(err)
	}
	if _, ok := requestKey(pre); ok {
		t.Fatal("prefiltered FSM request fingerprinted (func values have no content)")
	}
	custom := Request{Dataset: "hps", Query: KnowledgeQuery{Rules: customMembershipRules()}, K: 5}
	if err := validateRequest(&custom); err != nil {
		t.Fatal(err)
	}
	if _, ok := requestKey(custom); ok {
		t.Fatal("unknown membership fingerprinted")
	}

	// Method zero normalizes to GeoDP: both must share one cache line.
	g0 := Request{Dataset: "basin", Query: testGeoQuery(), K: 5}
	gq := testGeoQuery()
	gq.Method = GeoDP
	gDP := Request{Dataset: "basin", Query: gq, K: 5}
	if err := validateRequest(&g0); err != nil {
		t.Fatal(err)
	}
	if err := validateRequest(&gDP); err != nil {
		t.Fatal(err)
	}
	k0, ok0 := requestKey(g0)
	kDP, okDP := requestKey(gDP)
	if !ok0 || !okDP || k0 != kDP {
		t.Fatal("geology Method zero and GeoDP fingerprint apart")
	}

	// Adjacent strings and lists do not re-associate: attribute names
	// ("ab","c") vs ("a","bc"), and level plans (2,4) vs (4).
	mab, _ := linear.New([]string{"ab", "c", "d"}, []float64{1, 2, 3}, 0)
	ma, _ := linear.New([]string{"a", "bc", "d"}, []float64{1, 2, 3}, 0)
	ka, _ := requestKey(Request{Dataset: "gauss", Query: LinearQuery{Model: mab}, K: 5})
	kb, _ := requestKey(Request{Dataset: "gauss", Query: LinearQuery{Model: ma}, K: 5})
	if ka == kb {
		t.Fatal("attribute names re-associate across a length prefix")
	}
	lo, hi := []float64{0, 0, 0, 0}, []float64{255, 255, 255, 1500}
	sceneKey := func(levels ...int) string {
		t.Helper()
		pm, err := linear.Decompose(linear.HPSRisk(), lo, hi, levels...)
		if err != nil {
			t.Fatal(err)
		}
		k, ok := requestKey(Request{Dataset: "hps", Query: SceneQuery{Model: pm}, K: 5})
		if !ok {
			t.Fatal("scene request not cacheable")
		}
		return k
	}
	// One scene spec compiled twice is one cache line: the key is the
	// spec, not the decomposition's pointer or derived state.
	if sceneKey(2, 4) != sceneKey(2, 4) {
		t.Fatal("one scene spec compiled twice keys apart")
	}
	if sceneKey(2, 4) == sceneKey(4) {
		t.Fatal("scene level plans (2,4) and (4) collide")
	}

	// Pure function of content: a pooled buffer that held a longer key
	// leaves nothing behind.
	if k, _ := requestKey(Request{Dataset: strings.Repeat("x", 4096), Query: LinearQuery{Model: lm}, K: 5}); k == baseKey {
		t.Fatal("long dataset name collides with the base key")
	}
	if k, _ := requestKey(base); k != baseKey {
		t.Fatal("key not deterministic across pooled buffers")
	}

	// FSM machine and distance queries over the same machine must not
	// collide with each other.
	fq := Request{Dataset: "weather", Query: FSMQuery{Machine: fsm.FireAnts()}, K: 5}
	dq := Request{Dataset: "weather", Query: FSMDistanceQuery{Target: fsm.FireAnts(), Horizon: 1}, K: 5}
	if err := validateRequest(&fq); err != nil {
		t.Fatal(err)
	}
	if err := validateRequest(&dq); err != nil {
		t.Fatal(err)
	}
	fk, _ := requestKey(fq)
	dk, _ := requestKey(dq)
	if fk == dk {
		t.Fatal("FSM and FSM-distance queries collide")
	}
}

// TestCacheDisabled pins Options.CacheEntries < 0: no serving, no
// counters, results unchanged.
func TestCacheDisabled(t *testing.T) {
	a := buildArchives(t)
	e := engineWithArchivesOpts(t, Options{Shards: 4, CacheEntries: -1}, a)
	lm := testLinearModel(t)
	req := Request{Dataset: "gauss", Query: LinearQuery{Model: lm}, K: 5}
	ctx := context.Background()
	r1, err := e.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats.Cache.Hit || r2.Stats.Cache.Hit {
		t.Fatal("disabled cache served a hit")
	}
	if st := e.CacheStats(); st != (qcache.Stats{}) {
		t.Fatalf("disabled cache counted: %+v", st)
	}
	resultsEqual(t, "cacheless repeat", r2, r1)
}

// TestCacheInvalidationStress is the race suite: concurrent Register +
// RunBatch + Run traffic with continuous registrations, run under
// -race in CI. Correctness pin: every served linear result equals the
// immutable dataset's true answer, no matter how registrations
// interleave.
func TestCacheInvalidationStress(t *testing.T) {
	a := buildArchives(t)
	e := engineWithArchives(t, 4, a)
	lm := testLinearModel(t)
	ctx := context.Background()

	want, err := e.Run(ctx, Request{Dataset: "gauss", Query: LinearQuery{Model: lm}, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	machine := fsm.FireAnts()
	const writers, readers, iters = 2, 6, 30
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				name := fmt.Sprintf("stress-%d-%d", w, i)
				if err := e.AddTuples(name, [][]float64{{float64(i), 1, 2}}); err != nil {
					t.Errorf("register %s: %v", name, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			reqs := []Request{
				{Dataset: "gauss", Query: LinearQuery{Model: lm}, K: 5},
				{Dataset: "gauss", Query: LinearQuery{Model: lm}, K: 5}, // duplicate: dedup under fire
				{Dataset: "weather", Query: FSMQuery{Machine: machine}, K: 5},
			}
			for i := 0; i < iters; i++ {
				if r%2 == 0 {
					batch, err := e.RunBatch(ctx, reqs)
					if err != nil {
						t.Errorf("reader %d batch: %v", r, err)
						return
					}
					for bi := 0; bi < 2; bi++ {
						if batch[bi].Err != nil {
							t.Errorf("reader %d slot %d: %v", r, bi, batch[bi].Err)
							return
						}
						for j, it := range batch[bi].Result.Items {
							if it != want.Items[j] {
								t.Errorf("reader %d slot %d item %d drifted: %+v vs %+v", r, bi, j, it, want.Items[j])
								return
							}
						}
					}
				} else {
					res, err := e.Run(ctx, reqs[0])
					if err != nil {
						t.Errorf("reader %d run: %v", r, err)
						return
					}
					for j, it := range res.Items {
						if it != want.Items[j] {
							t.Errorf("reader %d item %d drifted: %+v vs %+v", r, j, it, want.Items[j])
							return
						}
					}
				}
			}
		}(r)
	}
	wg.Wait()
	// Every registration landed at generation 1, and none of them
	// invalidated gauss's entry.
	ds := e.Datasets()
	if len(ds) != 4+writers*iters {
		t.Fatalf("%d datasets listed after %d registrations", len(ds), 4+writers*iters)
	}
	for _, d := range ds {
		if d.Gen != 1 {
			t.Fatalf("dataset %q at generation %d, want 1", d.Name, d.Gen)
		}
	}
	res, err := e.Run(ctx, Request{Dataset: "gauss", Query: LinearQuery{Model: lm}, K: 5})
	if err != nil || !res.Stats.Cache.Hit {
		t.Fatalf("gauss entry not served after the registrations (%v)", err)
	}
}

// TestAdmissionClampKeepsResults pins that an engine whose admission
// budget forces every request down to one worker still returns results
// identical to an unconstrained engine, and that heavy concurrent
// traffic through a tiny budget neither deadlocks nor leaks units.
func TestAdmissionClampKeepsResults(t *testing.T) {
	a := buildArchives(t)
	wide := engineWithArchivesOpts(t, Options{Shards: 4, CacheEntries: -1, MaxWorkers: -1}, a)
	tight := engineWithArchivesOpts(t, Options{Shards: 4, CacheEntries: -1, MaxWorkers: 1}, a)
	lm := testLinearModel(t)
	ctx := context.Background()
	req := Request{Dataset: "gauss", Query: LinearQuery{Model: lm}, K: 8, Workers: 4}
	want, err := wide.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	const concurrent = 8
	var wg sync.WaitGroup
	for g := 0; g < concurrent; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				res, err := tight.Run(ctx, req)
				if err != nil {
					t.Error(err)
					return
				}
				for j := range want.Items {
					if res.Items[j] != want.Items[j] {
						t.Errorf("clamped result drifted at %d", j)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	// The budget must be fully returned: a full-width acquire succeeds.
	got, release, err := tight.admit(ctx, 1)
	if err != nil || got != 1 {
		t.Fatalf("post-traffic admit: %d, %v", got, err)
	}
	release()
}

// modelWithCoeffs builds a linear model for fingerprint variants.
func modelWithCoeffs(t *testing.T, coeffs []float64, intercept float64) (*linear.Model, error) {
	t.Helper()
	return linear.New([]string{"a", "b", "c"}, coeffs, intercept)
}

// customMembership is a Membership the bayes package cannot serialize,
// making any rule set that uses it uncacheable.
type customMembership struct{}

func (customMembership) Grade(float64) float64 { return 1 }

func customMembershipRules() *bayes.RuleSet {
	return bayes.NewRuleSet().Require("b4.mean", customMembership{})
}

// TestAppendItemsMemo pins the memo's life cycle on one entry: a miss
// keeps nothing, the first hit keeps what enc made of the entry's
// items, later hits append that without calling enc, a replacing put
// drops it, a failing enc keeps nothing, and a run pruned by a foreign
// floor leaves no entry for a memo to attach to.
func TestAppendItemsMemo(t *testing.T) {
	a := buildArchives(t)
	e := engineWithArchivesOpts(t, Options{Shards: 4}, a)
	ctx := context.Background()
	calls := 0
	enc := func(dst []byte, items []topk.Item) ([]byte, error) {
		calls++
		start := len(dst)
		for _, it := range items {
			if math.IsNaN(it.Score) {
				return dst[:start], fmt.Errorf("item %d: NaN", it.ID)
			}
			dst = fmt.Appendf(dst, "%d:%x;", it.ID, math.Float64bits(it.Score))
		}
		return dst, nil
	}
	serve := func(label string, req Request, wantHit bool) ([]byte, error) {
		t.Helper()
		res, err := e.Run(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Cache.Hit != wantHit {
			t.Fatalf("%s: hit %v, want %v", label, res.Stats.Cache.Hit, wantHit)
		}
		out, err := res.AppendItems([]byte("<"), enc)
		if err == nil {
			fresh, _ := enc([]byte("<"), res.Items)
			calls--
			if !bytes.Equal(out, fresh) {
				t.Fatalf("%s: AppendItems %q, fresh encode %q", label, out, fresh)
			}
		}
		return out, err
	}
	bytesNow := func() int { return e.CacheStats().Bytes }

	req := Request{Dataset: "gauss", Query: LinearQuery{Model: testLinearModel(t)}, K: 5}
	serve("miss", req, false)
	keyOnly := bytesNow()
	if calls != 1 || keyOnly == 0 {
		t.Fatalf("miss: %d encodes, %d cached bytes", calls, keyOnly)
	}
	first, _ := serve("first hit", req, true)
	if calls != 2 || bytesNow() != keyOnly+len(first)-1 {
		t.Fatalf("first hit: %d encodes, %d cached bytes, want %d", calls, bytesNow(), keyOnly+len(first)-1)
	}
	if again, _ := serve("second hit", req, true); calls != 2 || !bytes.Equal(again, first) {
		t.Fatalf("second hit: %d encodes, %q vs %q", calls, again, first)
	}

	// A put over a live key replaces the entry and its memo.
	if err := validateRequest(&req); err != nil {
		t.Fatal(err)
	}
	key := cacheKey(req, ownParts(req))
	defer releaseKey(key)
	gen := e.generationOf(req, ownParts(req))
	hit, _ := e.Run(ctx, req)
	other := append([]topk.Item(nil), hit.Items[1:]...)
	e.cachePut(*key, gen, other, hit.Stats)
	if bytesNow() != keyOnly {
		t.Fatalf("replacing put kept %d memo bytes", bytesNow()-keyOnly)
	}
	if got, _ := serve("hit after replace", req, true); bytes.Equal(got, first) {
		t.Fatal("replaced entry served the old memo")
	}

	// An encoding that fails keeps nothing: the next hit fails again.
	nan := append([]topk.Item(nil), other...)
	nan[0].Score = math.NaN()
	e.cachePut(*key, gen, nan, hit.Stats)
	for i := 0; i < 2; i++ {
		before := calls
		if _, err := serve("NaN hit", req, true); err == nil || calls != before+1 {
			t.Fatalf("NaN hit %d: err %v after %d encodes", i, err, calls-before)
		}
	}
	if bytesNow() != keyOnly {
		t.Fatalf("failed encode kept %d memo bytes", bytesNow()-keyOnly)
	}

	// A run under a foreign floor (a MinScore a cluster node folds in)
	// is stored under that floor, so the standalone request after it
	// misses, and its first hit memoises the full answer.
	wide := Request{Dataset: "gauss", Query: LinearQuery{Model: testLinearModel(t)}, K: 7}
	full, err := engineWithArchivesOpts(t, Options{Shards: 4, CacheEntries: -1}, a).Run(ctx, wide)
	if err != nil {
		t.Fatal(err)
	}
	floored := wide
	floored.MinScore = &full.Items[2].Score
	cut, err := e.Run(ctx, floored)
	if err != nil {
		t.Fatal(err)
	}
	if len(cut.Items) >= len(full.Items) {
		t.Fatalf("foreign floor pruned nothing: %d items", len(cut.Items))
	}
	if _, err := cut.AppendItems(nil, enc); err != nil {
		t.Fatal(err)
	}
	serve("after foreign floor", wide, false)
	want, _ := enc(nil, full.Items)
	calls--
	for i := 0; i < 2; i++ {
		if got, _ := serve("hit after foreign floor", wide, true); !bytes.Equal(got[1:], want) {
			t.Fatalf("hit %d after a foreign-floored run: %q, want %q", i, got[1:], want)
		}
	}
}
