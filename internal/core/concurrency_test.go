package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"modelir/internal/archive"
	"modelir/internal/fsm"
	"modelir/internal/linear"
	"modelir/internal/synth"
	"modelir/internal/topk"
)

// The engine promises safe concurrent readers across every family.
// Run with -race.
func TestEngineConcurrentQueries(t *testing.T) {
	e := NewEngine()
	pts, err := synth.GaussianTuples(21, 8000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddTuples("t", pts); err != nil {
		t.Fatal(err)
	}
	weather, err := synth.WeatherArchive(synth.WeatherConfig{Seed: 22, Regions: 40, Days: 365})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddSeries("w", weather); err != nil {
		t.Fatal(err)
	}
	wells, _, err := synth.WellArchive(synth.WellConfig{Seed: 23, Wells: 30})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddWells("g", wells); err != nil {
		t.Fatal(err)
	}

	m, err := linear.New([]string{"a", "b", "c"}, []float64{1, 0.5, -1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	machine := fsm.FireAnts()
	gq := GeologyQuery{
		Sequence: []synth.Lithology{synth.Shale, synth.Sandstone},
		MaxGapFt: 10, MinGamma: 45, Method: GeoPruned,
	}

	const workers = 16
	linearResults := make([][]topk.Item, workers)
	fsmResults := make([][]topk.Item, workers)
	geoResults := make([][]WellMatch, workers)
	errs := make([]error, workers)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			res, err := e.Run(ctx, Request{Dataset: "t", Query: LinearQuery{Model: m}, K: 5})
			if err != nil {
				errs[w] = err
				return
			}
			linearResults[w] = res.Items
			res, err = e.Run(ctx, Request{Dataset: "w", Query: FSMQuery{Machine: machine, Prefilter: FireAntsPrefilter}, K: 5})
			if err != nil {
				errs[w] = err
				return
			}
			fsmResults[w] = res.Items
			res, err = e.Run(ctx, Request{Dataset: "g", Query: gq, K: 5})
			if err != nil {
				errs[w] = err
				return
			}
			if geoResults[w], err = WellMatches(res.Items); err != nil {
				errs[w] = err
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	for w := 1; w < workers; w++ {
		if len(linearResults[w]) != len(linearResults[0]) {
			t.Fatalf("worker %d linear result size differs", w)
		}
		for i := range linearResults[0] {
			if linearResults[w][i] != linearResults[0][i] {
				t.Fatalf("worker %d linear result differs at %d", w, i)
			}
		}
		for i := range fsmResults[0] {
			if fsmResults[w][i] != fsmResults[0][i] {
				t.Fatalf("worker %d fsm result differs at %d", w, i)
			}
		}
		for i := range geoResults[0] {
			if geoResults[w][i].Well != geoResults[0][i].Well ||
				geoResults[w][i].Score != geoResults[0][i].Score {
				t.Fatalf("worker %d geology result differs at %d", w, i)
			}
		}
	}
}

// fixtures shared by the equivalence and stress tests: one archive per
// query family, sized so 7-way sharding still leaves non-trivial shards.
type testArchives struct {
	pts   [][]float64
	scene *archive.Scene
	pm    *linear.ProgressiveModel
	arch  []synth.RegionSeries
	wells []synth.WellLog
}

func buildArchives(t *testing.T) testArchives {
	t.Helper()
	var a testArchives
	var err error
	if a.pts, err = synth.GaussianTuples(51, 8000, 3); err != nil {
		t.Fatal(err)
	}
	sc, err := synth.LandsatScene(synth.SceneConfig{Seed: 52, W: 96, H: 96})
	if err != nil {
		t.Fatal(err)
	}
	if a.scene, err = archive.BuildScene("s", sc.Bands, archive.Options{TileSize: 16, PyramidLevels: 4}); err != nil {
		t.Fatal(err)
	}
	if a.pm, err = linear.Decompose(linear.HPSRisk(),
		[]float64{0, 0, 0, 0}, []float64{255, 255, 255, 1500}, 2, 4); err != nil {
		t.Fatal(err)
	}
	if a.arch, err = synth.WeatherArchive(synth.WeatherConfig{Seed: 53, Regions: 60, Days: 365}); err != nil {
		t.Fatal(err)
	}
	if a.wells, _, err = synth.WellArchive(synth.WellConfig{Seed: 54, Wells: 45}); err != nil {
		t.Fatal(err)
	}
	return a
}

func engineWithArchives(t *testing.T, shards int, a testArchives) *Engine {
	t.Helper()
	e := NewEngineWith(Options{Shards: shards})
	if e.NumShards() != shards {
		t.Fatalf("NumShards = %d, want %d", e.NumShards(), shards)
	}
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

func itemsEqual(t *testing.T, label string, got, want []topk.Item) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d vs %d items", label, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || got[i].Score != want[i].Score {
			t.Fatalf("%s pos %d: got %d/%v want %d/%v",
				label, i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
		}
	}
}

// TestShardEquivalenceAllFamilies pins the tentpole invariant: a
// sharded engine returns the same top-K IDs and scores as a sequential
// (1-shard) engine on all four query families, for shard counts that
// divide the data evenly and ones that do not.
func TestShardEquivalenceAllFamilies(t *testing.T) {
	a := buildArchives(t)
	lm, err := linear.New([]string{"a", "b", "c"}, []float64{1, -0.5, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	geoQ := GeologyQuery{
		Sequence: []synth.Lithology{synth.Shale, synth.Sandstone, synth.Siltstone},
		MaxGapFt: 10,
		MinGamma: 45,
		Method:   GeoPruned,
	}
	machine := fsm.FireAnts()
	linReq := Request{Dataset: "gauss", Query: LinearQuery{Model: lm}, K: 10}
	sceneReq := Request{Dataset: "hps", Query: SceneQuery{Model: a.pm}, K: 10}
	fsmReq := Request{Dataset: "weather", Query: FSMQuery{Machine: machine, Prefilter: FireAntsPrefilter}, K: 10}
	geoReq := Request{Dataset: "basin", Query: geoQ, K: 10}
	geology := func(e *Engine) []WellMatch {
		matches, err := WellMatches(mustRun(t, e, geoReq).Items)
		if err != nil {
			t.Fatal(err)
		}
		return matches
	}

	ref := engineWithArchives(t, 1, a)
	refLin := mustRun(t, ref, linReq)
	refScene := mustRun(t, ref, sceneReq).Items
	refFSM := mustRun(t, ref, fsmReq)
	refGeo := geology(ref)

	for _, shards := range []int{1, 4, 7} {
		e := engineWithArchives(t, shards, a)

		lin := mustRun(t, e, linReq)
		itemsEqual(t, fmt.Sprintf("linear shards=%d", shards), lin.Items, refLin.Items)
		if lin.Stats.Examined+lin.Stats.Pruned != refLin.Stats.Examined+refLin.Stats.Pruned {
			t.Fatalf("shards=%d scan cost %d vs %d", shards,
				lin.Stats.Examined+lin.Stats.Pruned, refLin.Stats.Examined+refLin.Stats.Pruned)
		}

		scene := mustRun(t, e, sceneReq)
		itemsEqual(t, fmt.Sprintf("scene shards=%d", shards), scene.Items, refScene)
		if scene.Stats.Evaluations == 0 {
			t.Fatalf("shards=%d no scene work recorded", shards)
		}

		fsmRes := mustRun(t, e, fsmReq)
		itemsEqual(t, fmt.Sprintf("fsm shards=%d", shards), fsmRes.Items, refFSM.Items)
		// Prefilter decisions are per-region, so pruning stats are
		// shard-invariant too.
		if fsmSt, refSt := fsmRes.Stats, refFSM.Stats; fsmSt.Examined != refSt.Examined ||
			fsmSt.Pruned != refSt.Pruned || fsmSt.Evaluations != refSt.Evaluations {
			t.Fatalf("shards=%d fsm stats %+v vs %+v", shards, fsmSt, refSt)
		}

		geo := geology(e)
		if len(geo) != len(refGeo) {
			t.Fatalf("geology shards=%d: %d vs %d wells", shards, len(geo), len(refGeo))
		}
		for i := range refGeo {
			if geo[i].Well != refGeo[i].Well || math.Abs(geo[i].Score-refGeo[i].Score) > 1e-12 {
				t.Fatalf("geology shards=%d pos %d: %+v vs %+v", shards, i, geo[i], refGeo[i])
			}
		}
	}
}

// TestConcurrentRegistrationAndQueries hammers one shared engine from
// many goroutines: registrations of fresh datasets race with queries on
// already-registered ones, including duplicate registrations that must
// fail cleanly. Run under -race this is the engine's thread-safety
// proof for mixed read/write traffic.
func TestConcurrentRegistrationAndQueries(t *testing.T) {
	a := buildArchives(t)
	e := engineWithArchives(t, 4, a)
	lm, err := linear.New([]string{"a", "b", "c"}, []float64{1, -0.5, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	machine := fsm.FireAnts()
	geoQ := GeologyQuery{
		Sequence: []synth.Lithology{synth.Shale, synth.Sandstone, synth.Siltstone},
		MaxGapFt: 10,
		MinGamma: 45,
		Method:   GeoDP,
	}
	linReq := Request{Dataset: "gauss", Query: LinearQuery{Model: lm}, K: 5}
	wantLinear := mustRun(t, e, linReq).Items

	const writers, readers, rounds = 4, 8, 6
	var wg sync.WaitGroup
	errc := make(chan error, writers+readers)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				name := fmt.Sprintf("tuples-%d-%d", w, r)
				if err := e.AddTuples(name, a.pts); err != nil {
					errc <- err
					return
				}
				// Duplicate registration must fail cleanly, not race.
				if err := e.AddTuples(name, a.pts); err == nil {
					errc <- fmt.Errorf("duplicate %q accepted", name)
					return
				}
				if err := e.AddSeries(fmt.Sprintf("series-%d-%d", w, r), a.arch); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			ctx := context.Background()
			for r := 0; r < rounds; r++ {
				switch rd % 4 {
				case 0:
					res, err := e.Run(ctx, linReq)
					if err != nil {
						errc <- err
						return
					}
					for i := range wantLinear {
						if res.Items[i].ID != wantLinear[i].ID {
							errc <- fmt.Errorf("linear result drifted under load")
							return
						}
					}
				case 1:
					if _, err := e.Run(ctx, Request{Dataset: "hps", Query: SceneQuery{Model: a.pm}, K: 5}); err != nil {
						errc <- err
						return
					}
				case 2:
					if _, err := e.Run(ctx, Request{Dataset: "weather", Query: FSMQuery{Machine: machine, Prefilter: FireAntsPrefilter}, K: 5}); err != nil {
						errc <- err
						return
					}
				case 3:
					if _, err := e.Run(ctx, Request{Dataset: "basin", Query: geoQ, K: 5}); err != nil {
						errc <- err
						return
					}
				}
			}
		}(rd)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

func TestPartition(t *testing.T) {
	cases := []struct {
		n, want int
		expect  [][2]int
	}{
		{0, 4, nil},
		{3, 1, [][2]int{{0, 3}}},
		{3, 5, [][2]int{{0, 1}, {1, 2}, {2, 3}}},
		{10, 4, [][2]int{{0, 3}, {3, 6}, {6, 8}, {8, 10}}},
		{8, 4, [][2]int{{0, 2}, {2, 4}, {4, 6}, {6, 8}}},
		{5, 0, [][2]int{{0, 5}}},
	}
	for _, c := range cases {
		got := partition(c.n, c.want)
		if len(got) != len(c.expect) {
			t.Fatalf("partition(%d,%d) = %v, want %v", c.n, c.want, got, c.expect)
		}
		for i := range got {
			if got[i] != c.expect[i] {
				t.Fatalf("partition(%d,%d) = %v, want %v", c.n, c.want, got, c.expect)
			}
		}
	}
}

// TestShardEquivalenceWithTies is the adversarial version of the
// equivalence invariant: duplicated rows guarantee exact score ties,
// and which block holds each tied copy depends on shard boundaries. The (score, ID) tie-break must still make every shard
// count return the same winners.
func TestShardEquivalenceWithTies(t *testing.T) {
	base, err := synth.GaussianTuples(61, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Tile a tiny prototype set: every score occurs dozens of times and
	// late norm-ordered blocks degenerate to copies of one prototype,
	// whose zone bound equals the tied score exactly — the case where a
	// non-strict block skip would drop tied smaller-ID winners.
	pts := make([][]float64, 0, 300)
	for len(pts) < 300 {
		pts = append(pts, base[len(pts)%len(base)])
	}
	lm, err := linear.New([]string{"a", "b", "c"}, []float64{1, -0.5, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var want []topk.Item
	for _, shards := range []int{1, 2, 5, 9} {
		e := NewEngineWith(Options{Shards: shards})
		if err := e.AddTuples("dup", pts); err != nil {
			t.Fatal(err)
		}
		items := mustRun(t, e, Request{Dataset: "dup", Query: LinearQuery{Model: lm}, K: 18}).Items
		if want == nil {
			want = items
			// With 5 prototypes and k=18, ties are certain; the order
			// must be (score desc, ID asc).
			for i := 1; i < len(want); i++ {
				if want[i].Score > want[i-1].Score ||
					(want[i].Score == want[i-1].Score && want[i].ID < want[i-1].ID) {
					t.Fatalf("reference order violated at %d: %+v after %+v", i, want[i], want[i-1])
				}
			}
			continue
		}
		itemsEqual(t, fmt.Sprintf("ties shards=%d", shards), items, want)
	}
}
