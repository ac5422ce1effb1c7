package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"modelir/internal/archive"
	"modelir/internal/fsm"
	"modelir/internal/sproc"
	"modelir/internal/synth"
)

// The columnar-feature-plane pins: the flat event/strata/feature
// storage built at ingest must reproduce the row-shaped evaluation it
// replaced value for value, and the charge-before-scoring budget
// discipline must truncate scans at exactly the hand-computable
// candidate boundaries.

// TestSeriesShardEventPlaneMatchesClassify: the ingest-time packed
// event plane must unpack to per-query classification for every
// region, holding five days per byte.
func TestSeriesShardEventPlaneMatchesClassify(t *testing.T) {
	arch, err := synth.WeatherArchive(synth.WeatherConfig{Seed: 71, Regions: 37, Days: 120, MeanTempC: 16})
	if err != nil {
		t.Fatal(err)
	}
	ss, err := newSet(arch, 4, newSeriesShard)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, sh := range ss.shards {
		for i, reg := range sh.regions {
			want := fsm.ClassifySeries(reg.Days)
			p, days := sh.eventsOf(i)
			if len(p) != fsm.PackedLen(len(want)) {
				t.Fatalf("region %d: %d packed bytes for %d days", reg.Region, len(p), len(want))
			}
			got := fsm.AppendUnpacked(nil, p, days)
			if len(got) != len(want) {
				t.Fatalf("region %d: %d events, want %d", reg.Region, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("region %d day %d: event %d, want %d", reg.Region, j, got[j], want[j])
				}
			}
			seen++
		}
	}
	if seen != 37 {
		t.Fatalf("event plane covers %d regions, want 37", seen)
	}
}

// TestWellShardColumnsMatchStrata: the SoA strata planes must hold
// every stratum field verbatim.
func TestWellShardColumnsMatchStrata(t *testing.T) {
	wells, _, err := synth.WellArchive(synth.WellConfig{Seed: 81, Wells: 23})
	if err != nil {
		t.Fatal(err)
	}
	ws, err := newSet(wells, 3, newWellShard)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, sh := range ws.shards {
		for i, w := range sh.wells {
			if sh.strataLen(i) != len(w.Strata) {
				t.Fatalf("well %d: %d strata, want %d", w.Well, sh.strataLen(i), len(w.Strata))
			}
			for j, st := range w.Strata {
				o := sh.off[i] + j
				if sh.lith[o] != st.Lith || sh.topFt[o] != st.TopFt ||
					sh.thickFt[o] != st.ThickFt || sh.gamma[o] != st.GammaAPI {
					t.Fatalf("well %d stratum %d: columnar (%v,%v,%v,%v) vs row (%v,%v,%v,%v)",
						w.Well, j, sh.lith[o], sh.topFt[o], sh.thickFt[o], sh.gamma[o],
						st.Lith, st.TopFt, st.ThickFt, st.GammaAPI)
				}
			}
			seen++
		}
	}
	if seen != 23 {
		t.Fatalf("columns cover %d wells, want 23", seen)
	}
}

// TestGeoScannerMatchesRowQuery: the columnar grade closures must be
// bit-identical to geologySprocQuery's row-based grades on every
// (slot, item) and (slot, prev, cur) combination.
func TestGeoScannerMatchesRowQuery(t *testing.T) {
	wells, _, err := synth.WellArchive(synth.WellConfig{Seed: 82, Wells: 12})
	if err != nil {
		t.Fatal(err)
	}
	ws, err := newSet(wells, 2, newWellShard)
	if err != nil {
		t.Fatal(err)
	}
	q := GeologyQuery{
		Sequence:     []synth.Lithology{synth.Shale, synth.Sandstone, synth.Siltstone},
		MaxGapFt:     10,
		MinGamma:     45,
		GammaRampAPI: 5,
	}
	for _, sh := range ws.shards {
		g := newGeoShardScanner(sh, q)
		for i, w := range sh.wells {
			n := g.setWell(i)
			ref := geologySprocQuery(w, q)
			for m := 0; m < len(q.Sequence); m++ {
				for item := 0; item < n; item++ {
					if got, want := g.sq.Unary(m, item), ref.Unary(m, item); got != want {
						t.Fatalf("well %d unary(%d,%d): %v vs %v", w.Well, m, item, got, want)
					}
				}
			}
			for m := 1; m < len(q.Sequence); m++ {
				for prev := 0; prev < n; prev++ {
					for cur := 0; cur < n; cur++ {
						if got, want := g.sq.Pair(m, prev, cur), ref.Pair(m, prev, cur); got != want {
							t.Fatalf("well %d pair(%d,%d,%d): %v vs %v", w.Well, m, prev, cur, got, want)
						}
					}
				}
			}
		}
	}
}

// TestGeologyMethodsAgreeOnColumnarStore: all three evaluators must
// return identical results through the engine — the DP path now runs
// the scratch-backed top-1 DP, so this pins it against brute force.
func TestGeologyMethodsAgreeOnColumnarStore(t *testing.T) {
	wells, _, err := synth.WellArchive(synth.WellConfig{Seed: 83, Wells: 40})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngineWith(Options{Shards: 3, CacheEntries: -1})
	if err := e.AddWells("basin", wells); err != nil {
		t.Fatal(err)
	}
	base := GeologyQuery{
		Sequence: []synth.Lithology{synth.Shale, synth.Sandstone},
		MaxGapFt: 12, MinGamma: 45, GammaRampAPI: 3,
	}
	var ref []WellMatch
	for mi, method := range []GeologyMethod{GeoBruteForce, GeoDP, GeoPruned} {
		q := base
		q.Method = method
		res, err := e.Run(context.Background(), Request{Dataset: "basin", Query: q, K: 8})
		if err != nil {
			t.Fatal(err)
		}
		got, err := WellMatches(res.Items)
		if err != nil {
			t.Fatal(err)
		}
		if mi == 0 {
			ref = got
			continue
		}
		if len(got) != len(ref) {
			t.Fatalf("method %d: %d matches, want %d", method, len(got), len(ref))
		}
		for i := range ref {
			if got[i].Well != ref[i].Well || got[i].Score != ref[i].Score {
				t.Fatalf("method %d pos %d: %+v vs %+v", method, i, got[i], ref[i])
			}
			for j := range ref[i].Strata {
				if got[i].Strata[j] != ref[i].Strata[j] {
					t.Fatalf("method %d pos %d strata: %v vs %v", method, i, got[i].Strata, ref[i].Strata)
				}
			}
		}
	}
}

// TestKnowledgeFeatureMatrixMatchesArchive: the ingest-time feature
// matrix must hold exactly the per-tile stats the archive reports.
func TestKnowledgeFeatureMatrixMatchesArchive(t *testing.T) {
	sc, err := synth.LandsatScene(synth.SceneConfig{Seed: 9, W: 32, H: 32})
	if err != nil {
		t.Fatal(err)
	}
	arch, err := archive.BuildScene("s", sc.Bands, archive.Options{TileSize: 8, PyramidLevels: 3})
	if err != nil {
		t.Fatal(err)
	}
	ss := newSceneSet(arch)
	if len(ss.featCols) != arch.NumBands()*4 {
		t.Fatalf("%d feature columns for %d bands", len(ss.featCols), arch.NumBands())
	}
	for ti := range arch.Tiles {
		row := ss.featRow(ti)
		for b := 0; b < arch.NumBands(); b++ {
			feat, err := arch.Feature(b, ti)
			if err != nil {
				t.Fatal(err)
			}
			if row[b*4] != feat.Stats.Mean || row[b*4+1] != feat.Stats.Std ||
				row[b*4+2] != feat.Stats.Min || row[b*4+3] != feat.Stats.Max {
				t.Fatalf("tile %d band %d: matrix row %v vs stats %+v", ti, b, row[b*4:b*4+4], feat.Stats)
			}
		}
	}
}

// TestScanBudgetBoundariesExact is the charge-before-scoring pin
// (hand-built archives, Workers:1): for every budget from zero through
// the archive's total work, the scan must stop exactly at the first
// candidate whose cumulative charge exceeds the budget — Examined,
// Evaluations and Truncated all pinned per boundary.
func TestScanBudgetBoundariesExact(t *testing.T) {
	// FSM family: regions cost 5, 6, 4, 7 days (no prefilter).
	e := NewEngineWith(Options{Shards: 1})
	if err := e.AddSeries("w", fsmStatsArchive()); err != nil {
		t.Fatal(err)
	}
	costs := []int{5, 6, 4, 7}
	total := 0
	for _, c := range costs {
		total += c
	}
	for budget := 1; budget <= total+3; budget++ {
		// A candidate is scanned while the meter is not yet exhausted
		// (used <= budget), and its whole cost is charged before its
		// machine runs; the next gate stops the scan.
		wantExamined, used := 0, 0
		for _, c := range costs {
			if used > budget {
				break
			}
			used += c
			wantExamined++
		}
		res, err := e.Run(context.Background(), Request{
			Dataset: "w",
			Query:   FSMQuery{Machine: fsm.FireAnts()},
			K:       4, Workers: 1, Budget: budget,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Examined != wantExamined || res.Stats.Evaluations != used {
			t.Fatalf("budget %d: examined %d evals %d, want %d/%d",
				budget, res.Stats.Examined, res.Stats.Evaluations, wantExamined, used)
		}
		if wantTrunc := used > budget; res.Stats.Truncated != wantTrunc {
			t.Fatalf("budget %d: truncated %v, want %v", budget, res.Stats.Truncated, wantTrunc)
		}
	}

	// Knowledge family: every tile costs Rules.Len() — uniform
	// boundaries.
	sc, err := synth.LandsatScene(synth.SceneConfig{Seed: 9, W: 16, H: 16})
	if err != nil {
		t.Fatal(err)
	}
	arch, err := archive.BuildScene("s", sc.Bands, archive.Options{TileSize: 8, PyramidLevels: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddScene("s", arch); err != nil {
		t.Fatal(err)
	}
	rules := HPSTileRules()
	cost, tiles := rules.Len(), 4
	for budget := 1; budget <= cost*tiles+2; budget++ {
		wantExamined, used := 0, 0
		for ti := 0; ti < tiles; ti++ {
			if used > budget {
				break
			}
			used += cost
			wantExamined++
		}
		res, err := e.Run(context.Background(), Request{
			Dataset: "s", Query: KnowledgeQuery{Rules: rules},
			K: 4, Workers: 1, Budget: budget,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Examined != wantExamined || res.Stats.Evaluations != used {
			t.Fatalf("knowledge budget %d: examined %d evals %d, want %d/%d",
				budget, res.Stats.Examined, res.Stats.Evaluations, wantExamined, used)
		}
		if wantTrunc := used > budget; res.Stats.Truncated != wantTrunc {
			t.Fatalf("knowledge budget %d: truncated %v, want %v", budget, res.Stats.Truncated, wantTrunc)
		}
	}
}

// TestGeologyDPScratchStatsMatchDPCtx pins the floored top-1 DP's
// accounting on hand-built wells, one shard, one worker, wells visited
// in ID order. Evaluations are every unary grade (M·L per well) plus
// the pair evaluations actually made; a well with a slot no stratum
// grades at or above the floor is rejected before its pair DP and
// counts as Pruned, every other well as Examined. GeoDP and GeoPruned
// are one evaluator and must report the same numbers; the answers must
// equal the unfloored DPCtx's best match per well.
func TestGeologyDPScratchStatsMatchDPCtx(t *testing.T) {
	wells := append(geoStatsWells(), synth.WellLog{Well: 3, Strata: []synth.Stratum{
		{Lith: synth.Shale, TopFt: 0, ThickFt: 10, GammaAPI: 100},
		{Lith: synth.Sandstone, TopFt: 12, ThickFt: 8, GammaAPI: 32},
	}})
	e := NewEngineWith(Options{Shards: 1, CacheEntries: -1})
	if err := e.AddWells("g", wells); err != nil {
		t.Fatal(err)
	}
	seq := []synth.Lithology{synth.Shale, synth.Sandstone}
	crisp45 := GeologyQuery{Sequence: seq, MaxGapFt: 10, MinGamma: 45}
	crisp25 := GeologyQuery{Sequence: seq, MaxGapFt: 10, MinGamma: 25}
	// Grades ramp from 0 at 20 API to 1 at 40: sandstone at 30, 35 and
	// 32 API grades 0.5 (well 0), 0.75 (well 2) and 0.6 (well 3).
	ramp := GeologyQuery{Sequence: seq, MaxGapFt: 10, MinGamma: 30, GammaRampAPI: 10}
	minScore := 0.6
	cases := []struct {
		name              string
		q                 GeologyQuery
		k                 int
		min               *float64
		evals, ex, pruned int
		wells             []int
	}{
		// No sandstone grades above zero anywhere: four wells of
		// 6+4+8+4 unary grades, none reaches a pair.
		{"crisp45", crisp45, 3, nil, 22, 0, 4, nil},
		// Well 1 has no sandstone; well 0 pays 1 pair, well 2 pays
		// 2x2, well 3 pays 1.
		{"crisp25", crisp25, 3, nil, 22 + 1 + 4 + 1, 3, 1, []int{0, 2, 3}},
		// K=1: well 2's 0.75 fills the heap, so well 3's 0.6 sandstone
		// falls strictly below the floor and its pair DP never runs.
		{"ramp-k1", ramp, 1, nil, 22 + 1 + 4, 2, 2, []int{2}},
		// MinScore 0.6 rejects well 0 (0.5) before its pairs and keeps
		// well 3, whose score is exactly the floor.
		{"ramp-min", ramp, 3, &minScore, 22 + 4 + 1, 2, 2, []int{2, 3}},
	}
	for _, c := range cases {
		for _, method := range []GeologyMethod{GeoDP, GeoPruned} {
			q := c.q
			q.Method = method
			res, err := e.Run(context.Background(), Request{Dataset: "g", Query: q, K: c.k, MinScore: c.min, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			assertStats(t, fmt.Sprintf("%s method %d", c.name, method), res.Stats, KindKnowledge, c.evals, c.ex, c.pruned, false)
			got, err := WellMatches(res.Items)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(c.wells) {
				t.Fatalf("%s method %d: %+v, want wells %v", c.name, method, got, c.wells)
			}
			for i, m := range got {
				w := wells[c.wells[i]]
				want, _, err := sproc.DPCtx(context.Background(), len(w.Strata), geologySprocQuery(w, c.q), 1)
				if err != nil {
					t.Fatal(err)
				}
				if m.Well != w.Well || m.Score != want[0].Score || !reflect.DeepEqual(m.Strata, want[0].Items) {
					t.Fatalf("%s method %d pos %d: %+v, want well %d %+v", c.name, method, i, m, w.Well, want[0])
				}
			}
		}
	}
}
