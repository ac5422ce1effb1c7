package core

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"modelir/internal/archive"
	"modelir/internal/linear"
	"modelir/internal/progressive"
	"modelir/internal/sproc"
	"modelir/internal/synth"
	"modelir/internal/topk"
)

// naiveRank is the oracle's one ordering: a full list of scored
// candidates sorted by score descending, ties by ID ascending.
func naiveRank(items []topk.Item) []topk.Item {
	sort.Slice(items, func(a, b int) bool {
		if items[a].Score != items[b].Score {
			return items[a].Score > items[b].Score
		}
		return items[a].ID < items[b].ID
	})
	return items
}

// oracleCase is one family's request and the oracle's full ranking of
// every candidate that can be returned.
type oracleCase struct {
	name   string
	engine *Engine
	req    Request
	all    []topk.Item
}

// TestUnitQueueMatchesOracle checks the executor (units best-first on
// the caller's goroutine) against a naive float64 scan of every
// candidate, for the three families with a brute-force oracle: linear
// tuples, scenes and geology. The grid is shards 1/4/7 x Workers 1/2/8
// x 0 and 3 live deltas (tuples and wells; scenes do not append) x K 1,
// 10 and rows+5 x MinScore absent and exactly equal to a candidate's
// score. Items must be bit-identical to the oracle's top-K, payloads
// included, and the work counters (Evaluations, Examined, Pruned) must
// not move with Workers.
func TestUnitQueueMatchesOracle(t *testing.T) {
	ctx := context.Background()

	// Linear: 30,000 3-wide rows plus three 700-row deltas.
	pts, err := synth.GaussianTuples(41, 32_100, 3)
	if err != nil {
		t.Fatal(err)
	}
	base, deltas := pts[:30_000], [][][]float64{pts[30_000:30_700], pts[30_700:31_400], pts[31_400:]}
	lm, err := linear.New([]string{"a", "b", "c"}, []float64{0.7, -1.3, 0.4}, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	linearOracle := func(rows [][]float64) []topk.Item {
		all := make([]topk.Item, len(rows))
		for i, p := range rows {
			// The engine's definition: the dot product in coefficient
			// order, then the intercept.
			s := 0.0
			for d, c := range lm.Coeffs {
				s += c * p[d]
			}
			all[i] = topk.Item{ID: int64(i), Score: s + lm.Intercept}
		}
		return naiveRank(all)
	}

	// Geology: 150 wells plus three deltas of 20.
	wells, _, err := synth.WellArchive(synth.WellConfig{Seed: 43, Wells: 210})
	if err != nil {
		t.Fatal(err)
	}
	wBase, wDeltas := wells[:150], [][]synth.WellLog{wells[150:170], wells[170:190], wells[190:]}
	gq := testGeoQuery()
	gq.Method = GeoPruned
	geoOracle := func(ws []synth.WellLog) []topk.Item {
		var all []topk.Item
		for _, w := range ws {
			matches, _, err := sproc.BruteForceCtx(ctx, len(w.Strata), geologySprocQuery(w, gq), 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(matches) > 0 && matches[0].Score > 0 {
				all = append(all, topk.Item{ID: int64(w.Well), Score: matches[0].Score, Payload: matches[0].Items})
			}
		}
		return naiveRank(all)
	}

	// Scene: a 64x64 four-band scene, every pixel scored by the full
	// model over its level-0 means.
	sc, err := synth.LandsatScene(synth.SceneConfig{Seed: 47, W: 64, H: 64})
	if err != nil {
		t.Fatal(err)
	}
	arch, err := archive.BuildScene("s", sc.Bands, archive.Options{TileSize: 16, PyramidLevels: 4})
	if err != nil {
		t.Fatal(err)
	}
	pm, err := linear.Decompose(linear.HPSRisk(), []float64{0, 0, 0, 0}, []float64{255, 255, 255, 1500}, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	mp := arch.Pyramid()
	bind, err := progressive.Bind(pm.Full(), mp)
	if err != nil {
		t.Fatal(err)
	}
	var sceneAll []topk.Item
	x := make([]float64, len(bind.Bands))
	for py := 0; py < arch.H; py++ {
		for px := 0; px < arch.W; px++ {
			for i, b := range bind.Bands {
				x[i] = mp.Band(b).Level(0).Mean.At(px, py)
			}
			sceneAll = append(sceneAll, topk.Item{ID: int64(py*arch.W + px), Score: pm.Full().EvalUnchecked(x)})
		}
	}
	sceneAll = naiveRank(sceneAll)

	for _, shards := range []int{1, 4, 7} {
		opt := Options{Shards: shards, CacheEntries: -1}
		for _, nDeltas := range []int{0, 3} {
			e := NewEngineWith(opt)
			if err := e.AddTuples("t", base); err != nil {
				t.Fatal(err)
			}
			if err := e.AddWells("w", wBase); err != nil {
				t.Fatal(err)
			}
			rows, ws := base, wBase
			for _, d := range deltas[:nDeltas] {
				if err := e.AppendTuples("t", d); err != nil {
					t.Fatal(err)
				}
				rows = pts[:len(rows)+len(d)]
			}
			for _, d := range wDeltas[:nDeltas] {
				if err := e.AppendWells("w", d); err != nil {
					t.Fatal(err)
				}
				ws = wells[:len(ws)+len(d)]
			}
			cases := []oracleCase{
				{"linear", e, Request{Dataset: "t", Query: LinearQuery{Model: lm}}, linearOracle(rows)},
				{"geology", e, Request{Dataset: "w", Query: gq}, geoOracle(ws)},
			}
			if nDeltas == 0 {
				se := NewEngineWith(opt)
				if err := se.AddScene("s", arch); err != nil {
					t.Fatal(err)
				}
				cases = append(cases, oracleCase{"scene", se, Request{Dataset: "s", Query: SceneQuery{Model: pm}}, sceneAll})
			}
			for _, c := range cases {
				n := len(c.all)
				atRow := c.all[min(9, n-1)].Score // the 10th best candidate's score
				for _, k := range []int{1, 10, n + 5} {
					for _, minScore := range []*float64{nil, &atRow} {
						want := append([]topk.Item(nil), c.all[:min(k, n)]...)
						if minScore != nil {
							want = filterMinScore(want, *minScore)
						}
						var first QueryStats
						for _, workers := range []int{1, 2, 8} {
							req := c.req
							req.K, req.MinScore, req.Workers = k, minScore, workers
							label := fmt.Sprintf("%s shards %d deltas %d K %d min %v workers %d", c.name, shards, nDeltas, k, minScore != nil, workers)
							res, err := c.engine.Run(ctx, req)
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							if !reflect.DeepEqual(res.Items, want) {
								t.Fatalf("%s: items differ from the oracle\n got %.6v\nwant %.6v", label, head(res.Items), head(want))
							}
							if want := shards + nDeltas; c.name == "linear" && res.Stats.Shards != want {
								t.Fatalf("%s: Stats.Shards %d, want %d segments", label, res.Stats.Shards, want)
							}
							st := res.Stats
							if workers == 1 {
								first = st
							} else if st.Evaluations != first.Evaluations || st.Examined != first.Examined || st.Pruned != first.Pruned {
								t.Fatalf("%s: work counters %d/%d/%d, at Workers 1 %d/%d/%d", label,
									st.Evaluations, st.Examined, st.Pruned, first.Evaluations, first.Examined, first.Pruned)
							}
						}
					}
				}
			}
		}
	}
}

// head trims a ranking for a failure message.
func head(items []topk.Item) []topk.Item { return items[:min(len(items), 12)] }
