// A node answers a 'Q' over several partitions with one drain
// (core.RunParts). These tests pin that the drain returns what running
// each listed partition alone and merging the runs returns, and that
// the node's one cache entry per read follows appends to every
// partition it read.

package cluster

import (
	"context"
	"math"
	"reflect"
	"testing"

	"modelir/internal/core"
	"modelir/internal/synth"
	"modelir/internal/topk"
)

// drainNode is a node holding every partition of the fixtures on its
// own engine (two shards, cache off), laid out by hand: the partitioned
// datasets have three partitions, the middle one empty, and every
// non-empty one carries a live delta. Tuple deltas take global IDs past
// the base rows, as the router assigns them.
func drainNode(t *testing.T, f fixtures) *Node {
	t.Helper()
	n := newNodeOn("self", Topology{Nodes: []string{"self"}, Replication: 1}, NodeOptions{},
		core.NewEngineWith(core.Options{Shards: 2, CacheEntries: -1}))
	extra, err := synth.GaussianTuples(61, 700, 3)
	if err != nil {
		t.Fatal(err)
	}
	moreArch, err := synth.WeatherArchive(synth.WeatherConfig{Seed: 62, Regions: 12, Days: 365})
	if err != nil {
		t.Fatal(err)
	}
	moreWells, _, err := synth.WellArchive(synth.WellConfig{Seed: 63, Wells: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := range moreArch {
		moreArch[i].Region += 1000
	}
	for i := range moreWells {
		moreWells[i].Well += 1000
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	reg := func(dataset string, part int, local string, offset int64) {
		t.Helper()
		must(n.register(dataset, part, partEntry{local: local, offset: offset}))
	}

	cut, rows := int64(3000), int64(len(f.pts))
	must(n.eng.AddTuples("gauss#0", f.pts[:cut]))
	must(n.eng.AddTuples("gauss#2", f.pts[cut:]))
	must(n.eng.AppendTuplesAt("gauss#0", rows, extra[:400]))
	must(n.eng.AppendTuplesAt("gauss#2", rows+400-cut, extra[400:]))
	reg("gauss", 0, "gauss#0", 0)
	reg("gauss", 1, "", rows)
	reg("gauss", 2, "gauss#2", cut)

	must(n.eng.AddSeries("weather#0", f.arch[:25]))
	must(n.eng.AddSeries("weather#2", f.arch[25:]))
	must(n.eng.AppendSeries("weather#0", moreArch[:5]))
	must(n.eng.AppendSeries("weather#2", moreArch[5:]))
	reg("weather", 0, "weather#0", 0)
	reg("weather", 1, "", 0)
	reg("weather", 2, "weather#2", 0)

	must(n.eng.AddWells("basin#0", f.wells[:20]))
	must(n.eng.AddWells("basin#2", f.wells[20:]))
	must(n.eng.AppendWells("basin#0", moreWells[:4]))
	must(n.eng.AppendWells("basin#2", moreWells[4:]))
	reg("basin", 0, "basin#0", 0)
	reg("basin", 1, "", 0)
	reg("basin", 2, "basin#2", 0)

	must(n.eng.AddScene("hps#0", f.scene))
	reg("hps", 0, "hps#0", 0)
	return n
}

// mergedRuns is what a node answered before it drained a 'Q' once: each
// listed non-empty partition run alone under the floor, its IDs lifted
// by the partition's offset, and the runs merged into one top-K. It
// also returns the runs' summed Examined.
func mergedRuns(t *testing.T, n *Node, req core.Request, parts []int, floor float64) ([]topk.Item, int) {
	t.Helper()
	k := req.K
	if k == 0 {
		k = core.DefaultK
	}
	h := topk.MustHeap(k)
	examined := 0
	for _, part := range parts {
		e := n.parts[req.Dataset][part]
		if e.local == "" {
			continue
		}
		r := withFloor(req, floor)
		r.Dataset = e.local
		res, err := n.eng.Run(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range res.Items {
			it.ID += e.offset
			h.Offer(it)
		}
		examined += res.Stats.Examined
	}
	return h.Results(), examined
}

// serve runs one 'Q' through the node's query path.
func serve(t *testing.T, n *Node, req core.Request, parts []int, floor float64) Partial {
	t.Helper()
	typ, reply := n.serveQuery(context.Background(), queryPayload(t, req, parts, floor))
	if typ != frameResult {
		code, msg, _ := decodeError(reply)
		t.Fatalf("%s over %v: node error %s: %s", req.Dataset, parts, code, msg)
	}
	p, err := decodePartial(reply)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestOneDrainMatchesMergedPartitionRuns: for all six families, every
// subset of the partitions (an empty one among them), and no floor or a
// foreign one, the node's one drain returns the items — IDs, scores and
// strata — that the per-partition runs merged return. A full Q's
// linear Examined is the one drain's count over the same parts, and no
// more than the per-partition runs examined.
func TestOneDrainMatchesMergedPartitionRuns(t *testing.T) {
	f := buildFixtures(t)
	n := drainNode(t, f)
	subsets := [][]int{{0}, {1}, {2}, {0, 1}, {0, 2}, {1, 2}, {0, 1, 2}}
	for name, req := range familyRequests(t, f) {
		lists := subsets
		if req.Dataset == "hps" {
			lists = [][]int{{0}}
		}
		unfloored, _ := mergedRuns(t, n, req, lists[len(lists)-1], math.Inf(-1))
		floors := []float64{math.Inf(-1)}
		if len(unfloored) > 2 {
			// A floor proved elsewhere that cuts the answer in half.
			floors = append(floors, unfloored[len(unfloored)/2].Score)
		}
		for _, floor := range floors {
			for _, parts := range lists {
				want, examined := mergedRuns(t, n, req, parts, floor)
				got := serve(t, n, req, parts, floor)
				if len(got.Items) != len(want) {
					t.Fatalf("%s over %v, floor %v: %d items, merged runs give %d", name, parts, floor, len(got.Items), len(want))
				}
				for i := range want {
					g, w := got.Items[i], want[i]
					if g.ID != w.ID || math.Float64bits(g.Score) != math.Float64bits(w.Score) || !reflect.DeepEqual(g.Payload, w.Payload) {
						t.Fatalf("%s over %v, floor %v, pos %d: got %d/%v/%v, merged runs give %d/%v/%v",
							name, parts, floor, i, g.ID, g.Score, g.Payload, w.ID, w.Score, w.Payload)
					}
				}
				if name != "linear" || len(parts) != 3 {
					continue
				}
				drain, err := core.RunParts(context.Background(), n.eng, withFloor(req, floor),
					[]core.Part{{Dataset: "gauss#0"}, {Dataset: "gauss#2", Offset: 3000}})
				if err != nil {
					t.Fatal(err)
				}
				if got.Stats.Examined != drain.Stats.Examined || got.Stats.Examined > examined {
					t.Fatalf("linear full Q, floor %v: examined %d rows, one drain %d, per-partition runs %d",
						floor, got.Stats.Examined, drain.Stats.Examined, examined)
				}
			}
		}
	}
}

// TestAppendInvalidatesDrainEntry: a read over a node's two partitions
// is one cache entry on that node, and an append to either partition
// makes the next read miss, store a new entry, and see the rows.
func TestAppendInvalidatesDrainEntry(t *testing.T) {
	f := buildFixtures(t)
	router, nodes, _ := startIngestCluster(t, 2, 2, 2, f, NodeOptions{}, testRouterOptions())
	rq := familyRequests(t, f)["linear"]
	covers := coverOf(t, router, rq)
	if len(covers) != 1 || len(covers[0].parts) != 2 {
		t.Fatalf("cover %+v, want one node listing both partitions", covers)
	}
	var node *Node
	for _, n := range nodes {
		if n.Addr() == covers[0].addr {
			node = n
		}
	}
	read := func(label string, wantHits uint64) []topk.Item {
		t.Helper()
		before := node.eng.CacheStats()
		res, err := router.Run(context.Background(), rq)
		if err != nil {
			t.Fatal(err)
		}
		after := node.eng.CacheStats()
		if hits, stores := after.Hits-before.Hits, after.Stores-before.Stores; hits != wantHits || stores != 1-wantHits {
			t.Fatalf("%s: %d hits and %d stores on the node, want %d and %d", label, hits, stores, wantHits, 1-wantHits)
		}
		return res.Items
	}
	read("first read", 0)
	read("repeat read", 1)
	seen := make(map[int]bool)
	for i := 0; len(seen) < 2; i++ {
		// A row far above every fixture row's score, so the read after
		// the append must return it first.
		row := []float64{100 + float64(i), -100, 100}
		res, err := router.Append(context.Background(), AppendRequest{Dataset: "gauss", Tuples: [][]float64{row}})
		if err != nil {
			t.Fatal(err)
		}
		seen[res.Part] = true
		items := read("read after an append to partition "+string(rune('0'+res.Part)), 0)
		if want := int64(len(f.pts) + i); items[0].ID != want {
			t.Fatalf("after appending row %d to partition %d the best item is %d", want, res.Part, items[0].ID)
		}
		read("repeat read after the append", 1)
	}
}
