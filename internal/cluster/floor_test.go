// Cross-node floors, pinned deterministically: a hand-built skewed
// archive where one partition (hot) scores far above the other (cold).
// The hot partition's floor (its K-th best score), delivered to the
// cold node in the query frame, must let the cold node prune work it
// would otherwise do — whole zone-mapped blocks of tuples, whole wells
// before their pair DP — observable in QueryStats.Pruned.
// The test drives the wire protocol directly (a raw client instead of
// the router), so which floor each query carries is fixed.

package cluster

import (
	"math"
	"net"
	"reflect"
	"strconv"
	"testing"

	"modelir/internal/core"
	"modelir/internal/linear"
	"modelir/internal/synth"
	"modelir/internal/topk"
)

// queryPayload encodes a 'Q' for the listed partitions, as the router
// would.
func queryPayload(t testing.TB, req core.Request, parts []int, floor float64) []byte {
	t.Helper()
	body, err := core.AppendRequest(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	return encodeQuery(nodeQuery{Parts: parts, Req: req, Floor: floor}, body)
}

// queryNode runs one partition query over a raw connection, exactly as
// the router would, under a fixed floor.
func queryNode(t *testing.T, addr string, req core.Request, part int, floor float64) Partial {
	t.Helper()
	payload := queryPayload(t, req, []int{part}, floor)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fc := newFconn(conn, 0)
	if err := fc.send(frameQuery, 1, payload); err != nil {
		t.Fatal(err)
	}
	typ, _, reply, err := readFrame(fc.br)
	if err != nil {
		t.Fatal(err)
	}
	switch typ {
	case frameResult:
		p, err := decodePartial(reply)
		if err != nil {
			t.Fatal(err)
		}
		return p
	case frameError:
		code, msg, _ := decodeError(reply)
		t.Fatalf("node error %s: %s", code, msg)
	default:
		t.Fatalf("unexpected frame %q", typ)
	}
	return Partial{}
}

// kthScore is the floor a partial proves: its K-th best score, or -Inf
// when it holds fewer than k items.
func kthScore(p Partial, k int) float64 {
	if len(p.Items) < k {
		return math.Inf(-1)
	}
	return p.Items[k-1].Score
}

// startFloorNodes serves a two-node, unreplicated cluster, each node
// ingesting its partitions of one dataset through add, and returns the
// dataset's name and partition → node address. The name is the first
// of base, base-1, base-2, … whose two partitions the layout puts on
// distinct nodes, so the hot and the cold partition are a cross-node
// read. Caching is disabled so a floored and an unfloored query of the
// same partition both execute (they share a fingerprint; a cache hit
// would replay the first run's stats and mask the pruning difference).
func startFloorNodes(t *testing.T, base string, kind DataKind, add func(n *Node, dataset string) error) (string, map[int]string) {
	t.Helper()
	lns := make([]net.Listener, 2)
	addrs := make([]string, 2)
	var err error
	for i := range lns {
		if lns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		addrs[i] = lns[i].Addr().String()
	}
	topo := Topology{Nodes: addrs, Replication: 1}
	dataset := base
	for i := 1; ; i++ {
		if pl := topo.Layout(dataset, kind); pl[0].Nodes[0] != pl[1].Nodes[0] {
			break
		}
		dataset = base + "-" + strconv.Itoa(i)
	}
	opt := NodeOptions{Shards: 2, CacheEntries: -1}
	byPart := make(map[int]string)
	for i := range lns {
		n := NewNode(addrs[i], topo, opt)
		if err := add(n, dataset); err != nil {
			t.Fatal(err)
		}
		n.mu.Lock()
		for _, parts := range n.parts {
			for part, e := range parts {
				if e.local != "" {
					byPart[part] = addrs[i]
				}
			}
		}
		n.mu.Unlock()
		n.ServeListener(lns[i])
		t.Cleanup(n.Close)
	}
	if len(byPart) != 2 || byPart[0] == byPart[1] {
		t.Fatalf("expected 2 partitions on distinct nodes, got %v", byPart)
	}
	return dataset, byPart
}

func TestCrossNodeFloorPrunesColdBlocks(t *testing.T) {
	// First half of the rows: hot, scores around 3×100. Second half:
	// cold, Gaussian scores within a few units of zero. With two
	// nodes, partition 0 is exactly the hot rows and partition 1 the
	// cold rows.
	const half = 1024
	cold, err := synth.GaussianTuples(77, half, 3)
	if err != nil {
		t.Fatal(err)
	}
	pts := make([][]float64, 0, 2*half)
	for i := 0; i < half; i++ {
		v := 100 + float64(i)*0.001
		pts = append(pts, []float64{v, v, v})
	}
	pts = append(pts, cold...)

	dataset, byPart := startFloorNodes(t, "skew", KindTuples, func(n *Node, ds string) error { return n.AddTuples(ds, pts) })

	lm, err := linear.New([]string{"x", "y", "z"}, []float64{1, 1, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	req := core.Request{Dataset: dataset, Query: core.LinearQuery{Model: lm}, K: 8}

	// The hot partition runs first and proves its floor: the 8th best
	// hot score, far above anything in the cold partition.
	hot := queryNode(t, byPart[0], req, 0, math.Inf(-1))
	floor := kthScore(hot, req.K)
	if floor < 300 {
		t.Fatalf("hot floor = %v, want around 3x100", floor)
	}

	// Cold partition without the foreign floor: the baseline scan.
	base := queryNode(t, byPart[1], req, 1, math.Inf(-1))
	// Cold partition with the hot partition's floor in the query
	// frame: whole blocks fall below the floor's upper bound and are
	// pruned without evaluation.
	pruned := queryNode(t, byPart[1], req, 1, floor)

	if pruned.Stats.Pruned <= base.Stats.Pruned {
		t.Fatalf("foreign floor did not increase pruning: %d vs %d",
			pruned.Stats.Pruned, base.Stats.Pruned)
	}
	// "≥ 1 block" at this scale: a substantial slice of the cold
	// partition, not a rounding artifact.
	if gain := pruned.Stats.Pruned - base.Stats.Pruned; gain < half/8 {
		t.Fatalf("pruning gain %d too small for a cold partition of %d points", gain, half)
	}
	if pruned.Stats.Evaluations >= base.Stats.Evaluations {
		t.Fatalf("foreign floor did not reduce evaluations: %d vs %d",
			pruned.Stats.Evaluations, base.Stats.Evaluations)
	}
}

// TestCrossNodeFloorPrunesColdWells is the geology sibling: the hot
// partition holds planted wells scoring exactly 1 (shale, sandstone,
// siltstone, all hot and adjacent), the cold partition synthetic wells
// whose gamma ramp grades mostly below 1. Under the hot node's floor
// of 1, the cold node rejects every well with a slot that cannot reach
// it before its pair DP — observable as QueryStats.Pruned — and the
// merged answer is the one the unfloored cold partition gives.
func TestCrossNodeFloorPrunesColdWells(t *testing.T) {
	const half = 32
	wells := make([]synth.WellLog, 0, 2*half)
	for i := 0; i < half; i++ {
		top := 5 + float64(i%7)
		wells = append(wells, synth.WellLog{Well: i, Strata: []synth.Stratum{
			{Lith: synth.Limestone, TopFt: 0, ThickFt: top, GammaAPI: 20},
			{Lith: synth.Shale, TopFt: top, ThickFt: 10, GammaAPI: 100},
			{Lith: synth.Sandstone, TopFt: top + 12, ThickFt: 8, GammaAPI: 90},
			{Lith: synth.Siltstone, TopFt: top + 22, ThickFt: 5, GammaAPI: 80},
		}})
	}
	cold, _, err := synth.WellArchive(synth.WellConfig{Seed: 79, Wells: half})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range cold {
		w.Well += half
		wells = append(wells, w)
	}
	dataset, byPart := startFloorNodes(t, "basin", KindWells, func(n *Node, ds string) error { return n.AddWells(ds, wells) })

	req := core.Request{Dataset: dataset, K: 8, Query: core.GeologyQuery{
		Sequence: []synth.Lithology{synth.Shale, synth.Sandstone, synth.Siltstone},
		MaxGapFt: 10, MinGamma: 45, GammaRampAPI: 20,
	}}
	hot := queryNode(t, byPart[0], req, 0, math.Inf(-1))
	floor := kthScore(hot, req.K)
	if floor != 1 {
		t.Fatalf("hot floor = %v, want 1", floor)
	}
	base := queryNode(t, byPart[1], req, 1, math.Inf(-1))
	pruned := queryNode(t, byPart[1], req, 1, floor)
	if pruned.Stats.Pruned <= base.Stats.Pruned {
		t.Fatalf("foreign floor did not increase pruning: %d vs %d",
			pruned.Stats.Pruned, base.Stats.Pruned)
	}
	if pruned.Stats.Evaluations >= base.Stats.Evaluations {
		t.Fatalf("foreign floor did not reduce evaluations: %d vs %d",
			pruned.Stats.Evaluations, base.Stats.Evaluations)
	}
	t.Logf("cold partition under the hot floor: pruned %d -> %d wells, evaluations %d -> %d",
		base.Stats.Pruned, pruned.Stats.Pruned, base.Stats.Evaluations, pruned.Stats.Evaluations)
	merge := func(parts ...Partial) []topk.Item {
		h := topk.MustHeap(req.K)
		for _, p := range parts {
			topk.MergeItems(h, p.Items)
		}
		return h.Results()
	}
	want, got := merge(hot, base), merge(hot, pruned)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged answer changed under the floor:\n got %v\nwant %v", got, want)
	}
}
