// The in-process cluster harness: N real node servers over loopback
// TCP plus a router, compared bit-for-bit against a single-node
// Engine.Run over the same archives. This extends the single-process
// shard-equivalence pin (core's TestShardEquivalenceAllFamilies) one
// layer up: node count, like shard count, must never change answers.

package cluster

import (
	"context"
	"errors"
	"net"
	"testing"

	"modelir/internal/archive"
	"modelir/internal/core"
	"modelir/internal/fsm"
	"modelir/internal/linear"
	"modelir/internal/synth"
	"modelir/internal/topk"
)

// fixtures mirror core's equivalence-test archives: one dataset per
// family, sized so 3 nodes × 7 shards still leaves non-trivial slices.
type fixtures struct {
	pts   [][]float64
	scene *archive.Scene
	pm    *linear.ProgressiveModel
	arch  []synth.RegionSeries
	wells []synth.WellLog
}

func buildFixtures(t testing.TB) fixtures {
	t.Helper()
	var f fixtures
	var err error
	if f.pts, err = synth.GaussianTuples(51, 8000, 3); err != nil {
		t.Fatal(err)
	}
	sc, err := synth.LandsatScene(synth.SceneConfig{Seed: 52, W: 96, H: 96})
	if err != nil {
		t.Fatal(err)
	}
	if f.scene, err = archive.BuildScene("s", sc.Bands, archive.Options{TileSize: 16, PyramidLevels: 4}); err != nil {
		t.Fatal(err)
	}
	if f.pm, err = linear.Decompose(linear.HPSRisk(),
		[]float64{0, 0, 0, 0}, []float64{255, 255, 255, 1500}, 2, 4); err != nil {
		t.Fatal(err)
	}
	if f.arch, err = synth.WeatherArchive(synth.WeatherConfig{Seed: 53, Regions: 60, Days: 365}); err != nil {
		t.Fatal(err)
	}
	if f.wells, _, err = synth.WellArchive(synth.WellConfig{Seed: 54, Wells: 45}); err != nil {
		t.Fatal(err)
	}
	return f
}

func ingest(t testing.TB, n *Node, f fixtures) {
	t.Helper()
	if err := n.AddTuples("gauss", f.pts); err != nil {
		t.Fatal(err)
	}
	if err := n.AddScene("hps", f.scene); err != nil {
		t.Fatal(err)
	}
	if err := n.AddSeries("weather", f.arch); err != nil {
		t.Fatal(err)
	}
	if err := n.AddWells("basin", f.wells); err != nil {
		t.Fatal(err)
	}
}

// startCluster boots `count` nodes over loopback, ingests the fixtures
// per the topology's placement, and returns a router over them. The
// listeners bind first so the topology can use real dial addresses.
func startCluster(t testing.TB, count, shards, replication int, f fixtures, opt NodeOptions) (*Router, []*Node) {
	t.Helper()
	opt.Shards = shards
	// Placement keys on dial addresses, which only exist once the
	// kernel assigns ports — so bind every listener first, build the
	// topology from the real addresses, then start the nodes on the
	// listeners they already own.
	lns := make([]net.Listener, count)
	addrs := make([]string, count)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	topo := Topology{Nodes: addrs, Replication: replication}
	nodes := make([]*Node, count)
	for i := range nodes {
		nodes[i] = NewNode(addrs[i], topo, opt)
		ingest(t, nodes[i], f)
		nodes[i].ServeListener(lns[i])
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Close()
		}
	})
	return newTestRouter(t, topo, RouterOptions{}), nodes
}

// newTestRouter builds a router that is closed when the test ends: a
// router owns sockets and reader goroutines.
func newTestRouter(t testing.TB, topo Topology, opt RouterOptions) *Router {
	t.Helper()
	r := NewRouterWith(topo, opt)
	t.Cleanup(func() { r.Close() })
	return r
}

// familyRequests is the six-family query matrix, identical to what the
// single-node reference runs.
func familyRequests(t testing.TB, f fixtures) map[string]core.Request {
	t.Helper()
	lm, err := linear.New([]string{"a", "b", "c"}, []float64{1, -0.5, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]core.Request{
		"linear": {Dataset: "gauss", Query: core.LinearQuery{Model: lm}, K: 12},
		"scene":  {Dataset: "hps", Query: core.SceneQuery{Model: f.pm}, K: 12},
		"fsm": {Dataset: "weather", Query: core.FSMQuery{
			Machine: fsm.FireAnts(), Prefilter: core.FireAntsPrefilter}, K: 12},
		"fsm-dist": {Dataset: "weather", Query: core.FSMDistanceQuery{
			Target: fsm.FireAnts(), Horizon: 6}, K: 12},
		"geology": {Dataset: "basin", Query: core.GeologyQuery{
			Sequence: []synth.Lithology{synth.Shale, synth.Sandstone, synth.Siltstone},
			MaxGapFt: 10,
			MinGamma: 45,
		}, K: 12},
		"knowledge": {Dataset: "hps", Query: core.KnowledgeQuery{
			Rules: core.HPSTileRules()}, K: 12},
	}
}

// reference runs the same requests on a plain single-process engine.
func reference(t *testing.T, f fixtures, reqs map[string]core.Request) map[string]core.Result {
	t.Helper()
	e := core.NewEngineWith(core.Options{Shards: 1})
	if err := e.AddTuples("gauss", f.pts); err != nil {
		t.Fatal(err)
	}
	if err := e.AddScene("hps", f.scene); err != nil {
		t.Fatal(err)
	}
	if err := e.AddSeries("weather", f.arch); err != nil {
		t.Fatal(err)
	}
	if err := e.AddWells("basin", f.wells); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]core.Result, len(reqs))
	for name, rq := range reqs {
		res, err := e.Run(context.Background(), core.Request{
			Dataset: rq.Dataset, Query: rq.Query, K: rq.K,
			Workers: rq.Workers, Budget: rq.Budget, MinScore: rq.MinScore,
		})
		if err != nil {
			t.Fatalf("%s reference: %v", name, err)
		}
		out[name] = res
	}
	return out
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

// TestClusterEquivalenceAllFamilies is the tentpole pin: node counts
// 1/2/3 × per-node shard counts 1/4/7 × all six query families return
// bit-identical IDs and scores to the single-node serial reference.
func TestClusterEquivalenceAllFamilies(t *testing.T) {
	f := buildFixtures(t)
	reqs := familyRequests(t, f)
	want := reference(t, f, reqs)

	for _, nodes := range []int{1, 2, 3} {
		for _, shards := range []int{1, 4, 7} {
			router, _ := startCluster(t, nodes, shards, 1, f, NodeOptions{})
			for name, rq := range reqs {
				res, err := router.Run(context.Background(), rq)
				if err != nil {
					t.Fatalf("nodes=%d shards=%d %s: %v", nodes, shards, name, err)
				}
				label := name
				itemsEqual(t, label, res.Items, want[name].Items)
			}
		}
	}
}

// TestClusterMinScoreAndBudget checks the request knobs survive the
// wire: MinScore filters identically, and the merged Truncated bit
// reflects budget exhaustion somewhere in the fan-out.
func TestClusterMinScoreAndBudget(t *testing.T) {
	f := buildFixtures(t)
	reqs := familyRequests(t, f)
	router, _ := startCluster(t, 2, 4, 1, f, NodeOptions{})

	min := 10.0
	rq := reqs["linear"]
	rq.MinScore = &min
	res, err := router.Run(context.Background(), rq)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range res.Items {
		if it.Score < min {
			t.Fatalf("item %d score %v below MinScore", it.ID, it.Score)
		}
	}

	rq = reqs["linear"]
	rq.Budget = 10 // far below the dataset size: must truncate
	res, err = router.Run(context.Background(), rq)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Truncated {
		t.Fatal("Truncated not set under a starvation budget")
	}

	// Negative knobs fail as they do on a local engine, though Workers
	// never crosses the wire.
	for _, knob := range []func(*core.Request){
		func(r *core.Request) { r.Budget = -1 },
		func(r *core.Request) { r.Workers = -1 },
	} {
		rq = reqs["linear"]
		knob(&rq)
		if _, err := router.Run(context.Background(), rq); err == nil {
			t.Fatalf("negative knob in %+v accepted", rq)
		}
	}
}

// TestClusterLinearMinScoreFloorRoundsDown is core's rounding repro at 2
// nodes: both rows score exactly 2^53 after an intercept of 2^53-1, and
// MinScore 2^53 travels to each node in the request and seeds its
// screening bound there, so the translation must round down.
func TestClusterLinearMinScoreFloorRoundsDown(t *testing.T) {
	lns := make([]net.Listener, 2)
	addrs := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	topo := Topology{Nodes: addrs, Replication: 1}
	for i := range lns {
		n := NewNode(addrs[i], topo, NodeOptions{Shards: 2})
		if err := n.AddTuples("t", [][]float64{{0.9999999999999999}, {0.5}}); err != nil {
			t.Fatal(err)
		}
		n.ServeListener(lns[i])
		t.Cleanup(n.Close)
	}
	router := newTestRouter(t, topo, RouterOptions{})
	lm, err := linear.New([]string{"x0"}, []float64{1}, 1<<53-1)
	if err != nil {
		t.Fatal(err)
	}
	min := float64(1 << 53)
	res, err := router.Run(context.Background(), core.Request{Dataset: "t", Query: core.LinearQuery{Model: lm}, K: 5, MinScore: &min})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 2 || res.Items[0].Score != min || res.Items[1].Score != min {
		t.Fatalf("MinScore 2^53 over 2 nodes: %+v, want both rows at 2^53", res.Items)
	}
}

// TestClusterReplicatedEquivalence runs the matrix's corner with
// replication > 1: placement changes, answers must not.
func TestClusterReplicatedEquivalence(t *testing.T) {
	f := buildFixtures(t)
	reqs := familyRequests(t, f)
	want := reference(t, f, reqs)
	router, _ := startCluster(t, 3, 4, 2, f, NodeOptions{})
	for name, rq := range reqs {
		res, err := router.Run(context.Background(), rq)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		itemsEqual(t, name, res.Items, want[name].Items)
	}
}

// TestClusterUnknownDataset pins the typed error across the wire.
func TestClusterUnknownDataset(t *testing.T) {
	f := buildFixtures(t)
	router, _ := startCluster(t, 2, 1, 1, f, NodeOptions{})
	lm, err := linear.New([]string{"a", "b", "c"}, []float64{1, -0.5, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	_, err = router.Run(context.Background(),
		core.Request{Dataset: "no-such", Query: core.LinearQuery{Model: lm}})
	if !errors.Is(err, core.ErrUnknownDataset) {
		t.Fatalf("err = %v, want ErrUnknownDataset", err)
	}
}
