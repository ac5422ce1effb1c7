// Replicated-ingest pins: a cluster that grew its datasets through
// Router.Append — including one replica killed and recovered mid-stream
// — answers every query family bit-identically to a single-node engine
// that registered the full archives up front. Plus the fault matrix:
// quarantine on missed appends, catch-up re-admission, duplicate-append
// dedup (sequence cursor and client token), and read-path retry over a
// flaky transport.

package cluster

import (
	"context"
	"errors"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"modelir/internal/colstore"
	"modelir/internal/core"
	"modelir/internal/synth"
)

// testRouterOptions shrinks the retry schedule so fault paths resolve
// in milliseconds.
func testRouterOptions() RouterOptions {
	return RouterOptions{
		DialTimeout:    2 * time.Second,
		AckTimeout:     5 * time.Second,
		ReadAttempts:   2,
		AppendAttempts: 2,
		RetryBase:      time.Millisecond,
		RetryMax:       8 * time.Millisecond,
	}
}

// tails is the last 20% of each appendable archive, fed through
// Router.Append after the cluster boots on the prefix.
type tails struct {
	tuples [][]float64
	series []synth.RegionSeries
	wells  []synth.WellLog
}

// splitFixtures cuts the fixtures at 80%: the prefix boots the nodes,
// the tails arrive live. Scenes are not appendable and stay whole.
func splitFixtures(f fixtures) (fixtures, tails) {
	tc, sc, wc := len(f.pts)*4/5, len(f.arch)*4/5, len(f.wells)*4/5
	pre := f
	pre.pts = f.pts[:tc]
	pre.arch = f.arch[:sc]
	pre.wells = f.wells[:wc]
	return pre, tails{tuples: f.pts[tc:], series: f.arch[sc:], wells: f.wells[wc:]}
}

// startIngestCluster is startCluster with a configurable router and the
// node list returned alongside the addresses, for kill/recover tests.
func startIngestCluster(t *testing.T, count, shards, replication int, f fixtures, opt NodeOptions, ropt RouterOptions) (*Router, []*Node, []string) {
	t.Helper()
	opt.Shards = shards
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
	return newTestRouter(t, topo, ropt), nodes, addrs
}

// appendTails streams every tail through the router in small batches,
// the way live clients would.
func appendTails(t *testing.T, r *Router, tl tails) {
	t.Helper()
	ctx := context.Background()
	for lo := 0; lo < len(tl.tuples); lo += 400 {
		hi := min(lo+400, len(tl.tuples))
		if _, err := r.Append(ctx, AppendRequest{Dataset: "gauss", Tuples: tl.tuples[lo:hi]}); err != nil {
			t.Fatalf("append tuples [%d:%d): %v", lo, hi, err)
		}
	}
	for lo := 0; lo < len(tl.series); lo += 4 {
		hi := min(lo+4, len(tl.series))
		if _, err := r.Append(ctx, AppendRequest{Dataset: "weather", Series: tl.series[lo:hi]}); err != nil {
			t.Fatalf("append series [%d:%d): %v", lo, hi, err)
		}
	}
	for lo := 0; lo < len(tl.wells); lo += 3 {
		hi := min(lo+3, len(tl.wells))
		if _, err := r.Append(ctx, AppendRequest{Dataset: "basin", Wells: tl.wells[lo:hi]}); err != nil {
			t.Fatalf("append wells [%d:%d): %v", lo, hi, err)
		}
	}
}

// runSix runs the family matrix against the router and compares every
// family bit-for-bit to the reference.
func runSix(t *testing.T, label string, r *Router, reqs map[string]core.Request, want map[string]core.Result) {
	t.Helper()
	for name, rq := range reqs {
		res, err := r.Run(context.Background(), rq)
		if err != nil {
			t.Fatalf("%s %s: %v", label, name, err)
		}
		itemsEqual(t, label+" "+name, res.Items, want[name].Items)
	}
}

// TestClusterIngestEquivalence is the tentpole pin: clusters that boot
// on an 80% prefix and receive the remaining 20% through replicated
// Router.Append answer every family bit-identically to a single-node
// engine built from the full archives — across node counts 1/2/3 and
// per-node shard counts 1/4/7.
func TestClusterIngestEquivalence(t *testing.T) {
	f := buildFixtures(t)
	pre, tl := splitFixtures(f)
	reqs := familyRequests(t, f)
	want := reference(t, f, reqs)

	for _, nodes := range []int{1, 2, 3} {
		for _, shards := range []int{1, 4, 7} {
			rep := 1
			if nodes > 1 {
				rep = 2
			}
			router, _, _ := startIngestCluster(t, nodes, shards, rep, pre, NodeOptions{}, testRouterOptions())
			appendTails(t, router, tl)
			runSix(t, "ingest", router, reqs, want)
		}
	}
}

// TestClusterIngestKillRecover is the mid-stream fault cycle: one
// replica killed under live ingest is quarantined while reads keep
// serving bit-identical answers from the survivor; after the process
// recovers, catch-up replays its missed batches and the cluster answers
// bit-identically FROM THE RECOVERED REPLICA (the survivor is killed to
// prove it).
func TestClusterIngestKillRecover(t *testing.T) {
	f := buildFixtures(t)
	pre, tl := splitFixtures(f)
	reqs := familyRequests(t, f)
	want := reference(t, f, reqs)
	ctx := context.Background()

	// Replication 2 over 2 nodes: every partition lives on both, so
	// either node alone can answer everything.
	router, nodes, addrs := startIngestCluster(t, 2, 4, 2, pre, NodeOptions{}, testRouterOptions())

	// Some appends land while both replicas are up...
	half := tails{tuples: tl.tuples[:len(tl.tuples)/2], series: tl.series[:len(tl.series)/2], wells: tl.wells[:len(tl.wells)/2]}
	rest := tails{tuples: tl.tuples[len(tl.tuples)/2:], series: tl.series[len(tl.series)/2:], wells: tl.wells[len(tl.wells)/2:]}
	appendTails(t, router, half)

	// ...then a replica dies and the rest arrive. Appends must succeed
	// (the survivor acks) and the victim must be quarantined.
	nodes[1].Kill()
	res, err := router.Append(ctx, AppendRequest{Dataset: "gauss", Tuples: rest.tuples[:100]})
	if err != nil {
		t.Fatalf("append with one replica down: %v", err)
	}
	quarantined := false
	for _, a := range res.Quarantined {
		if a == addrs[1] {
			quarantined = true
		}
	}
	if !quarantined {
		t.Fatalf("killed replica %s not quarantined (got %v)", addrs[1], res.Quarantined)
	}
	if st := router.PeerHealth()[addrs[1]]; st != Stale {
		t.Fatalf("killed replica health = %v, want stale", st)
	}
	appendTails(t, router, tails{tuples: rest.tuples[100:], series: rest.series, wells: rest.wells})

	// Reads during the outage: bit-identical from the survivor, and the
	// quarantined replica is never consulted (it could not be — its
	// listener is closed — but health must not even try).
	runSix(t, "outage", router, reqs, want)
	if st := router.PeerHealth()[addrs[1]]; st != Stale {
		t.Fatalf("replica health after outage reads = %v, want stale (reads must not touch it)", st)
	}

	// Recovery: the node comes back on its address, a reconcile pass
	// probes it and replays its missed batches, and it rejoins healthy.
	if err := nodes[1].Serve(addrs[1]); err != nil {
		t.Fatalf("recover node: %v", err)
	}
	health := router.Reconcile(ctx)
	if health[addrs[1]] != Healthy {
		t.Fatalf("recovered replica health = %v, want healthy", health[addrs[1]])
	}

	// Kill the survivor: every partition must now be served by the
	// recovered replica, and the answers must still be bit-identical —
	// the catch-up replay was exact.
	nodes[0].Kill()
	runSix(t, "recovered", router, reqs, want)
}

// TestClusterIngestKillMidAppend drives the sharpest fault: the replica
// dies between decoding an append and acking it. The router cannot know
// whether the batch applied; quarantine plus idempotent catch-up replay
// must reconcile either way.
func TestClusterIngestKillMidAppend(t *testing.T) {
	f := buildFixtures(t)
	pre, tl := splitFixtures(f)
	reqs := familyRequests(t, f)
	want := reference(t, f, reqs)
	ctx := context.Background()

	// Only the victim carries the hook, and it arms after boot: the
	// first append the victim decodes kills it — its connections sever
	// after the batch is in hand but before the ack can be written, the
	// exact window where the router cannot know whether it applied.
	var victim atomic.Pointer[Node]
	var once sync.Once
	lns := make([]net.Listener, 2)
	addrs := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	topo := Topology{Nodes: addrs, Replication: 2}
	opts := []NodeOptions{
		{Shards: 4},
		{Shards: 4, BeforeAppend: func(string, int, uint64) {
			if v := victim.Load(); v != nil {
				once.Do(v.Kill)
			}
		}},
	}
	nodes := make([]*Node, 2)
	for i := range nodes {
		nodes[i] = NewNode(addrs[i], topo, opts[i])
		ingest(t, nodes[i], pre)
		nodes[i].ServeListener(lns[i])
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Close()
		}
	})
	router := newTestRouter(t, topo, testRouterOptions())
	victim.Store(nodes[1])

	res, err := router.Append(ctx, AppendRequest{Dataset: "gauss", Tuples: tl.tuples[:200]})
	if err != nil {
		t.Fatalf("append through mid-append kill: %v", err)
	}
	found := false
	for _, a := range res.Quarantined {
		if a == addrs[1] {
			found = true
		}
	}
	if !found {
		t.Fatalf("mid-append victim %s not quarantined (got %v)", addrs[1], res.Quarantined)
	}
	victim.Store(nil)
	appendTails(t, router, tails{tuples: tl.tuples[200:], series: tl.series, wells: tl.wells})
	runSix(t, "mid-append outage", router, reqs, want)

	if err := nodes[1].Serve(addrs[1]); err != nil {
		t.Fatalf("recover node: %v", err)
	}
	if health := router.Reconcile(ctx); health[addrs[1]] != Healthy {
		t.Fatalf("recovered replica health = %v, want healthy", health[addrs[1]])
	}
	nodes[0].Kill()
	runSix(t, "mid-append recovered", router, reqs, want)
}

// TestClusterIngestAllReplicasDown pins the typed error: when every
// replica of the owning partition is gone, Append fails with
// ErrPartitionUnavailable (and the batch stays logged for catch-up).
func TestClusterIngestAllReplicasDown(t *testing.T) {
	f := buildFixtures(t)
	pre, tl := splitFixtures(f)
	router, nodes, _ := startIngestCluster(t, 1, 2, 1, pre, NodeOptions{}, testRouterOptions())

	// Sync ingest state while the node is alive, then kill it.
	if _, err := router.Append(context.Background(), AppendRequest{Dataset: "gauss", Tuples: tl.tuples[:10]}); err != nil {
		t.Fatal(err)
	}
	nodes[0].Kill()
	_, err := router.Append(context.Background(), AppendRequest{Dataset: "gauss", Tuples: tl.tuples[10:20]})
	if !errors.Is(err, ErrPartitionUnavailable) {
		t.Fatalf("err = %v, want ErrPartitionUnavailable", err)
	}
}

// TestClusterIngestRefusedBatch pins that input every replica refuses
// takes no node out of service: a tuple batch of the wrong width, and
// a ragged one, fail with ErrAppendRefused, quarantine no replica and
// take no sequence number or row IDs. Every dataset on those nodes
// keeps answering, and the good tail appended afterwards lands at the
// IDs a single-node engine would give it.
func TestClusterIngestRefusedBatch(t *testing.T) {
	f := buildFixtures(t)
	pre, tl := splitFixtures(f)
	reqs := familyRequests(t, f)
	want := reference(t, f, reqs)
	ctx := context.Background()

	router, _, _ := startIngestCluster(t, 2, 4, 2, pre, NodeOptions{}, testRouterOptions())
	if _, err := router.Append(ctx, AppendRequest{Dataset: "gauss", Tuples: tl.tuples[:100]}); err != nil {
		t.Fatal(err)
	}
	seqs := router.AppendSeqs()["gauss"]
	for label, rows := range map[string][][]float64{
		"wrong width": {{1, 2}, {3, 4}},
		"ragged":      {{1, 2, 3}, {4, 5}},
	} {
		res, err := router.Append(ctx, AppendRequest{Dataset: "gauss", Tuples: rows})
		if !errors.Is(err, ErrAppendRefused) {
			t.Fatalf("%s: err = %v, want ErrAppendRefused", label, err)
		}
		if len(res.Quarantined) != 0 {
			t.Fatalf("%s: quarantined %v", label, res.Quarantined)
		}
	}
	for addr, st := range router.PeerHealth() {
		if st != Healthy {
			t.Fatalf("peer %s is %v after refused appends", addr, st)
		}
	}
	for part, seq := range router.AppendSeqs()["gauss"] {
		if seq != seqs[part] {
			t.Fatalf("part %d: refused appends moved the sequence from %d to %d", part, seqs[part], seq)
		}
	}
	if _, err := router.Run(ctx, reqs["fsm"]); err != nil {
		t.Fatalf("another dataset on the same nodes: %v", err)
	}
	appendTails(t, router, tails{tuples: tl.tuples[100:], series: tl.series, wells: tl.wells})
	runSix(t, "after refused appends", router, reqs, want)
}

// TestClusterIngestRefusedBatchReplicaDown pins the refusal rule when
// another replica fails by transport: a batch no replica acked and one
// refused is held by none. With one of two replicas stopped, a
// wrong-width batch fails with ErrAppendRefused, the live replica stays
// healthy and the sequence does not move, so catch-up has nothing to
// replay and the stopped replica heals once it is back.
func TestClusterIngestRefusedBatchReplicaDown(t *testing.T) {
	f := buildFixtures(t)
	pre, tl := splitFixtures(f)
	ctx := context.Background()

	router, nodes, addrs := startIngestCluster(t, 2, 2, 2, pre, NodeOptions{}, testRouterOptions())
	if _, err := router.Append(ctx, AppendRequest{Dataset: "gauss", Tuples: tl.tuples[:10]}); err != nil {
		t.Fatal(err)
	}
	seqs := router.AppendSeqs()["gauss"]
	nodes[1].Kill()
	_, err := router.Append(ctx, AppendRequest{Dataset: "gauss", Tuples: [][]float64{{1, 2}}})
	if !errors.Is(err, ErrAppendRefused) {
		t.Fatalf("err = %v, want ErrAppendRefused", err)
	}
	if st := router.PeerHealth()[addrs[0]]; st != Healthy {
		t.Fatalf("live replica %s is %v after a refused append", addrs[0], st)
	}
	for part, seq := range router.AppendSeqs()["gauss"] {
		if seq != seqs[part] {
			t.Fatalf("part %d: the refused append moved the sequence from %d to %d", part, seqs[part], seq)
		}
	}
	if err := nodes[1].Serve(addrs[1]); err != nil {
		t.Fatalf("recover node: %v", err)
	}
	for addr, st := range router.Reconcile(ctx) {
		if st != Healthy {
			t.Fatalf("after recovery, replica %s is %v", addr, st)
		}
	}
}

// reconciledHealthy fails unless every peer is healthy, before and
// after a Reconcile pass: a refused append must quarantine no one, not
// even for a pass to lift.
func reconciledHealthy(t *testing.T, label string, r *Router) {
	t.Helper()
	for addr, st := range r.PeerHealth() {
		if st != Healthy {
			t.Fatalf("%s: peer %s is %v", label, addr, st)
		}
	}
	for addr, st := range r.Reconcile(context.Background()) {
		if st != Healthy {
			t.Fatalf("%s, after Reconcile: peer %s is %v", label, addr, st)
		}
	}
}

// TestClusterIngestUnknownDataset: an append to a dataset no node holds
// (a typo in POST /append's dataset) is refused as
// core.ErrUnknownDataset before it takes a sequence number or a log
// record. No replica is quarantined, the router keeps nothing of the
// name, and the cluster goes on appending and serving exactly.
func TestClusterIngestUnknownDataset(t *testing.T) {
	f := buildFixtures(t)
	pre, tl := splitFixtures(f)
	reqs := familyRequests(t, f)
	want := reference(t, f, reqs)
	ctx := context.Background()

	router, _, _ := startIngestCluster(t, 2, 2, 2, pre, NodeOptions{}, testRouterOptions())
	for i := 0; i < 2; i++ {
		res, err := router.Append(ctx, AppendRequest{Dataset: "typo", Tuples: tl.tuples[:10]})
		if !errors.Is(err, core.ErrUnknownDataset) {
			t.Fatalf("append %d to an unknown dataset: err = %v, want core.ErrUnknownDataset", i, err)
		}
		if len(res.Quarantined) != 0 || res.Seq != 0 {
			t.Fatalf("append %d to an unknown dataset: %+v", i, res)
		}
	}
	if _, kept := router.AppendSeqs()["typo"]; kept {
		t.Fatal("the router kept ingest state for an unknown dataset")
	}
	reconciledHealthy(t, "after appends to an unknown dataset", router)
	appendTails(t, router, tl)
	runSix(t, "after appends to an unknown dataset", router, reqs, want)
}

// TestClusterIngestWrongKindFirstBatch: a first batch of the wrong kind
// (series rows for the tuple dataset gauss) is refused as
// core.ErrUnknownDataset, since the nodes report gauss's kind, and the
// router does not keep the batch's kind: the tuple appends after it
// land, and every family answers exactly.
func TestClusterIngestWrongKindFirstBatch(t *testing.T) {
	f := buildFixtures(t)
	pre, tl := splitFixtures(f)
	reqs := familyRequests(t, f)
	want := reference(t, f, reqs)
	ctx := context.Background()

	router, _, _ := startIngestCluster(t, 2, 2, 2, pre, NodeOptions{}, testRouterOptions())
	res, err := router.Append(ctx, AppendRequest{Dataset: "gauss", Series: tl.series[:2]})
	if !errors.Is(err, core.ErrUnknownDataset) {
		t.Fatalf("series rows for a tuple dataset: err = %v, want core.ErrUnknownDataset", err)
	}
	if len(res.Quarantined) != 0 {
		t.Fatalf("a wrong-kind batch quarantined %v", res.Quarantined)
	}
	if _, kept := router.AppendSeqs()["gauss"]; kept {
		t.Fatal("the router kept ingest state from a wrong-kind batch")
	}
	reconciledHealthy(t, "after a wrong-kind first batch", router)
	appendTails(t, router, tl)
	runSix(t, "after a wrong-kind first batch", router, reqs, want)
}

// TestClusterIngestUnknownDatasetReply: an 'A' every replica answers
// with unknown-dataset — the router synced the dataset, but the nodes
// no longer hold the partition, as a node restored from a snapshot cut
// before the dataset was registered would not — is a refusal like
// ErrAppendRefused: no sequence number, no log record, no quarantine.
// Once the nodes hold the dataset again, the appends after it land and
// every family answers exactly.
func TestClusterIngestUnknownDatasetReply(t *testing.T) {
	f := buildFixtures(t)
	pre, tl := splitFixtures(f)
	reqs := familyRequests(t, f)
	want := reference(t, f, reqs)
	ctx := context.Background()

	router, nodes, _ := startIngestCluster(t, 2, 2, 2, pre, NodeOptions{}, testRouterOptions())
	if _, err := router.Append(ctx, AppendRequest{Dataset: "basin", Wells: tl.wells[:3]}); err != nil {
		t.Fatal(err)
	}
	seqs := router.AppendSeqs()["basin"]
	held := make([]map[int]partEntry, len(nodes))
	for i, n := range nodes {
		n.mu.Lock()
		held[i] = n.parts["basin"]
		delete(n.parts, "basin")
		n.mu.Unlock()
	}
	res, err := router.Append(ctx, AppendRequest{Dataset: "basin", Wells: tl.wells[3:6]})
	if !errors.Is(err, core.ErrUnknownDataset) {
		t.Fatalf("append no replica holds: err = %v, want core.ErrUnknownDataset", err)
	}
	if len(res.Quarantined) != 0 {
		t.Fatalf("an unknown-dataset reply quarantined %v", res.Quarantined)
	}
	for part, seq := range router.AppendSeqs()["basin"] {
		if seq != seqs[part] {
			t.Fatalf("part %d: the refused append moved the sequence from %d to %d", part, seqs[part], seq)
		}
	}
	for i, n := range nodes {
		n.mu.Lock()
		n.parts["basin"] = held[i]
		n.mu.Unlock()
	}
	reconciledHealthy(t, "after an unknown-dataset reply", router)
	appendTails(t, router, tails{tuples: tl.tuples, series: tl.series, wells: tl.wells[3:]})
	runSix(t, "after an unknown-dataset reply", router, reqs, want)
}

// TestClusterIngestRefusedBeforeIDs: tuple batches every replica would
// refuse — ragged, non-finite, of the wrong width — are refused at the
// router before they take a sequence number or row IDs, even while good
// batches are in flight beside them. No node sees one, and the good
// batches land at exactly the IDs a single-node engine gives them: a
// refused batch leaves no hole in the ID space.
func TestClusterIngestRefusedBeforeIDs(t *testing.T) {
	f := buildFixtures(t)
	pre, tl := splitFixtures(f)
	reqs := familyRequests(t, f)
	want := reference(t, f, reqs)
	ctx := context.Background()

	router, nodes, _ := startIngestCluster(t, 2, 2, 2, pre, NodeOptions{}, testRouterOptions())
	done := make(chan struct{})
	var refused atomic.Int64
	var wg sync.WaitGroup
	for _, rows := range [][][]float64{{{1, 2}}, {{1, 2, 3}, {4, 5}}, {{1, math.NaN(), 3}}} {
		rows := rows
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, err := router.Append(ctx, AppendRequest{Dataset: "gauss", Tuples: rows}); !errors.Is(err, ErrAppendRefused) {
					t.Errorf("bad batch %v: err = %v, want ErrAppendRefused", rows, err)
					return
				}
				refused.Add(1)
			}
		}()
	}
	appendTails(t, router, tl)
	close(done)
	wg.Wait()
	if refused.Load() == 0 {
		t.Fatal("no bad batch ran beside the good ones")
	}
	for i, n := range nodes {
		if _, _, failed := n.Stats(); failed != 0 {
			t.Fatalf("node %d refused %d frames: a bad batch reached it", i, failed)
		}
	}
	runSix(t, "refused beside good", router, reqs, want)
}

// TestClusterIngestEmptyPartitionKeepsWidth: a dataset with fewer rows
// than partitions has empty partitions, and a batch landing in one must
// still have the dataset's width — the router, not the empty
// partition, decides.
func TestClusterIngestEmptyPartitionKeepsWidth(t *testing.T) {
	ctx := context.Background()
	lns := make([]net.Listener, 3)
	addrs := make([]string, 3)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	topo := Topology{Nodes: addrs, Replication: 1}
	ref := core.NewEngineWith(core.Options{Shards: 1})
	pts := [][]float64{{1, 2, 3}}
	if err := ref.AddTuples("tiny", pts); err != nil {
		t.Fatal(err)
	}
	for i := range lns {
		n := NewNode(addrs[i], topo, NodeOptions{Shards: 1})
		if err := n.AddTuples("tiny", pts); err != nil {
			t.Fatal(err)
		}
		n.ServeListener(lns[i])
		t.Cleanup(n.Close)
	}
	router := newTestRouter(t, topo, testRouterOptions())
	// One batch per partition, round robin: two of the three are empty.
	for i := 0; i < len(addrs); i++ {
		_, err := router.Append(ctx, AppendRequest{Dataset: "tiny", Tuples: [][]float64{{1, 2, 3, 4, 5}}})
		if !errors.Is(err, ErrAppendRefused) {
			t.Fatalf("width-5 batch %d: err = %v, want ErrAppendRefused", i, err)
		}
	}
	for i := 0; i < len(addrs); i++ {
		rows := [][]float64{{float64(i), 0.5, -1}}
		if _, err := router.Append(ctx, AppendRequest{Dataset: "tiny", Tuples: rows}); err != nil {
			t.Fatalf("width-3 batch %d: %v", i, err)
		}
		if err := ref.AppendTuples("tiny", rows); err != nil {
			t.Fatal(err)
		}
	}
	req := linearRequest(t)
	req.Dataset = "tiny"
	got, err := router.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := ref.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	itemsEqual(t, "tiny", got.Items, wantRes.Items)
}

// TestClusterIngestTokenDedup pins client-retry idempotency: a retried
// append carrying the same token returns the recorded outcome and adds
// no rows.
func TestClusterIngestTokenDedup(t *testing.T) {
	f := buildFixtures(t)
	pre, tl := splitFixtures(f)
	reqs := familyRequests(t, f)
	want := reference(t, f, reqs)
	ctx := context.Background()

	router, _, _ := startIngestCluster(t, 2, 4, 2, pre, NodeOptions{}, testRouterOptions())
	req := AppendRequest{Dataset: "gauss", Tuples: tl.tuples[:150], Token: "client-retry-1"}
	first, err := router.Append(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Duplicate {
		t.Fatal("first append reported Duplicate")
	}
	retry, err := router.Append(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !retry.Duplicate || retry.Seq != first.Seq || retry.Part != first.Part {
		t.Fatalf("retry = %+v, want duplicate of %+v", retry, first)
	}

	// The remaining rows complete the archives; if the token replay had
	// appended twice, the extra rows would shift every family's answers.
	appendTails(t, router, tails{tuples: tl.tuples[150:], series: tl.series, wells: tl.wells})
	runSix(t, "token-dedup", router, reqs, want)
}

// TestNodeAppendSeqDedup pins the node-side cursor: re-delivering an
// applied sequence number is a duplicate no-op, and skipping ahead is a
// refused gap.
func TestNodeAppendSeqDedup(t *testing.T) {
	f := buildFixtures(t)
	pre, tl := splitFixtures(f)
	_, nodes, _ := startIngestCluster(t, 1, 1, 1, pre, NodeOptions{}, testRouterOptions())
	n := nodes[0]
	ctx := context.Background()
	base := int64(len(pre.pts))

	batch := AppendBatch{Dataset: "gauss", Part: 0, Seq: 1, Base: base, Tuples: tl.tuples[:50]}
	if dup, _, err := n.AppendRows(ctx, batch); err != nil || dup {
		t.Fatalf("first delivery: dup=%v err=%v", dup, err)
	}
	if dup, _, err := n.AppendRows(ctx, batch); err != nil || !dup {
		t.Fatalf("re-delivery: dup=%v err=%v, want dup", dup, err)
	}
	gap := AppendBatch{Dataset: "gauss", Part: 0, Seq: 5, Base: base + 50, Tuples: tl.tuples[50:60]}
	if _, _, err := n.AppendRows(ctx, gap); !errors.Is(err, ErrSeqGap) {
		t.Fatalf("gap err = %v, want ErrSeqGap", err)
	}

	// The duplicate added nothing: the dataset holds exactly base+50
	// logical rows.
	for _, ds := range n.eng.Datasets() {
		if ds.Kind == "tuples" && int64(ds.Rows) != base+50 {
			t.Fatalf("rows = %d, want %d", ds.Rows, base+50)
		}
	}

	// Series and wells ride the same cursor.
	for _, k := range []struct {
		dataset string
		batch   func(seq uint64, i int) AppendBatch
	}{
		{"weather", func(seq uint64, i int) AppendBatch {
			return AppendBatch{Dataset: "weather", Seq: seq, Series: tl.series[i : i+1]}
		}},
		{"basin", func(seq uint64, i int) AppendBatch {
			return AppendBatch{Dataset: "basin", Seq: seq, Wells: tl.wells[i : i+1]}
		}},
	} {
		local := n.localName(k.dataset, 0)
		before := localRows(t, n, local)
		first := k.batch(1, 0)
		if dup, _, err := n.AppendRows(ctx, first); err != nil || dup {
			t.Fatalf("%s first delivery: dup=%v err=%v", k.dataset, dup, err)
		}
		if dup, _, err := n.AppendRows(ctx, first); err != nil || !dup {
			t.Fatalf("%s re-delivery: dup=%v err=%v, want dup", k.dataset, dup, err)
		}
		if _, _, err := n.AppendRows(ctx, k.batch(5, 1)); !errors.Is(err, ErrSeqGap) {
			t.Fatalf("%s gap err = %v, want ErrSeqGap", k.dataset, err)
		}
		if rows := localRows(t, n, local); rows != before+1 {
			t.Fatalf("%s rows = %d, want %d", k.dataset, rows, before+1)
		}

		// A deadline that runs out while the batch is in flight: whatever
		// AppendRows answers, the engine's rows and the cursor agree. A
		// failed batch that applied later would be applied twice by the
		// router's redelivery of the same sequence number. Deferred work
		// signals nothing a test can wait on, so the check runs after a
		// pause well past a batching window (2 ms by default).
		dctx, cancel := context.WithTimeout(ctx, time.Millisecond)
		_, _, err := n.AppendRows(dctx, k.batch(2, 1))
		cancel()
		time.Sleep(20 * time.Millisecond)
		seq := n.partIngest(k.dataset, 0).lastSeq.Load()
		rows := localRows(t, n, local)
		if err == nil && (seq != 2 || rows != before+2) {
			t.Fatalf("%s acked batch: cursor %d rows %d, want 2 and %d", k.dataset, seq, rows, before+2)
		}
		if err != nil && (seq != 1 || rows != before+1) {
			t.Fatalf("%s batch failed with %v: cursor %d rows %d, want 1 and %d",
				k.dataset, err, seq, rows, before+1)
		}
	}
}

// localRows is the logical row count of one engine-local dataset.
func localRows(t *testing.T, n *Node, local string) int {
	t.Helper()
	for _, ds := range n.eng.Datasets() {
		if ds.Name == local {
			return ds.Rows
		}
	}
	t.Fatalf("no local dataset %q", local)
	return 0
}

// flakyProxy fronts a node and drops the first `drops` connections cold
// — accepted, then closed before a byte moves, the shape of a flaky
// network path — then pipes transparently. With one long-lived
// connection per peer a dropped connection is a dropped dial: the
// router sees the break, re-dials, and only the retried call pays. The
// returned counter is the number of connections accepted so far.
func flakyProxy(t *testing.T, backend string, drops int32) (string, *atomic.Int32) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	dials := new(atomic.Int32)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			if dials.Add(1) <= drops {
				c.Close()
				continue
			}
			go func(c net.Conn) {
				b, err := net.Dial("tcp", backend)
				if err != nil {
					c.Close()
					return
				}
				go func() {
					_, _ = io.Copy(b, c)
					b.Close()
				}()
				_, _ = io.Copy(c, b)
				c.Close()
				b.Close()
			}(c)
		}
	}()
	return ln.Addr().String(), dials
}

// TestClusterReadRetryFlakyTransport pins the read-path retry: a
// replica whose first connections are dropped cold is re-dialled with
// backoff within ReadAttempts and still answers — and once a connection
// holds, later reads ride it without dialling again; a replica whose
// every connection is dropped exhausts the attempts into
// ErrPartitionUnavailable.
func TestClusterReadRetryFlakyTransport(t *testing.T) {
	pts, err := synth.GaussianTuples(51, 2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	realLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	proxyAddr, dials := flakyProxy(t, realLn.Addr().String(), 2)

	topo := Topology{Nodes: []string{proxyAddr}, Replication: 1}
	n := NewNode(proxyAddr, topo, NodeOptions{Shards: 2})
	if err := n.AddTuples("gauss", pts); err != nil {
		t.Fatal(err)
	}
	n.ServeListener(realLn)
	t.Cleanup(n.Close)

	rq := familyRequests(t, fixtures{pts: pts})["linear"]
	ropt := testRouterOptions()
	ropt.ReadAttempts = 3 // two drops, third connection lands
	r := newTestRouter(t, topo, ropt)
	res, err := r.Run(context.Background(), rq)
	if err != nil {
		t.Fatalf("read through flaky transport: %v", err)
	}

	e := core.NewEngineWith(core.Options{Shards: 1})
	if err := e.AddTuples("gauss", pts); err != nil {
		t.Fatal(err)
	}
	want, err := e.Run(context.Background(), core.Request{Dataset: "gauss", Query: rq.Query, K: rq.K})
	if err != nil {
		t.Fatal(err)
	}
	itemsEqual(t, "flaky-read", res.Items, want.Items)
	for i := 0; i < 10; i++ {
		if res, err = r.Run(context.Background(), rq); err != nil {
			t.Fatalf("read %d on the held connection: %v", i, err)
		}
		itemsEqual(t, "held-connection read", res.Items, want.Items)
	}
	if got := dials.Load(); got != 3 {
		t.Fatalf("proxy accepted %d connections, want 3 (two dropped, one held)", got)
	}
	if pc := r.PeerConns()[proxyAddr]; pc.ConnectedSince == nil || pc.Reconnects != 2 {
		t.Fatalf("peer conn stats = %+v, want connected after 2 reconnects", pc)
	}

	// A path that drops everything exhausts ReadAttempts and fails typed.
	deadAddr, _ := flakyProxy(t, realLn.Addr().String(), 1<<30)
	deadTopo := Topology{Nodes: []string{deadAddr}, Replication: 1}
	dr := newTestRouter(t, deadTopo, ropt)
	if _, err := dr.Run(context.Background(), core.Request{Dataset: "gauss", Query: rq.Query, K: rq.K}); !errors.Is(err, ErrPartitionUnavailable) {
		t.Fatalf("err = %v, want ErrPartitionUnavailable", err)
	}
}

// TestNodeAddTuplesRefusesUnstorableRows: a node's tuple registration
// returns the store build's error for rows no store can hold and
// registers nothing — neither an engine dataset nor a partition entry.
func TestNodeAddTuplesRefusesUnstorableRows(t *testing.T) {
	topo := Topology{Nodes: []string{"solo:1"}, Replication: 1}
	n := NewNode(topo.Nodes[0], topo, NodeOptions{Shards: 2})
	t.Cleanup(n.Close)
	rows := [][]float64{{1, 2}, {3, 4}, {5, 6}, {7, math.NaN()}}
	if err := n.AddTuples("bad", rows); err == nil {
		t.Fatal("node accepted a non-finite row")
	}
	if ds := n.eng.Datasets(); len(ds) != 0 {
		t.Fatalf("engine registered %+v", ds)
	}
	n.mu.Lock()
	parts := len(n.parts["bad"])
	n.mu.Unlock()
	if parts != 0 {
		t.Fatalf("%d partition entries registered", parts)
	}
}

// TestNodeAddTuplesChecksWholeSetFirst: a node holding two partitions of
// a tuple dataset refuses a NaN in the later partition before it
// registers the earlier one. The error wraps the store's, the node lists
// no partition of the dataset, and the name then registers with good
// rows.
func TestNodeAddTuplesChecksWholeSetFirst(t *testing.T) {
	topo := Topology{Nodes: []string{"a:1", "b:1"}, Replication: 2}
	n := NewNode(topo.Nodes[0], topo, NodeOptions{Shards: 1})
	t.Cleanup(n.Close)
	if got := len(n.place.assignments(n.self, "bad", KindTuples, 8)); got < 2 {
		t.Fatalf("node holds %d partitions, the test needs two", got)
	}
	rows := [][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}, {1, 1}, {2, 2}, {3, 3}, {4, math.NaN()}}
	err := n.AddTuples("bad", rows)
	if !errors.Is(err, colstore.ErrRows) {
		t.Fatalf("err = %v, want one wrapping colstore.ErrRows", err)
	}
	n.mu.Lock()
	parts := len(n.parts["bad"])
	n.mu.Unlock()
	if parts != 0 {
		t.Fatalf("%d partition entries registered after the refusal", parts)
	}
	if ds := n.eng.Datasets(); len(ds) != 0 {
		t.Fatalf("engine registered %+v", ds)
	}
	rows[7] = []float64{4, 4}
	if err := n.AddTuples("bad", rows); err != nil {
		t.Fatalf("good rows under the refused name: %v", err)
	}
	n.mu.Lock()
	parts = len(n.parts["bad"])
	n.mu.Unlock()
	if parts != 2 {
		t.Fatalf("%d partition entries after the good registration, want 2", parts)
	}
}
