// Robustness pins for snapshot resync and router crash recovery:
// (1) a replica whose missed batches were force-pruned from the append
// log is repaired by a donor snapshot transfer with no operator action,
// (2) a router restart mid-ingest re-learns cursors, acked floors, and
// the global row watermark — never reusing a global ID range and never
// assuming an unreachable replica current — and (3) a seeded chaos
// matrix interleaving kills, recoveries, appends, queries, and router
// restarts always converges to all-healthy, bit-identical answers.

package cluster

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"modelir/internal/core"
	"modelir/internal/fsm"
	"modelir/internal/linear"
	"modelir/internal/synth"
)

// TestClusterResyncAfterLogPruned is the tentpole pin: with a tiny log
// cap, every batch appended during a replica's outage is force-pruned
// the moment the survivor acks it, so log replay cannot repair the
// replica — a reconcile pass must walk it through the snapshot resync
// path and lift the quarantine without any operator action, and the
// repaired replica must then answer every family bit-identically on
// its own.
func TestClusterResyncAfterLogPruned(t *testing.T) {
	f := buildFixtures(t)
	pre, tl := splitFixtures(f)
	reqs := familyRequests(t, f)
	want := reference(t, f, reqs)
	ctx := context.Background()

	ropt := testRouterOptions()
	ropt.MaxLogBytes = 2048 // any real batch outlives the cap once acked
	router, nodes, addrs := startIngestCluster(t, 2, 4, 2, pre, NodeOptions{}, ropt)

	half := tails{tuples: tl.tuples[:len(tl.tuples)/2], series: tl.series[:len(tl.series)/2], wells: tl.wells[:len(tl.wells)/2]}
	rest := tails{tuples: tl.tuples[len(tl.tuples)/2:], series: tl.series[len(tl.series)/2:], wells: tl.wells[len(tl.wells)/2:]}
	appendTails(t, router, half)

	nodes[1].Kill()
	appendTails(t, router, rest)
	if st := router.PeerHealth()[addrs[1]]; st != Stale {
		t.Fatalf("killed replica health = %v, want stale", st)
	}
	if fp := router.ResyncStats().ForcedPrunes; fp == 0 {
		t.Fatal("tiny log cap produced no forced prunes — the scenario is not exercising resync")
	}

	// Recovery: one reconcile pass must escalate through resync and
	// re-admit the replica — no manual snapshot copy, no operator step.
	if err := nodes[1].Serve(addrs[1]); err != nil {
		t.Fatalf("recover node: %v", err)
	}
	health := router.Reconcile(ctx)
	if health[addrs[1]] != Healthy {
		t.Fatalf("recovered replica health = %v, want healthy (errors: %v)",
			health[addrs[1]], router.PeerErrors())
	}
	st := router.ResyncStats()
	if st.Resyncs == 0 || st.BytesStreamed == 0 {
		t.Fatalf("resync stats = %+v, want nonzero resyncs/bytes", st)
	}

	// The survivor dies: every answer must now come from the resynced
	// replica, bit-identical — the snapshot install plus tail replay
	// reconstructed its state exactly.
	nodes[0].Kill()
	runSix(t, "post-resync", router, reqs, want)
}

// TestRepairReplaysOneAndResyncsTheOther: one replica owes two
// partitions of a dataset. The log still holds the small batch it
// missed on one; the large batch it missed on the other outgrew the
// log cap and was dropped. One reconcile pass repairs both — a replay
// on the first, a snapshot install on the second — and the replica
// then answers alone, bit-identically.
func TestRepairReplaysOneAndResyncsTheOther(t *testing.T) {
	f := buildFixtures(t)
	pre, tl := splitFixtures(f)
	reqs := familyRequests(t, f)
	want := reference(t, f, reqs)
	ctx := context.Background()

	ropt := testRouterOptions()
	ropt.MaxLogBytes = 4096 // above the small batch, far below the large one
	router, nodes, addrs := startIngestCluster(t, 2, 4, 2, pre, NodeOptions{}, ropt)
	// Both partitions of "gauss" live on both nodes; batches alternate
	// between them, starting at partition 0.
	appendTails(t, router, tails{tuples: tl.tuples[:20], series: tl.series, wells: tl.wells})
	nodes[1].Kill()
	small, err := router.Append(ctx, AppendRequest{Dataset: "gauss", Tuples: tl.tuples[20:30]})
	if err != nil {
		t.Fatal(err)
	}
	large, err := router.Append(ctx, AppendRequest{Dataset: "gauss", Tuples: tl.tuples[30:]})
	if err != nil {
		t.Fatal(err)
	}
	if small.Part == large.Part {
		t.Fatalf("both batches landed on partition %d", small.Part)
	}
	if fp := router.ResyncStats().ForcedPrunes; fp != 1 {
		t.Fatalf("forced prunes = %d, want 1 (the large batch only)", fp)
	}

	if err := nodes[1].Serve(addrs[1]); err != nil {
		t.Fatalf("recover node: %v", err)
	}
	if health := router.Reconcile(ctx); health[addrs[1]] != Healthy {
		t.Fatalf("recovered replica health = %v, want healthy (errors: %v)", health[addrs[1]], router.PeerErrors())
	}
	if st := router.ResyncStats(); st.Resyncs != 1 || st.ReplayedBatches != 1 || st.Failures != 0 {
		t.Fatalf("resync stats = %+v, want one resync and one replayed batch", st)
	}
	nodes[0].Kill()
	runSix(t, "replay+resync", router, reqs, want)
}

// tamperProxy fronts a node at target: frames pass both ways unchanged,
// except that while tamper is set every 'Y' record the node sends has
// its watermark raised by one.
func tamperProxy(t *testing.T, target string, tamper *atomic.Bool) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", target)
			if err != nil {
				c.Close()
				continue
			}
			go func() {
				defer up.Close()
				io.Copy(up, c)
			}()
			go func() {
				defer c.Close()
				src, dst := newFconn(up, 0), newFconn(c, 0)
				for {
					typ, stream, pl, err := readFrame(src.br)
					if err != nil {
						return
					}
					if typ == frameResyncState && tamper.Load() {
						if e, err := decodeRecord(pl); err == nil {
							e.Watermark++
							pl = encodeRecord(e)
						}
					}
					if dst.send(typ, stream, pl) != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestInstallRefusesWrongWatermark: a snapshot whose record claims one
// row more than the snapshot holds is refused by the replica installing
// it, which stays quarantined with its cursors where they were; the
// next honest transfer heals it.
func TestInstallRefusesWrongWatermark(t *testing.T) {
	f := buildFixtures(t)
	pre, tl := splitFixtures(f)
	reqs := familyRequests(t, f)
	want := reference(t, f, reqs)
	ctx := context.Background()

	// The donor is reached through the proxy: its topology address is
	// the proxy's.
	lns := make([]net.Listener, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
	}
	var tamper atomic.Bool
	addrs := []string{tamperProxy(t, lns[0].Addr().String(), &tamper), lns[1].Addr().String()}
	topo := Topology{Nodes: addrs, Replication: 2}
	nodes := make([]*Node, 2)
	for i := range nodes {
		nodes[i] = NewNode(addrs[i], topo, NodeOptions{Shards: 2})
		ingest(t, nodes[i], pre)
		nodes[i].ServeListener(lns[i])
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Close()
		}
	})
	ropt := testRouterOptions()
	ropt.MaxLogBytes = 2048
	router := newTestRouter(t, topo, ropt)

	appendTails(t, router, tails{tuples: tl.tuples[:800]})
	nodes[1].Kill()
	appendTails(t, router, tails{tuples: tl.tuples[800:], series: tl.series, wells: tl.wells})
	before := nodes[1].seqState("")
	if err := nodes[1].Serve(addrs[1]); err != nil {
		t.Fatalf("recover node: %v", err)
	}

	tamper.Store(true)
	if st := router.Reconcile(ctx)[addrs[1]]; st != Resyncing {
		t.Fatalf("replica after a tampered install = %v, want resyncing", st)
	}
	if msg := router.PeerErrors()[addrs[1]]; !strings.Contains(msg, "rows") {
		t.Fatalf("peer error = %q, want the row-count refusal", msg)
	}
	if st := router.ResyncStats(); st.Resyncs != 0 || st.Failures == 0 {
		t.Fatalf("resync stats = %+v, want no resync and a failure", st)
	}
	after := nodes[1].seqState("")
	sortEntries := func(es []SeqEntry) {
		sort.Slice(es, func(i, j int) bool {
			return es[i].Dataset < es[j].Dataset || es[i].Dataset == es[j].Dataset && es[i].Part < es[j].Part
		})
	}
	sortEntries(before)
	sortEntries(after)
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("refused install moved the replica:\nbefore %+v\nafter  %+v", before, after)
	}

	tamper.Store(false)
	if st := router.Reconcile(ctx)[addrs[1]]; st != Healthy {
		t.Fatalf("replica after an honest install = %v, want healthy (errors: %v)", st, router.PeerErrors())
	}
	nodes[0].Kill()
	runSix(t, "after refused install", router, reqs, want)
}

// TestRouterRestartMidIngest pins crash recovery: the router dies
// between a batch's surviving-replica ack and the missed replica's
// repair. A fresh router must re-learn the sequence floors and global
// watermark from the reachable replica, quarantine the unreachable one
// rather than assume it current, keep appending without reusing a
// global ID range, and repair the replica once it returns — ending
// bit-identical.
func TestRouterRestartMidIngest(t *testing.T) {
	f := buildFixtures(t)
	pre, tl := splitFixtures(f)
	reqs := familyRequests(t, f)
	want := reference(t, f, reqs)
	ctx := context.Background()

	// The victim dies mid-append once armed: batch decoded, no ack —
	// the window where only the survivor holds the batch.
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

	router1 := NewRouterWith(topo, testRouterOptions())
	half := tails{tuples: tl.tuples[:len(tl.tuples)/2], series: tl.series[:len(tl.series)/2], wells: tl.wells[:len(tl.wells)/2]}
	rest := tails{tuples: tl.tuples[len(tl.tuples)/2:], series: tl.series[len(tl.series)/2:], wells: tl.wells[len(tl.wells)/2:]}
	appendTails(t, router1, half)

	// Arm the kill; this batch lands on the survivor only.
	victim.Store(nodes[1])
	if _, err := router1.Append(ctx, AppendRequest{Dataset: "gauss", Tuples: rest.tuples[:100]}); err != nil {
		t.Fatalf("append through mid-append kill: %v", err)
	}
	victim.Store(nil)
	seqsBefore := router1.AppendSeqs()

	// The router crashes here: its append log — which held the batch the
	// victim missed — is gone with it.
	router1.Close()

	router2 := NewRouterWith(topo, testRouterOptions())
	t.Cleanup(func() { router2.Close() })
	if err := router2.SyncIngest(ctx); err != nil {
		t.Fatalf("ingest sync on restarted router: %v", err)
	}
	// The unreachable replica must be quarantined, not assumed current:
	// serving it would return answers missing the in-flight batch, and
	// pruning ahead of it would strand it forever.
	if st := router2.PeerHealth()[addrs[1]]; st != Stale {
		t.Fatalf("unreachable replica after router restart = %v, want stale", st)
	}
	// Sequence floors re-learned from the survivor match the old
	// router's last assignments exactly.
	seqsAfter := router2.AppendSeqs()
	for ds, parts := range seqsBefore {
		for part, seq := range parts {
			if got := seqsAfter[ds][part]; got != seq {
				t.Fatalf("re-learned %q part %d seq = %d, want %d", ds, part, got, seq)
			}
		}
	}

	// New appends through the restarted router: the re-derived global
	// watermark means no tuple ID range is reused — proven bit-for-bit
	// by the final comparison.
	appendTails(t, router2, tails{tuples: rest.tuples[100:], series: rest.series, wells: rest.wells})

	// The victim returns; reconcile must repair it (the missed batch is
	// not in router2's log, so this exercises resync) and re-admit it.
	if err := nodes[1].Serve(addrs[1]); err != nil {
		t.Fatalf("recover node: %v", err)
	}
	healthy := false
	for i := 0; i < 100 && !healthy; i++ {
		healthy = router2.Reconcile(ctx)[addrs[1]] == Healthy
		if !healthy {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if !healthy {
		t.Fatalf("victim never re-admitted after router restart (errors: %v)", router2.PeerErrors())
	}

	// Answers from the repaired replica alone are bit-identical: no ID
	// was reused, no batch lost, across the router generations.
	nodes[0].Kill()
	runSix(t, "router-restart", router2, reqs, want)
}

// ---- chaos matrix ----

// chaosFixtures is a smaller archive set than the harness fixtures —
// the chaos matrix boots dozens of clusters, so per-boot cost matters.
// Scenes are omitted: they are not appendable and static reads are
// covered elsewhere.
type chaosFixtures struct {
	pts   [][]float64
	arch  []synth.RegionSeries
	wells []synth.WellLog
}

func buildChaosFixtures(t *testing.T) chaosFixtures {
	t.Helper()
	var f chaosFixtures
	var err error
	if f.pts, err = synth.GaussianTuples(61, 1600, 3); err != nil {
		t.Fatal(err)
	}
	if f.arch, err = synth.WeatherArchive(synth.WeatherConfig{Seed: 62, Regions: 18, Days: 120}); err != nil {
		t.Fatal(err)
	}
	if f.wells, _, err = synth.WellArchive(synth.WellConfig{Seed: 63, Wells: 12}); err != nil {
		t.Fatal(err)
	}
	return f
}

func chaosRequests(t *testing.T) map[string]core.Request {
	t.Helper()
	lm, err := linear.New([]string{"a", "b", "c"}, []float64{1, -0.5, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]core.Request{
		"linear": {Dataset: "gauss", Query: core.LinearQuery{Model: lm}, K: 10},
		"fsm": {Dataset: "weather", Query: core.FSMQuery{
			Machine: fsm.FireAnts(), Prefilter: core.FireAntsPrefilter}, K: 10},
		"fsm-dist": {Dataset: "weather", Query: core.FSMDistanceQuery{
			Target: fsm.FireAnts(), Horizon: 6}, K: 10},
		"geology": {Dataset: "basin", Query: core.GeologyQuery{
			Sequence: []synth.Lithology{synth.Shale, synth.Sandstone, synth.Siltstone},
			MaxGapFt: 10,
			MinGamma: 45,
		}, K: 10},
	}
}

// chaosWorld is one seed's cluster plus the single-role reference
// engine that mirrors every successful append — queries must match it
// bit-for-bit at any quiet point.
type chaosWorld struct {
	t      *testing.T
	rng    *rand.Rand
	f      chaosFixtures
	topo   Topology
	ropt   RouterOptions
	nodes  []*Node
	addrs  []string
	router *Router
	ref    *core.Engine
	reqs   map[string]core.Request
	// pool cursors wrap: both sides append the same rows, so content
	// equality holds regardless of repetition.
	ptPos, arPos, wlPos int
	dead                int // index of the one allowed dead node, -1 if none
}

// chaosBoot starts 3 nodes at replication 2 with a deliberately tiny
// append-log cap, so outage-time appends are force-pruned and recovery
// must take the snapshot-resync path.
func chaosBoot(t *testing.T, rng *rand.Rand, f chaosFixtures) *chaosWorld {
	t.Helper()
	const count = 3
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
	topo := Topology{Nodes: addrs, Replication: 2}
	boot := chaosFixtures{
		pts:   f.pts[:len(f.pts)/2],
		arch:  f.arch[:len(f.arch)/2],
		wells: f.wells[:len(f.wells)/2],
	}
	nodes := make([]*Node, count)
	for i := range nodes {
		nodes[i] = NewNode(addrs[i], topo, NodeOptions{Shards: 2})
		if err := nodes[i].AddTuples("gauss", boot.pts); err != nil {
			t.Fatal(err)
		}
		if err := nodes[i].AddSeries("weather", boot.arch); err != nil {
			t.Fatal(err)
		}
		if err := nodes[i].AddWells("basin", boot.wells); err != nil {
			t.Fatal(err)
		}
		nodes[i].ServeListener(lns[i])
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Close()
		}
	})

	ref := core.NewEngineWith(core.Options{Shards: 1})
	if err := ref.AddTuples("gauss", boot.pts); err != nil {
		t.Fatal(err)
	}
	if err := ref.AddSeries("weather", boot.arch); err != nil {
		t.Fatal(err)
	}
	if err := ref.AddWells("basin", boot.wells); err != nil {
		t.Fatal(err)
	}

	ropt := testRouterOptions()
	ropt.MaxLogBytes = 2048
	w := &chaosWorld{
		t: t, rng: rng, f: f, topo: topo, ropt: ropt,
		nodes: nodes, addrs: addrs, ref: ref, reqs: chaosRequests(t),
		dead: -1,
	}
	w.router = NewRouterWith(topo, ropt)
	t.Cleanup(func() { w.router.Close() })
	return w
}

// appendRandom pushes one small batch of a random kind through the
// router and mirrors it into the reference engine. Appends must always
// succeed: at most one node is dead and every partition has two
// replicas.
func (w *chaosWorld) appendRandom() {
	w.t.Helper()
	ctx := context.Background()
	switch w.rng.Intn(3) {
	case 0:
		rows := make([][]float64, 0, 40)
		for i := 0; i < 40; i++ {
			rows = append(rows, w.f.pts[w.ptPos])
			w.ptPos = (w.ptPos + 1) % len(w.f.pts)
		}
		if _, err := w.router.Append(ctx, AppendRequest{Dataset: "gauss", Tuples: rows}); err != nil {
			w.t.Fatalf("chaos append tuples: %v", err)
		}
		if err := w.ref.AppendTuples("gauss", rows); err != nil {
			w.t.Fatal(err)
		}
	case 1:
		rs := make([]synth.RegionSeries, 0, 2)
		for i := 0; i < 2; i++ {
			rs = append(rs, w.f.arch[w.arPos])
			w.arPos = (w.arPos + 1) % len(w.f.arch)
		}
		if _, err := w.router.Append(ctx, AppendRequest{Dataset: "weather", Series: rs}); err != nil {
			w.t.Fatalf("chaos append series: %v", err)
		}
		if err := w.ref.AppendSeries("weather", rs); err != nil {
			w.t.Fatal(err)
		}
	default:
		ws := make([]synth.WellLog, 0, 2)
		for i := 0; i < 2; i++ {
			ws = append(ws, w.f.wells[w.wlPos])
			w.wlPos = (w.wlPos + 1) % len(w.f.wells)
		}
		if _, err := w.router.Append(ctx, AppendRequest{Dataset: "basin", Wells: ws}); err != nil {
			w.t.Fatalf("chaos append wells: %v", err)
		}
		if err := w.ref.AppendWells("basin", ws); err != nil {
			w.t.Fatal(err)
		}
	}
}

// compare runs the named families against the cluster and the reference
// and requires bit-identical items.
func (w *chaosWorld) compare(label string, names ...string) {
	w.t.Helper()
	for _, name := range names {
		rq := w.reqs[name]
		got, err := w.router.Run(context.Background(), rq)
		if err != nil {
			w.t.Fatalf("%s %s: %v", label, name, err)
		}
		want, err := w.ref.Run(context.Background(), core.Request{Dataset: rq.Dataset, Query: rq.Query, K: rq.K})
		if err != nil {
			w.t.Fatalf("%s %s reference: %v", label, name, err)
		}
		itemsEqual(w.t, label+" "+name, got.Items, want.Items)
	}
}

// reconcileAllHealthy drives Reconcile until every peer is Healthy,
// bounded. This is the convergence claim under test: from any reachable
// state the cluster must return to all-healthy without operator action.
func (w *chaosWorld) reconcileAllHealthy(label string) {
	w.t.Helper()
	ctx := context.Background()
	for i := 0; i < 100; i++ {
		all := true
		for _, st := range w.router.Reconcile(ctx) {
			if st != Healthy {
				all = false
			}
		}
		if all {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	w.t.Fatalf("%s: cluster never converged to all-healthy: %v (errors: %v)",
		label, w.router.PeerHealth(), w.router.PeerErrors())
}

// familyNames returns all chaos families in deterministic order.
func (w *chaosWorld) familyNames() []string {
	return []string{"linear", "fsm", "fsm-dist", "geology"}
}

// runChaosSeed plays one seeded interleaving of appends, queries,
// kills, recoveries, and router restarts, then proves convergence: the
// cluster returns to all-healthy and every node alone answers every
// family bit-identically to the reference.
func runChaosSeed(t *testing.T, seed int64, f chaosFixtures, ops int) {
	rng := rand.New(rand.NewSource(seed))
	w := chaosBoot(t, rng, f)
	ctx := context.Background()

	for op := 0; op < ops; op++ {
		switch pick := rng.Intn(100); {
		case pick < 40:
			w.appendRandom()
		case pick < 60:
			names := w.familyNames()
			w.compare(fmt.Sprintf("op%d", op), names[rng.Intn(len(names))])
		case pick < 72:
			// Kill — only from an all-healthy converged state, so every
			// partition keeps a current replica and appends never fail.
			if w.dead != -1 {
				continue
			}
			w.reconcileAllHealthy(fmt.Sprintf("op%d pre-kill", op))
			w.dead = rng.Intn(len(w.nodes))
			w.nodes[w.dead].Kill()
		case pick < 86:
			if w.dead == -1 {
				continue
			}
			if err := w.nodes[w.dead].Serve(w.addrs[w.dead]); err != nil {
				t.Fatalf("op%d recover: %v", op, err)
			}
			w.dead = -1
			w.reconcileAllHealthy(fmt.Sprintf("op%d post-recover", op))
		default:
			// Router restart: the append log and all health knowledge die
			// with the old instance; the new one must resync its world
			// view before accepting traffic.
			w.router.Close()
			w.router = NewRouterWith(w.topo, w.ropt)
			if err := w.router.SyncIngest(ctx); err != nil {
				t.Fatalf("op%d router restart sync: %v", op, err)
			}
		}
	}

	// Terminal convergence: recover anything dead, reconcile to
	// all-healthy, then prove every node independently serves the exact
	// reference answers (kill the other two one at a time is redundant
	// at replication 2 over 3 nodes — killing each node in turn already
	// forces every partition onto each surviving replica set).
	if w.dead != -1 {
		if err := w.nodes[w.dead].Serve(w.addrs[w.dead]); err != nil {
			t.Fatal(err)
		}
		w.dead = -1
	}
	w.reconcileAllHealthy("terminal")
	w.compare("terminal", w.familyNames()...)
	for i := range w.nodes {
		w.nodes[i].Kill()
		w.compare(fmt.Sprintf("terminal kill-%d", i), w.familyNames()...)
		if err := w.nodes[i].Serve(w.addrs[i]); err != nil {
			t.Fatal(err)
		}
		w.reconcileAllHealthy(fmt.Sprintf("terminal recover-%d", i))
	}
}

// TestClusterChaosMatrix is the randomized soak: seeded interleavings
// of kill/recover/append/query/router-restart against a 3-node
// replication-2 cluster with a tiny log cap (so recoveries exercise
// snapshot resync, not just log replay). Every seed must converge to
// all-healthy with bit-identical answers from every node. Seed count:
// CHAOS_SEEDS env (CI soak runs ≥50), default 12, -short 4.
func TestClusterChaosMatrix(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	if env := os.Getenv("CHAOS_SEEDS"); env != "" {
		n, err := strconv.Atoi(env)
		if err != nil || n < 1 {
			t.Fatalf("bad CHAOS_SEEDS %q", env)
		}
		seeds = n
	}
	f := buildChaosFixtures(t)
	for seed := int64(1); seed <= int64(seeds); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%02d", seed), func(t *testing.T) {
			runChaosSeed(t, seed, f, 16)
		})
	}
}
