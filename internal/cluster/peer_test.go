// Pins for what one multiplexed connection per peer makes newly
// possible to get wrong: steady state must dial nothing, a cancel must
// end one stream and leave the connection up, a break must fail every
// in-flight call but count against the peer once, a late floor frame
// must never reach another query, the memoised placements must be the
// ring's, a frame header must not buy memory, and Close must leave no
// goroutine behind. CI runs the first five at -race -count=10.

package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"modelir/internal/canon"
	"modelir/internal/topk"
)

// frameBytes is one frame as it appears on the wire.
func frameBytes(typ byte, stream uint32, payload []byte) []byte {
	b := make([]byte, frameHeader, frameHeader+len(payload))
	binary.BigEndian.PutUint32(b, uint32(len(payload)))
	b[4] = typ
	binary.BigEndian.PutUint32(b[5:], stream)
	return append(b, payload...)
}

// TestSteadyStateDialsNothing: 1,000 mixed-family reads, 50 appends and
// 5 reconcile passes — reads, append acks, the ingest sync's seq-state
// exchanges and the health probes — all ride the connection the first
// call dialled. Each node accepts exactly one connection.
func TestSteadyStateDialsNothing(t *testing.T) {
	f := buildFixtures(t)
	pre, tl := splitFixtures(f)
	reqs := familyRequests(t, f)
	router, nodes, addrs := startIngestCluster(t, 2, 2, 2, pre, NodeOptions{}, testRouterOptions())
	ctx := context.Background()

	names := []string{"linear", "scene", "fsm", "fsm-dist", "geology", "knowledge"}
	for i := 0; i < 1000; i++ {
		name := names[i%len(names)]
		if _, err := router.Run(ctx, reqs[name]); err != nil {
			t.Fatalf("run %d (%s): %v", i, name, err)
		}
		if i%20 == 0 {
			lo := i / 20 * 8
			if _, err := router.Append(ctx, AppendRequest{Dataset: "gauss", Tuples: tl.tuples[lo : lo+8]}); err != nil {
				t.Fatalf("append %d: %v", i/20, err)
			}
		}
		if i%200 == 0 {
			for addr, st := range router.Reconcile(ctx) {
				if st != Healthy {
					t.Fatalf("reconcile: %s is %v", addr, st)
				}
			}
		}
	}
	for i, n := range nodes {
		if got := n.accepted.Load(); got != 1 {
			t.Fatalf("node %d accepted %d connections, want 1", i, got)
		}
		if pc := router.PeerConns()[addrs[i]]; pc.ConnectedSince == nil || pc.Reconnects != 0 {
			t.Fatalf("node %d conn stats %+v, want connected, 0 reconnects", i, pc)
		}
	}
}

// TestCancelLeavesSharedConnectionUp: two reads share one peer's
// connection; one is held in BeforeExec and cancelled. The cancel ends
// that stream only — the node counts one cancellation, the other read
// returns the reference answer, and nothing re-dials.
func TestCancelLeavesSharedConnectionUp(t *testing.T) {
	f := buildFixtures(t)
	reqs := familyRequests(t, f)
	want := reference(t, f, reqs)

	var first atomic.Bool
	started := make(chan struct{})
	release := make(chan struct{})
	router, nodes := startCluster(t, 1, 2, 1, f, NodeOptions{BeforeExec: func(string, int) {
		if first.CompareAndSwap(false, true) {
			close(started)
			<-release
		}
	}})
	node := nodes[0]
	addr := node.Addr()

	ctx, cancel := context.WithCancel(context.Background())
	held := make(chan error, 1)
	go func() {
		_, err := router.Run(ctx, reqs["linear"])
		held <- err
	}()
	<-started

	// The held stream does not block its neighbour.
	res, err := router.Run(context.Background(), reqs["linear"])
	if err != nil {
		t.Fatalf("read beside a held stream: %v", err)
	}
	itemsEqual(t, "beside held stream", res.Items, want["linear"].Items)

	cancel()
	if err := <-held; !errors.Is(err, context.Canceled) {
		t.Fatalf("held read: %v, want context.Canceled", err)
	}
	// The node reads one connection in order: once it has echoed this
	// probe it has already handled the cancel frame written before it.
	if err := router.Probe(context.Background(), addr); err != nil {
		t.Fatalf("probe after cancel: %v", err)
	}
	close(release)

	res, err = router.Run(context.Background(), reqs["linear"])
	if err != nil {
		t.Fatalf("read after cancel: %v", err)
	}
	itemsEqual(t, "after cancel", res.Items, want["linear"].Items)

	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, cancelled, _ := node.Stats(); cancelled == 1 {
			break
		}
		if time.Now().After(deadline) {
			_, cancelled, _ := node.Stats()
			t.Fatalf("node counted %d cancellations, want 1", cancelled)
		}
		time.Sleep(time.Millisecond)
	}
	if got := node.accepted.Load(); got != 1 {
		t.Fatalf("node accepted %d connections, want 1 (a cancel must not cost the connection)", got)
	}
	if pc := router.PeerConns()[addr]; pc.Reconnects != 0 {
		t.Fatalf("router re-dialled %d times after a cancel", pc.Reconnects)
	}
}

// TestConnBreakFailsInFlightOnce: a node dies with 8 reads in flight on
// its connection. Every one fails over and answers from the replica,
// and the break counts against the peer once: it is Suspect, not Down.
// (ReadAttempts is 1 so the break is the only evidence: a re-dial
// refused by the dead listener is a fault of its own, one per dial.)
func TestConnBreakFailsInFlightOnce(t *testing.T) {
	const inFlight = 8
	f := buildFixtures(t)
	reqs := familyRequests(t, f)
	want := reference(t, f, reqs)

	var victim *Node
	arrived := make(chan struct{}, inFlight)
	gate := make(chan struct{})
	ropt := testRouterOptions()
	ropt.ReadAttempts = 1
	router, nodes, addrs := startIngestCluster(t, 2, 2, 2, f, NodeOptions{BeforeExec: func(string, int) {
		arrived <- struct{}{}
		<-gate
	}}, ropt)
	// The scene is one partition, and the 8 reads are one request: all
	// of them queue on the replica the router's cover picks for it.
	primary := coveringNode(t, router, reqs["scene"])
	for i, a := range addrs {
		if a == primary {
			victim = nodes[i]
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, inFlight)
	for i := 0; i < inFlight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := router.Run(context.Background(), reqs["scene"])
			if err == nil && !sameItems(res.Items, want["scene"].Items) {
				err = errors.New("items differ from the reference")
			}
			errs[i] = err
		}(i)
	}
	for i := 0; i < inFlight; i++ {
		<-arrived
	}
	victim.Kill()
	close(gate) // the replica's hook must not hold the failed-over reads
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("read %d across the break: %v", i, err)
		}
	}
	if st := router.PeerHealth()[primary]; st != Suspect {
		t.Fatalf("peer after one break under %d reads = %v, want suspect", inFlight, st)
	}
}

// TestAppendBreakFaultsOnce is the append side of the same pin: a
// replica dies holding an append (AppendAttempts 1, so the break is the
// only evidence). The transport counts the break; sendAppend must not
// count it again, or two failed attempts would take a peer to Down where
// the health machine promises three.
func TestAppendBreakFaultsOnce(t *testing.T) {
	f := buildFixtures(t)
	pre, tl := splitFixtures(f)
	var victim atomic.Pointer[Node]
	var hooks atomic.Int32
	killed := make(chan struct{})
	ropt := testRouterOptions()
	ropt.AppendAttempts = 1
	router, nodes, addrs := startIngestCluster(t, 2, 2, 2, pre, NodeOptions{BeforeAppend: func(string, int, uint64) {
		// Both replicas run the hook, and the first waits for the second:
		// when the victim dies both hold their 'A' unacked, so its stream
		// is in flight on a live connection.
		if hooks.Add(1) == 2 {
			victim.Load().Kill()
			close(killed)
		}
		<-killed
	}}, ropt)
	// Seed the ingest cursors first, so the append's only exchange with
	// the victim is the 'A' stream it dies holding.
	if err := router.SyncIngest(context.Background()); err != nil {
		t.Fatal(err)
	}
	victim.Store(nodes[1])
	res, err := router.Append(context.Background(), AppendRequest{Dataset: "gauss", Tuples: tl.tuples[:8]})
	if err != nil {
		t.Fatalf("append across the break: %v", err)
	}
	if len(res.Quarantined) != 1 || res.Quarantined[0] != addrs[1] {
		t.Fatalf("quarantined %v, want [%s]", res.Quarantined, addrs[1])
	}
	router.health.mu.Lock()
	faults := router.health.peer(addrs[1]).faults
	router.health.mu.Unlock()
	if faults != 1 {
		t.Fatalf("one broken append counted %d transport faults, want 1", faults)
	}
}

// sameItems is itemsEqual for goroutines that may not call t.Fatal.
func sameItems(a, b []topk.Item) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Score != b[i].Score {
			return false
		}
	}
	return true
}

// TestLateReplyCannotCrossStreams scripts the demux directly: stream
// IDs are not reused while a caller may still hold one, and a terminal
// frame for a stream that has finished, or was dropped by a cancelled
// caller, goes nowhere — not to the call that owned the ID, not to the
// one opened after it.
func TestLateReplyCannotCrossStreams(t *testing.T) {
	pc := &peerConn{calls: make(map[uint32]chan reply)}
	pending := func(c chan reply) bool { return len(c) > 0 }

	s1, c1, err := pc.open()
	if err != nil {
		t.Fatal(err)
	}
	pc.dispatch(frameResult, s1, encodePartial(Partial{}))
	if rep := <-c1; rep.typ != frameResult || rep.err != nil {
		t.Fatalf("terminal frame: %+v", rep)
	}

	s2, c2, err := pc.open()
	if err != nil {
		t.Fatal(err)
	}
	if s2 == s1 {
		t.Fatalf("stream ID %d reused while the test still remembers it", s1)
	}
	pc.dispatch(frameError, s1, encodeError("exec", "late")) // a second reply to the finished call
	if pending(c1) || pending(c2) {
		t.Fatalf("late reply crossed streams: c1 %d c2 %d pending", len(c1), len(c2))
	}

	pc.drop(s2) // the caller cancelled
	pc.dispatch(frameError, s2, encodeError("cancelled", "context canceled"))
	if pending(c2) {
		t.Fatalf("dropped stream was handed %+v", <-c2)
	}

	s3, c3, err := pc.open()
	if err != nil {
		t.Fatal(err)
	}
	if s3 == s1 || s3 == s2 {
		t.Fatalf("stream ID %d reused (earlier %d, %d)", s3, s1, s2)
	}
	pc.dispatch(frameResult, s3, encodePartial(Partial{}))
	if rep := <-c3; rep.typ != frameResult || pending(c1) || pending(c2) {
		t.Fatalf("own reply misrouted: %+v", rep)
	}
}

// TestLayoutMemoMatchesLayout: the placer's memoised placements — first
// call and memo hit alike — equal Topology.Layout for every kind at 1-5
// nodes and every replication.
func TestLayoutMemoMatchesLayout(t *testing.T) {
	for count := 1; count <= 5; count++ {
		var addrs []string
		for i := 0; i < count; i++ {
			addrs = append(addrs, fmt.Sprintf("10.0.0.%d:9%03d", i+1, 7*i))
		}
		for rep := 0; rep <= count+1; rep++ {
			topo := Topology{Nodes: addrs, Replication: rep}
			p := newPlacer(topo)
			for _, kind := range []DataKind{KindTuples, KindSeries, KindWells, KindScene} {
				for _, ds := range []string{"gauss", "hps", "weather", "basin", ""} {
					want := topo.Layout(ds, kind)
					for pass := 0; pass < 2; pass++ {
						if got := p.layout(ds, kind); !reflect.DeepEqual(got, want) {
							t.Fatalf("nodes=%d rep=%d kind=%d %q pass %d: %v, want %v", count, rep, kind, ds, pass, got, want)
						}
					}
				}
			}
		}
	}
	if newPlacer(Topology{}).layout("x", KindTuples) != nil {
		t.Fatal("empty topology must place nothing")
	}
}

// TestFrameHeaderCannotBuyAllocation: the listener faces any TCP peer,
// so nine header bytes must not commit memory. A bulk frame claiming the
// full 64 MiB and then hanging up costs under 1 MiB and a typed error;
// the same claim on a small frame type, a length over the bulk cap, and
// an unknown type (the retired 'F' floor frame among them) are ErrFrame
// before any payload is read.
func TestFrameHeaderCannotBuyAllocation(t *testing.T) {
	// claim is a header announcing n payload bytes, followed by body of them.
	claim := func(n uint32, typ byte, body int) *bufio.Reader {
		b := frameBytes(typ, 1, nil)
		binary.BigEndian.PutUint32(b, n)
		return bufio.NewReader(bytes.NewReader(append(b, make([]byte, body)...)))
	}
	for _, typ := range []byte{frameAppend, frameResyncChunk} {
		for _, body := range []int{0, 100 << 10} {
			br := claim(maxFrame, typ, body)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _, payload, err := readFrame(br)
			runtime.ReadMemStats(&after)
			if err != io.ErrUnexpectedEOF || payload != nil {
				t.Fatalf("%q claiming 64 MiB, %d bytes sent: err %v", typ, body, err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
				t.Fatalf("%q claiming 64 MiB, %d bytes sent: allocated %d bytes", typ, body, grew)
			}
		}
	}
	for _, tc := range []struct {
		n   uint32
		typ byte
	}{
		{maxFrame, frameQuery}, {maxSmallFrame + 1, frameCancel}, {maxResultFrame + 1, frameResult},
		{maxFrame + 1, frameAppend}, {math.MaxUint32, frameResyncChunk}, {0, 'z'}, {0, 0}, {8, 'F'},
	} {
		if _, _, _, err := readFrame(claim(tc.n, tc.typ, 16)); !errors.Is(err, ErrFrame) {
			t.Fatalf("%q frame of %d bytes: err %v, want ErrFrame", tc.typ, tc.n, err)
		}
	}
	if _, _, _, err := readFrame(bufio.NewReader(bytes.NewReader(nil))); err != io.EOF {
		t.Fatalf("close between frames: %v, want io.EOF", err)
	}
	if _, _, _, err := readFrame(bufio.NewReader(bytes.NewReader([]byte{0, 0, 0}))); err != io.ErrUnexpectedEOF {
		t.Fatalf("close inside a header: %v, want io.ErrUnexpectedEOF", err)
	}
	// Nor can a 'Q' buy a result heap: K is capped by what an 'R' can carry.
	if _, err := decodeQuery(frameStreamSeeds(t)["seed-huge-k"][frameHeader:]); !errors.Is(err, canon.ErrCorrupt) {
		t.Fatalf("query with K 1<<30: err %v, want canon.ErrCorrupt", err)
	}
	// A large payload that does arrive is read whole through the
	// growth steps.
	big := make([]byte, 5*payloadStep+123)
	for i := range big {
		big[i] = byte(i * 7)
	}
	typ, stream, payload, err := readFrame(bufio.NewReader(bytes.NewReader(frameBytes(frameAppend, 42, big))))
	if err != nil || typ != frameAppend || stream != 42 || !bytes.Equal(payload, big) {
		t.Fatalf("large frame round trip: typ %q stream %d len %d err %v", typ, stream, len(payload), err)
	}
}

// TestCloseLeavesNoGoroutines: Router.Close returns only after its
// reader goroutines have exited and Node.Close after its handlers, so
// once both are closed the goroutine count is back at its baseline.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	f := buildFixtures(t)
	pre, tl := splitFixtures(f)
	reqs := familyRequests(t, f)
	// Earlier tests' goroutines may still be unwinding: the baseline is
	// the count once two samples agree.
	baseline := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		time.Sleep(5 * time.Millisecond)
		n := runtime.NumGoroutine()
		if n == baseline {
			break
		}
		baseline = n
	}

	router, nodes, _ := startIngestCluster(t, 2, 2, 2, pre, NodeOptions{}, testRouterOptions())
	router.StartHealthLoop(5 * time.Millisecond)
	ctx := context.Background()
	for name, rq := range reqs {
		if _, err := router.Run(ctx, rq); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := router.Append(ctx, AppendRequest{Dataset: "gauss", Tuples: tl.tuples[:50]}); err != nil {
		t.Fatal(err)
	}
	if runtime.NumGoroutine() <= baseline {
		t.Fatalf("a serving cluster runs no goroutines beyond the baseline of %d — the test is not measuring anything", baseline)
	}
	router.Close()
	if _, err := router.Run(ctx, reqs["linear"]); !errors.Is(err, errRouterClosed) {
		t.Fatalf("run on a closed router: %v, want errRouterClosed", err)
	}
	for _, n := range nodes {
		n.Close()
	}
	// A goroutine that has called wg.Done may not have exited yet.
	got := runtime.NumGoroutine()
	for deadline := time.Now().Add(10 * time.Second); got > baseline && time.Now().Before(deadline); got = runtime.NumGoroutine() {
		time.Sleep(5 * time.Millisecond)
	}
	if got > baseline {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines after Close, baseline %d:\n%s", got, baseline, buf[:runtime.Stack(buf, true)])
	}
}
