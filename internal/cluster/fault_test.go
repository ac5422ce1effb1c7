// Fault injection: nodes killed mid-query and clients disconnecting
// mid-fan-out. The BeforeExec hook fires with the query decoded and the
// connection reader live, so faults triggered inside it land at a
// deterministic point of the exchange.

package cluster

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"modelir/internal/core"
	"modelir/internal/linear"
)

func linearRequest(t *testing.T) core.Request {
	t.Helper()
	lm, err := linear.New([]string{"a", "b", "c"}, []float64{1, -0.5, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	return core.Request{Dataset: "gauss", Query: core.LinearQuery{Model: lm}, K: 12}
}

// holders returns the nodes holding a non-empty partition of dataset.
func holders(nodes []*Node, dataset string) []*Node {
	var out []*Node
	for _, n := range nodes {
		n.mu.Lock()
		for _, e := range n.parts[dataset] {
			if e.local != "" {
				out = append(out, n)
				break
			}
		}
		n.mu.Unlock()
	}
	return out
}

// TestNodeKillNoReplica pins the failure mode: a node dying mid-query
// with no replica yields a clean typed error, not a hang and not a
// silent partial answer.
func TestNodeKillNoReplica(t *testing.T) {
	f := buildFixtures(t)
	router, nodes := startCluster(t, 2, 2, 1, f, NodeOptions{})
	victims := holders(nodes, "gauss")
	if len(victims) == 0 {
		t.Fatal("no node holds gauss")
	}
	victim := victims[0]
	var once sync.Once
	victim.opt.BeforeExec = func(dataset string, part int) {
		once.Do(victim.Kill)
	}

	done := make(chan error, 1)
	go func() {
		_, err := router.Run(context.Background(), linearRequest(t))
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrPartitionUnavailable) {
			t.Fatalf("err = %v, want ErrPartitionUnavailable", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("query hung after node kill")
	}
}

// TestNodeKillFailover pins the replicated path: the covering node dying
// mid-query fails over to the replica and the merged result stays
// bit-identical to the single-node reference.
func TestNodeKillFailover(t *testing.T) {
	f := buildFixtures(t)
	reqs := familyRequests(t, f)
	want := reference(t, f, reqs)

	router, nodes := startCluster(t, 2, 2, 2, f, NodeOptions{})
	victims := holders(nodes, "gauss")
	if len(victims) < 2 {
		t.Fatalf("replication 2 should put gauss on both nodes, got %d", len(victims))
	}
	// The victim is the node the read is covered by, so it is the one
	// the read reaches first.
	victim := victims[0]
	if covering := coveringNode(t, router, reqs["linear"]); victims[1].Addr() == covering {
		victim = victims[1]
	}
	var once sync.Once
	victim.opt.BeforeExec = func(dataset string, part int) {
		once.Do(victim.Kill)
	}

	res, err := router.Run(context.Background(), reqs["linear"])
	if err != nil {
		t.Fatalf("failover run: %v", err)
	}
	itemsEqual(t, "failover result", res.Items, want["linear"].Items)
}

// TestCancelAbortsRemoteFanout proves a client disconnect propagates
// over the wire: the router's context cancellation reaches the node as
// a cancel frame (or severed connection) and aborts remote execution.
// The BeforeExec gate blocks the node mid-query until the cancellation
// has been delivered, so the node observes it deterministically.
func TestCancelAbortsRemoteFanout(t *testing.T) {
	f := buildFixtures(t)
	router, nodes := startCluster(t, 2, 2, 1, f, NodeOptions{})
	victims := holders(nodes, "gauss")
	if len(victims) == 0 {
		t.Fatal("no node holds gauss")
	}
	victim := victims[0]

	started := make(chan struct{}, 8)
	release := make(chan struct{})
	victim.opt.BeforeExec = func(dataset string, part int) {
		started <- struct{}{}
		<-release
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := router.Run(ctx, linearRequest(t))
		done <- err
	}()

	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("node never started executing")
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("router did not observe cancellation")
	}
	// The node reads one connection in order: once it has echoed this
	// probe it has already handled the cancel frame written before it.
	if err := router.Probe(context.Background(), victim.Addr()); err != nil {
		t.Fatalf("probe after cancel: %v", err)
	}
	close(release)

	// The node's handler, released, starts Engine.Run with its context
	// already cancelled and counts the query as cancelled.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, cancelled, _ := victim.Stats(); cancelled > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("node never counted the cancelled query")
		}
		time.Sleep(time.Millisecond)
	}
}
