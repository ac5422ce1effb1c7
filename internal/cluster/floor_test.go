// Cross-node floor propagation, pinned deterministically: a hand-built
// skewed archive where one partition (hot) scores far above the other
// (cold). The hot node's published floor, delivered to the cold node in
// the query frame, must let the cold node's Onion index prune whole
// layers it would otherwise scan — observable in QueryStats.Pruned.
// The test drives the wire protocol directly (a raw client instead of
// the router) so the floor's arrival is ordered, not raced.

package cluster

import (
	"math"
	"net"
	"testing"

	"modelir/internal/core"
	"modelir/internal/linear"
	"modelir/internal/synth"
)

// queryNode runs one partition query over a raw connection, exactly as
// the router would, with a fixed initial floor.
func queryNode(t *testing.T, addr string, req Request, part int, floor float64) Partial {
	t.Helper()
	payload, err := encodeQuery(req, part, floor)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fc := newFconn(conn, 0)
	if err := fc.send(frameQuery, 1, payload); err != nil {
		t.Fatal(err)
	}
	for {
		typ, _, payload, err := readFrame(fc.br)
		if err != nil {
			t.Fatal(err)
		}
		switch typ {
		case frameFloor:
			// Mid-flight floor raises; the test reads the final floor
			// off the result frame instead.
		case frameResult:
			p, err := decodePartial(payload)
			if err != nil {
				t.Fatal(err)
			}
			return p
		case frameError:
			code, msg, _ := decodeError(payload)
			t.Fatalf("node error %s: %s", code, msg)
		default:
			t.Fatalf("unexpected frame %q", typ)
		}
	}
}

func TestCrossNodeFloorPrunesColdOnionLayers(t *testing.T) {
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

	lns := make([]net.Listener, 2)
	addrs := make([]string, 2)
	for i := range lns {
		if lns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		addrs[i] = lns[i].Addr().String()
	}
	topo := Topology{Nodes: addrs, Replication: 1}
	// Caching is disabled so the floored and unfloored cold queries
	// both execute (they share a fingerprint; a cache hit would replay
	// the first run's stats and mask the pruning difference).
	opt := NodeOptions{Shards: 2, CacheEntries: -1}
	byPart := make(map[int]string) // partition → node address
	for i := range lns {
		n := NewNode(addrs[i], topo, opt)
		if err := n.AddTuples("skew", pts); err != nil {
			t.Fatal(err)
		}
		n.mu.Lock()
		for part, e := range n.parts["skew"] {
			if e.local != "" {
				byPart[part] = addrs[i]
			}
		}
		n.mu.Unlock()
		n.ServeListener(lns[i])
		t.Cleanup(n.Close)
	}
	if len(byPart) != 2 {
		t.Fatalf("expected 2 partitions placed, got %v", byPart)
	}

	lm, err := linear.New([]string{"x", "y", "z"}, []float64{1, 1, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Dataset: "skew", Query: core.LinearQuery{Model: lm}, K: 8}

	// The hot partition runs first and publishes its floor: the 8th
	// best hot score, far above anything in the cold partition.
	hot := queryNode(t, byPart[0], req, 0, math.Inf(-1))
	if hot.Floor < 300 {
		t.Fatalf("hot floor = %v, want around 3x100", hot.Floor)
	}

	// Cold partition without the foreign floor: the baseline scan.
	base := queryNode(t, byPart[1], req, 1, math.Inf(-1))
	// Cold partition with the hot node's floor piggybacked in the
	// query frame: whole Onion layers fall below the floor's upper
	// bound and are pruned without evaluation.
	pruned := queryNode(t, byPart[1], req, 1, hot.Floor)

	if pruned.Stats.Pruned <= base.Stats.Pruned {
		t.Fatalf("foreign floor did not increase pruning: %d vs %d",
			pruned.Stats.Pruned, base.Stats.Pruned)
	}
	// "≥ 1 Onion layer" at this scale: a substantial slice of the cold
	// partition, not a rounding artifact.
	if gain := pruned.Stats.Pruned - base.Stats.Pruned; gain < half/8 {
		t.Fatalf("pruning gain %d too small for a layer of %d points", gain, half)
	}
	if pruned.Stats.Evaluations >= base.Stats.Evaluations {
		t.Fatalf("foreign floor did not reduce evaluations: %d vs %d",
			pruned.Stats.Evaluations, base.Stats.Evaluations)
	}
}
