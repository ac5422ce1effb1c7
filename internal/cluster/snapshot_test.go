package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"modelir/internal/segment"
)

// TestNodeSnapshotRestoreServesIdentically pins node durability: a
// cluster whose every node was restored from its snapshot (never
// rebuilt from raw archives) answers all six query families
// bit-identically to the single-node reference, in both restore modes.
func TestNodeSnapshotRestoreServesIdentically(t *testing.T) {
	f := buildFixtures(t)
	reqs := familyRequests(t, f)
	want := reference(t, f, reqs)

	for _, mode := range []segment.RestoreMode{segment.Copy, segment.Map} {
		// Bind first: placement keys on dial addresses, and the restored
		// nodes must come back under the same topology the snapshots
		// recorded.
		const count = 2
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
		topo := Topology{Nodes: addrs, Replication: 1}

		dirs := make([]*segment.Dir, count)
		for i := range dirs {
			b, err := segment.NewDir(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			dirs[i] = b
			builder := NewNode(addrs[i], topo, NodeOptions{Shards: 3})
			ingest(t, builder, f)
			if err := builder.Snapshot(context.Background(), b); err != nil {
				t.Fatalf("node %d snapshot: %v", i, err)
			}
			builder.Close()
		}

		nodes := make([]*Node, count)
		skip := false
		for i := range nodes {
			n, err := RestoreNode(addrs[i], topo, NodeOptions{}, dirs[i], mode)
			if err != nil {
				if mode == segment.Map && errors.Is(err, segment.ErrMapUnsupported) {
					skip = true
					break
				}
				t.Fatalf("restore node %d (%v): %v", i, mode, err)
			}
			nodes[i] = n
			n.ServeListener(lns[i])
		}
		if skip {
			for _, ln := range lns {
				ln.Close()
			}
			t.Logf("map restore unsupported on this host; skipping mode")
			continue
		}

		router := NewRouter(topo)
		for name, rq := range reqs {
			res, err := router.Run(context.Background(), rq)
			if err != nil {
				t.Fatalf("mode %v %s: %v", mode, name, err)
			}
			itemsEqual(t, "restored "+mode.String()+" "+name, res.Items, want[name].Items)
		}
		router.Close()
		for _, n := range nodes {
			n.Close()
		}
	}
}

// TestRestoreNodeValidation pins the refusal paths: a snapshot from a
// different node identity or a drifted topology is ErrCorrupt, and an
// empty backend is ErrNoSnapshot.
func TestRestoreNodeValidation(t *testing.T) {
	f := buildFixtures(t)
	topo := Topology{Nodes: []string{"10.0.0.1:9001", "10.0.0.2:9001"}, Replication: 1}
	b, err := segment.NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	n := NewNode(topo.Nodes[0], topo, NodeOptions{Shards: 2})
	ingest(t, n, f)
	if err := n.Snapshot(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	n.Close()

	if _, err := RestoreNode(topo.Nodes[1], topo, NodeOptions{}, b, segment.Copy); !errors.Is(err, segment.ErrCorrupt) {
		t.Fatalf("wrong self: %v, want ErrCorrupt", err)
	}
	grown := Topology{Nodes: append(append([]string(nil), topo.Nodes...), "10.0.0.3:9001"), Replication: 1}
	if _, err := RestoreNode(topo.Nodes[0], grown, NodeOptions{}, b, segment.Copy); !errors.Is(err, segment.ErrCorrupt) {
		t.Fatalf("grown topology: %v, want ErrCorrupt", err)
	}
	renamed := Topology{Nodes: []string{topo.Nodes[0], "10.0.0.9:9001"}, Replication: 1}
	if _, err := RestoreNode(topo.Nodes[0], renamed, NodeOptions{}, b, segment.Copy); !errors.Is(err, segment.ErrCorrupt) {
		t.Fatalf("renamed peer: %v, want ErrCorrupt", err)
	}
	empty, err := segment.NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreNode(topo.Nodes[0], topo, NodeOptions{}, empty, segment.Copy); !errors.Is(err, segment.ErrNoSnapshot) {
		t.Fatalf("empty dir: %v, want ErrNoSnapshot", err)
	}

	// Restored-then-resnapshotted state is closed under the round trip:
	// a second restore from the re-snapshot still validates.
	re, err := RestoreNode(topo.Nodes[0], topo, NodeOptions{}, b, segment.Copy)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := segment.NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := re.Snapshot(context.Background(), b2); err != nil {
		t.Fatal(err)
	}
	re.Close()
	re2, err := RestoreNode(topo.Nodes[0], topo, NodeOptions{}, b2, segment.Copy)
	if err != nil {
		t.Fatalf("re-snapshot restore: %v", err)
	}
	re2.Close()
}

// oldRingPrimaries is placement as it was before hash64 had a
// finaliser: bare FNV-1a over 64 vnodes per node, replication 1. It is
// kept here only to write the NODE.json such a ring produced.
func oldRingPrimaries(nodes []string, key string) string {
	fnv := func(s string) uint64 {
		h := uint64(14695981039346656037)
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
		return h
	}
	type entry struct {
		hash uint64
		node string
	}
	var ring []entry
	for _, n := range nodes {
		for v := 0; v < 64; v++ {
			ring = append(ring, entry{fnv(n + "@" + strconv.Itoa(v)), n})
		}
	}
	sort.Slice(ring, func(a, b int) bool { return ring[a].hash < ring[b].hash })
	h := fnv(key)
	i := sort.Search(len(ring), func(i int) bool { return ring[i].hash >= h })
	return ring[i%len(ring)].node
}

// TestRestoreNodeRefusesOldRing: a NODE.json whose partitions are the
// ones the old ring assigned — same self, same topology — is refused
// with ErrCorrupt rather than served: the router would send this node
// partitions it does not hold.
func TestRestoreNodeRefusesOldRing(t *testing.T) {
	f := buildFixtures(t)
	topo := Topology{Nodes: []string{"10.0.0.1:9001", "10.0.0.2:9001"}, Replication: 1}
	self := topo.Nodes[0]
	dir := t.TempDir()
	b, err := segment.NewDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := NewNode(self, topo, NodeOptions{Shards: 2})
	ingest(t, n, f)
	if err := n.Snapshot(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	n.Close()

	raw, err := os.ReadFile(filepath.Join(dir, nodeMetaName))
	if err != nil {
		t.Fatal(err)
	}
	var meta nodeMeta
	if err := json.Unmarshal(raw, &meta); err != nil {
		t.Fatal(err)
	}
	held := make(map[string]map[int]nodePart)
	for _, p := range meta.Parts {
		if held[p.Dataset] == nil {
			held[p.Dataset] = make(map[int]nodePart)
		}
		held[p.Dataset][p.Part] = p
	}
	// The old ring's record: a partition this node really holds keeps its
	// entry; one it does not hold is claimed empty, so only the placement
	// check can tell.
	old := meta
	old.Parts = nil
	for _, ds := range []struct {
		name  string
		parts int
	}{{"gauss", 2}, {"hps", 1}, {"weather", 2}, {"basin", 2}} {
		for p := 0; p < ds.parts; p++ {
			if oldRingPrimaries(topo.Nodes, ds.name+"#"+strconv.Itoa(p)) != self {
				continue
			}
			e, ok := held[ds.name][p]
			if !ok {
				e = nodePart{Dataset: ds.name, Part: p}
			}
			old.Parts = append(old.Parts, e)
		}
	}
	if reflect.DeepEqual(old.Parts, meta.Parts) {
		t.Fatal("the old ring assigns this node what the new one does; the fixture proves nothing")
	}
	data, err := json.Marshal(&old)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, nodeMetaName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreNode(self, topo, NodeOptions{}, b, segment.Copy); !errors.Is(err, segment.ErrCorrupt) {
		t.Fatalf("old-ring record: %v, want ErrCorrupt", err)
	}

	// The record as written restores.
	if err := os.WriteFile(filepath.Join(dir, nodeMetaName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := RestoreNode(self, topo, NodeOptions{}, b, segment.Copy)
	if err != nil {
		t.Fatalf("current record: %v", err)
	}
	re.Close()
}
