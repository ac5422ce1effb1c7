// Node durability: a shard server's snapshot is its engine's snapshot
// (the built partitions, named dataset#part engine-locally) plus a
// NODE.json placement record — which global partitions this node
// holds, their engine-local names, and the tuple ID offsets. Placement
// is a pure function of the topology, so RestoreNode validates the
// recorded topology against the one the cluster is booting with, and
// the recorded partitions against what the ring assigns this node, and
// refuses a stale snapshot instead of serving partitions the ring no
// longer assigns here.

package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"

	"modelir/internal/core"
	"modelir/internal/segment"
)

// nodeMetaName is the placement record written next to the engine
// snapshot's MANIFEST.json.
const nodeMetaName = "NODE.json"

// nodeMeta is the NODE.json schema.
type nodeMeta struct {
	Self        string     `json:"self"`
	Nodes       []string   `json:"nodes"`
	Replication int        `json:"replication"`
	Parts       []nodePart `json:"parts"`
}

// nodePart records one (dataset, partition) this node holds. Local is
// the engine-level dataset name serving it ("" for an assigned-but-
// empty partition); Offset lifts tuple result IDs to global row
// indices.
type nodePart struct {
	Dataset string `json:"dataset"`
	Part    int    `json:"part"`
	Local   string `json:"local,omitempty"`
	Offset  int64  `json:"offset,omitempty"`
}

// Snapshot persists the node's engine state and placement record to b.
// Restore with RestoreNode under the same self and topology.
func (n *Node) Snapshot(ctx context.Context, b segment.Backend) error {
	if err := n.eng.Snapshot(ctx, b); err != nil {
		return err
	}
	meta := nodeMeta{
		Self:        n.self,
		Nodes:       append([]string(nil), n.topo.Nodes...),
		Replication: n.topo.Replication,
	}
	n.mu.Lock()
	for dataset, parts := range n.parts {
		for part, e := range parts {
			meta.Parts = append(meta.Parts, nodePart{
				Dataset: dataset, Part: part, Local: e.local, Offset: e.offset,
			})
		}
	}
	n.mu.Unlock()
	sort.Slice(meta.Parts, func(i, j int) bool {
		if meta.Parts[i].Dataset != meta.Parts[j].Dataset {
			return meta.Parts[i].Dataset < meta.Parts[j].Dataset
		}
		return meta.Parts[i].Part < meta.Parts[j].Part
	})
	data, err := json.MarshalIndent(&meta, "", "  ")
	if err != nil {
		return err
	}
	return b.WriteFile(nodeMetaName, func(w io.Writer) error {
		_, err := w.Write(append(data, '\n'))
		return err
	})
}

// RestoreNode restores a shard server from a snapshot written by
// Node.Snapshot: the engine partitions come back serving-ready (in
// Copy or Map mode) and the placement record is validated against
// self and topo — a topology that no longer matches the snapshot's, or
// partitions the ring does not assign this node, are refused, because
// the ring would route this node partitions it does not hold. The restored node only needs Serve; Close releases any
// mappings.
func RestoreNode(self string, topo Topology, opt NodeOptions, b segment.Backend, mode segment.RestoreMode) (*Node, error) {
	eng, err := core.OpenSnapshot(b, core.RestoreOptions{
		Mode:    mode,
		Options: core.Options{CacheEntries: opt.CacheEntries},
	})
	if err != nil {
		return nil, err
	}
	meta, err := readNodeMeta(b)
	if err != nil {
		eng.Close()
		return nil, err
	}
	if meta.Self != self {
		eng.Close()
		return nil, fmt.Errorf("%w: snapshot belongs to node %q, not %q", segment.ErrCorrupt, meta.Self, self)
	}
	if len(meta.Nodes) != len(topo.Nodes) || meta.Replication != topo.Replication {
		eng.Close()
		return nil, fmt.Errorf("%w: snapshot topology (%d nodes, replication %d) differs from boot topology (%d nodes, replication %d)",
			segment.ErrCorrupt, len(meta.Nodes), meta.Replication, len(topo.Nodes), topo.Replication)
	}
	for i := range meta.Nodes {
		if meta.Nodes[i] != topo.Nodes[i] {
			eng.Close()
			return nil, fmt.Errorf("%w: snapshot node list differs from boot topology at %d (%q vs %q)",
				segment.ErrCorrupt, i, meta.Nodes[i], topo.Nodes[i])
		}
	}

	// Every non-empty partition must be backed by a restored dataset.
	restored := make(map[string]string) // engine-local name → kind
	for _, ds := range eng.Datasets() {
		restored[ds.Name] = ds.Kind
	}
	n := newNodeOn(self, topo, opt, eng)
	if err := checkPlacement(n, meta.Parts, restored); err != nil {
		eng.Close()
		return nil, err
	}
	for _, p := range meta.Parts {
		if p.Local != "" && restored[p.Local] == "" {
			eng.Close()
			return nil, fmt.Errorf("%w: placement references dataset %q missing from the snapshot", segment.ErrCorrupt, p.Local)
		}
		if err := n.register(p.Dataset, p.Part, partEntry{local: p.Local, offset: p.Offset}); err != nil {
			eng.Close()
			return nil, err
		}
	}
	return n, nil
}

// checkPlacement recomputes, for every dataset the record names, the
// partitions the ring assigns this node, and refuses a record that
// differs: a snapshot written under another ring (another hash, another
// vnode count) would otherwise be served, and the router would send
// this node partitions it does not hold and never send it the ones it
// does. A scene is one partition; every other kind has one per node.
func checkPlacement(n *Node, parts []nodePart, kinds map[string]string) error {
	recorded := make(map[string][]int)
	scene := make(map[string]bool)
	for _, p := range parts {
		recorded[p.Dataset] = append(recorded[p.Dataset], p.Part)
		if p.Local != "" && kinds[p.Local] == "scenes" {
			scene[p.Dataset] = true
		}
	}
	for dataset, got := range recorded {
		kind := KindTuples // every partitioned kind has the same layout
		if scene[dataset] {
			kind = KindScene
		}
		var want []int
		for _, a := range n.place.assignments(n.self, dataset, kind, 0) {
			want = append(want, a.Part)
		}
		sort.Ints(got)
		if !slices.Equal(got, want) {
			return fmt.Errorf("%w: snapshot holds partitions %v of %q, the ring assigns this node %v",
				segment.ErrCorrupt, got, dataset, want)
		}
	}
	return nil
}

// readNodeMeta reads and strictly decodes NODE.json. An engine
// snapshot without a placement record is a corrupt node snapshot (the
// engine manifest's presence already ruled out ErrNoSnapshot).
func readNodeMeta(b segment.Backend) (*nodeMeta, error) {
	blob, err := b.Open(nodeMetaName)
	if err != nil {
		return nil, fmt.Errorf("%w: %s missing or unreadable: %v", segment.ErrCorrupt, nodeMetaName, err)
	}
	defer blob.Close()
	raw := make([]byte, blob.Size())
	if _, err := io.ReadFull(io.NewSectionReader(blob, 0, blob.Size()), raw); err != nil && !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("%w: %s read: %v", segment.ErrCorrupt, nodeMetaName, err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var meta nodeMeta
	if err := dec.Decode(&meta); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", segment.ErrCorrupt, nodeMetaName, err)
	}
	return &meta, nil
}
