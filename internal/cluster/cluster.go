// Package cluster scales the engine past one machine: a router
// consistent-hashes each dataset's partitions across shard-server
// nodes, fans a compiled request out over length-prefixed frames on
// TCP, and merges the per-node top-K partials with the exact
// (score desc, ID asc) rule pinned by internal/topk — so node count,
// like shard count one layer down, changes wall-clock time only, never
// answers. A node carries the screening floor (the K-th best score
// merged so far) from one partition it serves to the next, and a
// partition covered again after a failure starts under the floor the
// first round proved (see DESIGN.md §9).
//
// This file is placement: a consistent-hash ring with virtual nodes
// mapping (dataset, partition) to a replica preference list, and the
// per-read cover that picks which replicas serve. Placement is a pure
// function of the topology, so the router and every node compute
// identical layouts without coordination.
package cluster

import (
	"sort"
	"strconv"
	"sync"
)

// DataKind is the archive family a dataset belongs to; it decides both
// the partitioning strategy and which engine table serves it.
type DataKind int

// Archive families. Tuples, series and wells partition by contiguous
// index ranges (their per-item scores are independent, so partition
// top-Ks merge exactly). Scenes do not partition: raster queries are
// scene-global (pyramid descent, tile geometry), so a scene is homed
// whole on its first-preference node and replicated.
const (
	KindTuples DataKind = iota + 1
	KindSeries
	KindWells
	KindScene
)

// String names the kind by its engine manifest tag ("tuples", "series",
// "wells", "scenes").
func (k DataKind) String() string {
	switch k {
	case KindTuples:
		return "tuples"
	case KindSeries:
		return "series"
	case KindWells:
		return "wells"
	case KindScene:
		return "scenes"
	default:
		return "kind " + strconv.Itoa(int(k))
	}
}

// Partitioned reports whether datasets of this kind split across nodes.
func (k DataKind) Partitioned() bool { return k != KindScene }

// Topology is the cluster shape both router and nodes agree on. Nodes
// are dial addresses; order matters only for tie-free determinism of
// the ring, not for placement quality.
type Topology struct {
	Nodes []string
	// Replication is the number of nodes holding each partition
	// (primary + failover replicas). Values < 1 mean 1; values above
	// the node count are capped.
	Replication int
}

func (t Topology) replicas() int {
	r := t.Replication
	if r < 1 {
		r = 1
	}
	if r > len(t.Nodes) {
		r = len(t.Nodes)
	}
	return r
}

// Placement is one partition's home: the nodes holding it, primary
// first. The router tries them in order; a node ingests the partition
// if it appears anywhere in the list.
type Placement struct {
	Part  int
	Nodes []string
}

// vnodes is the virtual-node multiplier smoothing the ring: a node's
// share of the ring varies by about 1/sqrt(vnodes), so 256 keeps every
// node within 0.8x-1.25x its fair share of primaries at 2-5 nodes
// (TestPlacementSpread) while the ring stays a few thousand entries,
// built once per placer.
const vnodes = 256

type ringEntry struct {
	hash uint64
	node int // index into Topology.Nodes
}

// hash64 is FNV-1a finished with splitmix64's finaliser. Bare FNV-1a
// mixes its last byte into the low bits only: "ds#0" and "ds#1", or a
// node's vnodes "addr@0"…"addr@9", differ in the top bits by almost
// nothing and so land on the same arc of the ring. The finaliser
// spreads every input bit over the whole word.
func hash64[T string | []byte](b T) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= 1099511628211
	}
	return mix64(h)
}

// mix64 is splitmix64's finaliser, a bijection on uint64.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

func (t Topology) ring() []ringEntry {
	ring := make([]ringEntry, 0, len(t.Nodes)*vnodes)
	for i, n := range t.Nodes {
		for v := 0; v < vnodes; v++ {
			ring = append(ring, ringEntry{hash64(n + "@" + strconv.Itoa(v)), i})
		}
	}
	sort.Slice(ring, func(a, b int) bool {
		if ring[a].hash != ring[b].hash {
			return ring[a].hash < ring[b].hash
		}
		return ring[a].node < ring[b].node
	})
	return ring
}

// prefer walks the ring clockwise from key and returns the first r
// distinct nodes.
func prefer(ring []ringEntry, nodes []string, key string, r int) []string {
	out := make([]string, 0, r)
	seen := make(map[int]bool, r)
	h := hash64(key)
	start := sort.Search(len(ring), func(i int) bool { return ring[i].hash >= h })
	for i := 0; i < len(ring) && len(out) < r; i++ {
		e := ring[(start+i)%len(ring)]
		if !seen[e.node] {
			seen[e.node] = true
			out = append(out, nodes[e.node])
		}
	}
	return out
}

// Layout maps a dataset to its partition placements: one partition per
// node for partitioned kinds, so at replication 1 every node holds a
// slice, and a single whole-dataset placement for scenes. How many
// nodes a read touches is the router's cover, not the partition count:
// at replication = node count every node holds every partition and a
// read is one hop. The same function runs on the router (to route) and
// on every node (to decide what to ingest), so agreement is
// structural. Each call builds the ring afresh; the router and nodes
// hold a placer instead.
func (t Topology) Layout(dataset string, kind DataKind) []Placement {
	return newPlacer(t).layout(dataset, kind)
}

// placer is a Topology with its ring built once and its layouts
// memoised per (dataset, kind) — a Topology is immutable. The returned
// slices are shared; callers must not modify them.
type placer struct {
	topo Topology
	ring []ringEntry
	// weight is each node's rendezvous key: the cover breaks ties
	// between replicas by mix64(request hash ^ weight[addr]).
	weight map[string]uint64

	mu   sync.RWMutex
	memo map[placeKey][]Placement
}

type placeKey struct {
	dataset string
	kind    DataKind
}

// maxPlaceMemo bounds the memo: dataset names arrive in requests, and a
// client inventing names must not grow router memory without limit.
const maxPlaceMemo = 4096

func newPlacer(topo Topology) *placer {
	p := &placer{topo: topo, ring: topo.ring(), weight: make(map[string]uint64, len(topo.Nodes)), memo: make(map[placeKey][]Placement)}
	for _, n := range topo.Nodes {
		p.weight[n] = hash64(n)
	}
	return p
}

func (p *placer) layout(dataset string, kind DataKind) []Placement {
	key := placeKey{dataset, kind}
	p.mu.RLock()
	out, ok := p.memo[key]
	p.mu.RUnlock()
	if ok || len(p.topo.Nodes) == 0 {
		return out
	}
	parts := 1
	if kind.Partitioned() {
		parts = len(p.topo.Nodes)
	}
	out = make([]Placement, parts)
	for i := range out {
		out[i] = Placement{Part: i, Nodes: prefer(p.ring, p.topo.Nodes, dataset+"#"+strconv.Itoa(i), p.topo.replicas())}
	}
	p.mu.Lock()
	if len(p.memo) < maxPlaceMemo {
		p.memo[key] = out
	}
	p.mu.Unlock()
	return out
}

// partRange returns partition p's half-open index range when n items
// split into `parts` contiguous ranges with sizes differing by at most
// one — the same rule core uses for shards, one level down.
func partRange(n, parts, p int) (lo, hi int) {
	base, rem := n/parts, n%parts
	lo = p*base + min(p, rem)
	hi = lo + base
	if p < rem {
		hi++
	}
	return lo, hi
}

// Assignment is one partition a specific node must ingest: the
// partition index plus the half-open item range it covers (Lo == Hi
// for kinds that do not partition, where the node takes the whole
// dataset).
type Assignment struct {
	Part   int
	Lo, Hi int
}

// assignments lists the partitions of an n-item dataset that `self`
// holds under this topology.
func (p *placer) assignments(self, dataset string, kind DataKind, n int) []Assignment {
	var out []Assignment
	for _, pl := range p.layout(dataset, kind) {
		for _, node := range pl.Nodes {
			if node != self {
				continue
			}
			a := Assignment{Part: pl.Part}
			if kind.Partitioned() {
				a.Lo, a.Hi = partRange(n, len(p.topo.Nodes), pl.Part)
			} else {
				a.Hi = n
			}
			out = append(out, a)
			break
		}
	}
	return out
}
