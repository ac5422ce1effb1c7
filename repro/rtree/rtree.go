// Package rtree implements an STR (sort-tile-recursive) bulk-loaded
// R-tree over d-dimensional points with one query: for comparison with
// the Onion index, a best-first linear-optimization top-K that uses MBR
// upper bounds.
//
// Section 3.2 of the paper positions R*-tree-style spatial indexes as the
// incumbent: "optimized for spatial range queries … sub-optimal for
// model-based queries, as these indices do not indicate where to find
// data points that will maximize the model." This package exists to make
// that comparison concrete: experiment E1 can run the same linear top-K
// through the R-tree's MBR-guided search and show it touches far more of
// the data than Onion's convex layers.
package rtree

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"sort"

	"modelir/internal/topk"
)

// DefaultFanout is the node capacity used when Options.Fanout is zero.
const DefaultFanout = 16

// Options tunes construction.
type Options struct {
	// Fanout is the maximum number of children (or points) per node.
	Fanout int
}

// Tree is an immutable bulk-loaded R-tree over points.
type Tree struct {
	dim    int
	points [][]float64
	root   *node
}

type node struct {
	lo, hi   []float64
	children []*node
	// leaf entries: indices into points (leaf iff children == nil)
	entries []int
}

// Build bulk-loads a tree using sort-tile-recursive packing. Points are
// not copied; the caller must not mutate them afterwards.
func Build(points [][]float64, opt Options) (*Tree, error) {
	if len(points) == 0 {
		return nil, errors.New("rtree: empty point set")
	}
	d := len(points[0])
	if d == 0 {
		return nil, errors.New("rtree: zero-dimensional points")
	}
	for i, p := range points {
		if len(p) != d {
			return nil, fmt.Errorf("rtree: point %d has dim %d, want %d", i, len(p), d)
		}
	}
	fanout := opt.Fanout
	if fanout == 0 {
		fanout = DefaultFanout
	}
	if fanout < 2 {
		return nil, errors.New("rtree: fanout must be >= 2")
	}
	idx := make([]int, len(points))
	for i := range idx {
		idx[i] = i
	}
	t := &Tree{dim: d, points: points}
	leaves := t.packLeaves(idx, fanout)
	for len(leaves) > 1 {
		leaves = t.packNodes(leaves, fanout)
	}
	t.root = leaves[0]
	return t, nil
}

// packLeaves STR-packs point indices into leaf nodes.
func (t *Tree) packLeaves(idx []int, fanout int) []*node {
	slabs := t.strSlabs(idx, fanout, func(i int, dim int) float64 { return t.points[i][dim] }, 0)
	leaves := make([]*node, 0, (len(idx)+fanout-1)/fanout)
	for _, slab := range slabs {
		for start := 0; start < len(slab); start += fanout {
			end := start + fanout
			if end > len(slab) {
				end = len(slab)
			}
			n := &node{entries: append([]int(nil), slab[start:end]...)}
			t.computeLeafMBR(n)
			leaves = append(leaves, n)
		}
	}
	return leaves
}

// packNodes groups child nodes into parents, one STR level.
func (t *Tree) packNodes(children []*node, fanout int) []*node {
	idx := make([]int, len(children))
	for i := range idx {
		idx[i] = i
	}
	center := func(i, dim int) float64 { return (children[i].lo[dim] + children[i].hi[dim]) / 2 }
	slabs := t.strSlabs(idx, fanout, center, 0)
	parents := make([]*node, 0, (len(children)+fanout-1)/fanout)
	for _, slab := range slabs {
		for start := 0; start < len(slab); start += fanout {
			end := start + fanout
			if end > len(slab) {
				end = len(slab)
			}
			n := &node{}
			for _, ci := range slab[start:end] {
				n.children = append(n.children, children[ci])
			}
			t.computeInnerMBR(n)
			parents = append(parents, n)
		}
	}
	return parents
}

// strSlabs sorts by the given dimension and slices into vertical slabs of
// size ~ sqrt-balanced for 2-D STR (recursing one dimension deep keeps
// construction simple and near-optimal for the moderate dimensionalities
// used here).
func (t *Tree) strSlabs(idx []int, fanout int, key func(i, dim int) float64, dim int) [][]int {
	sort.Slice(idx, func(a, b int) bool {
		if key(idx[a], dim) != key(idx[b], dim) {
			return key(idx[a], dim) < key(idx[b], dim)
		}
		return idx[a] < idx[b]
	})
	nLeaves := (len(idx) + fanout - 1) / fanout
	nSlabs := int(math.Ceil(math.Sqrt(float64(nLeaves))))
	if nSlabs < 1 {
		nSlabs = 1
	}
	perSlab := ((nLeaves+nSlabs-1)/nSlabs)*fanout + 1
	var out [][]int
	for start := 0; start < len(idx); start += perSlab {
		end := start + perSlab
		if end > len(idx) {
			end = len(idx)
		}
		slab := append([]int(nil), idx[start:end]...)
		if t.dim > 1 {
			nextDim := (dim + 1) % t.dim
			sort.Slice(slab, func(a, b int) bool {
				if key(slab[a], nextDim) != key(slab[b], nextDim) {
					return key(slab[a], nextDim) < key(slab[b], nextDim)
				}
				return slab[a] < slab[b]
			})
		}
		out = append(out, slab)
	}
	return out
}

func (t *Tree) computeLeafMBR(n *node) {
	n.lo = make([]float64, t.dim)
	n.hi = make([]float64, t.dim)
	for i := range n.lo {
		n.lo[i] = math.Inf(1)
		n.hi[i] = math.Inf(-1)
	}
	for _, pi := range n.entries {
		for dimI, v := range t.points[pi] {
			if v < n.lo[dimI] {
				n.lo[dimI] = v
			}
			if v > n.hi[dimI] {
				n.hi[dimI] = v
			}
		}
	}
}

func (t *Tree) computeInnerMBR(n *node) {
	n.lo = make([]float64, t.dim)
	n.hi = make([]float64, t.dim)
	for i := range n.lo {
		n.lo[i] = math.Inf(1)
		n.hi[i] = math.Inf(-1)
	}
	for _, c := range n.children {
		for dimI := 0; dimI < t.dim; dimI++ {
			if c.lo[dimI] < n.lo[dimI] {
				n.lo[dimI] = c.lo[dimI]
			}
			if c.hi[dimI] > n.hi[dimI] {
				n.hi[dimI] = c.hi[dimI]
			}
		}
	}
}

// Stats counts query work.
type Stats struct {
	NodesVisited  int
	PointsTouched int
}

// pqItem is a best-first queue entry: either a node or a concrete point.
type pqItem struct {
	node  *node
	point int
	key   float64
}

type pq []pqItem

func (q pq) Len() int           { return len(q) }
func (q pq) Less(i, j int) bool { return q[i].key < q[j].key }
func (q pq) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x any)        { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() any          { old := *q; n := len(old); it := old[n-1]; *q = old[:n-1]; return it }

// LinearTopK answers a linear-optimization query through the R-tree:
// best-first search on the MBR upper bound of w·x. Exact, but — as the
// paper argues — the spatial MBR bound is loose for linear models, so it
// visits many more nodes/points than Onion's layers (experiment E1
// quantifies this).
func (t *Tree) LinearTopK(w []float64, k int) ([]topk.Item, Stats, error) {
	var st Stats
	if len(w) != t.dim {
		return nil, st, fmt.Errorf("rtree: weight dim %d, want %d", len(w), t.dim)
	}
	if k < 1 {
		return nil, st, errors.New("rtree: k must be >= 1")
	}
	// Max-heap on upper bound: negate keys in the min-heap.
	q := &pq{{node: t.root, key: -boxUpper(w, t.root.lo, t.root.hi)}}
	heap.Init(q)
	var out []topk.Item
	for q.Len() > 0 && len(out) < k {
		it := heap.Pop(q).(pqItem)
		if it.node == nil {
			out = append(out, topk.Item{ID: int64(it.point), Score: -it.key})
			continue
		}
		st.NodesVisited++
		n := it.node
		if n.children == nil {
			for _, pi := range n.entries {
				st.PointsTouched++
				s := 0.0
				for i, wi := range w {
					s += wi * t.points[pi][i]
				}
				heap.Push(q, pqItem{node: nil, point: pi, key: -s})
			}
			continue
		}
		for _, c := range n.children {
			heap.Push(q, pqItem{node: c, key: -boxUpper(w, c.lo, c.hi)})
		}
	}
	return out, st, nil
}

func boxUpper(w, lo, hi []float64) float64 {
	s := 0.0
	for i, wi := range w {
		if wi >= 0 {
			s += wi * hi[i]
		} else {
			s += wi * lo[i]
		}
	}
	return s
}
