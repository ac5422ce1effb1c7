// Package onion implements the Onion index of reference [11] ("The Onion
// Technique: Indexing for Linear Optimization Queries", SIGMOD 2000), the
// model-specific index the paper credits with 13,000× (top-1) and 1,400×
// (top-10) speedups over sequential scan on 3-attribute Gaussian data
// (Section 3.2).
//
// The idea: points that maximize any linear function lie on the convex
// hull of the data set. Peeling hulls repeatedly yields concentric layers
// ("onion rings"); a linear top-K query scans layers outward-in and stops
// as soon as no deeper layer can beat the current K-th best.
//
// Substitution note (documented in DESIGN.md): exact convex-hull peeling
// in arbitrary dimension is replaced by two sound constructions —
//
//   - d == 2: exact convex layers via repeated monotone-chain hulls;
//   - d >= 3: direction-sampled extreme-point peeling (each layer is the
//     set of points extremal in one of D fixed directions among the
//     points remaining).
//
// Either way, every layer stores its bounding box and the index stores
// suffix boxes over "this layer and everything deeper". A query prunes on
// the suffix box's linear upper bound, so results are exact regardless of
// how well the layering approximates true convex layers — layering
// quality affects only how early the scan stops.
//
// Storage is columnar (DESIGN.md §7): the peeled layers are laid out
// layer-by-layer in a colstore.Store — one flat column per attribute,
// fixed-size blocks with min/max/norm zone maps, rows norm-ordered
// within each layer — so the scan-bound regime (weak layering, most
// points in the core bucket) prunes block by block and streams the
// survivors through a cache-friendly columnar kernel instead of chasing
// one pointer per row.
package onion

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"modelir/internal/colstore"
	"modelir/internal/topk"
)

// Options tunes index construction.
type Options struct {
	// MaxLayers caps the number of peeled layers; points remaining after
	// the cap form a final "core" bucket. Default 48.
	MaxLayers int
	// Directions is the number of peel directions used when d >= 3
	// (ignored for exact 2-D peeling). Default 32.
	Directions int
	// Seed makes direction sampling deterministic. Default 1.
	Seed int64
	// BlockRows overrides the columnar zone-map block size (0 = the
	// colstore default). Exposed for tests; queries are block-size
	// invariant.
	BlockRows int
}

func (o *Options) applyDefaults() {
	if o.MaxLayers == 0 {
		o.MaxLayers = 48
	}
	if o.Directions == 0 {
		o.Directions = 32
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// Index is an immutable Onion index over a fixed point set.
type Index struct {
	dim int
	// store holds the peeled layers as columnar segments (layer i =
	// segment i, outermost first; the final segment is the core bucket
	// if MaxLayers was hit). Row ids are the original point indices.
	store *colstore.Store
	// exact reports whether layers are true convex layers (d <= 3). When
	// true, every point in layers > i lies inside the convex hull of
	// layer i, so layer i's maximum bounds everything deeper — the
	// original Onion stopping rule. The core bucket (if present) is not
	// covered by this property and is guarded by the box bound instead.
	exact bool
	// coreIsBucket reports whether the last layer is an un-peeled core.
	coreIsBucket bool
	// suffixLo/suffixHi bound all points in layers i..end per dimension,
	// flattened with stride dim (suffixLo[i*dim+d]).
	suffixLo []float64
	suffixHi []float64
	// suffixNorm[i] is the largest Euclidean norm among points in layers
	// i..end. For any weight vector w, Cauchy-Schwarz gives
	// w·x <= |w|₂·|x|₂ <= |w|₂·suffixNorm[i] — an L2 bound that beats
	// the box (L1-shaped) bound on isotropic high-dimensional clouds.
	suffixNorm []float64
}

// Build constructs the index. Points must share dimension >= 1; they
// are copied into the index's columnar layout and not retained.
func Build(points [][]float64, opt Options) (*Index, error) {
	opt.applyDefaults()
	if len(points) == 0 {
		return nil, errors.New("onion: empty point set")
	}
	d := len(points[0])
	if d < 1 {
		return nil, errors.New("onion: zero-dimensional points")
	}
	for i, p := range points {
		if len(p) != d {
			return nil, fmt.Errorf("onion: point %d has dim %d, want %d", i, len(p), d)
		}
		for _, v := range p {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("onion: point %d has non-finite coordinate", i)
			}
		}
	}

	idx := &Index{dim: d, exact: d <= 3}
	remaining := make([]int, len(points))
	for i := range remaining {
		remaining[i] = i
	}

	var dirs [][]float64
	if d > 3 {
		dirs = peelDirections(d, opt.Directions, opt.Seed)
	}
	// One scratch set serves every peel iteration: the marks array
	// backs ring-membership tests (subtract) and hull dedup, the int
	// buffers back the 2-D chains and the per-direction argmax table,
	// so Build allocates once, not once per layer.
	scratch := newBuildScratch(len(points), len(dirs))
	var layers [][]int
	for layer := 0; layer < opt.MaxLayers && len(remaining) > 0; layer++ {
		var ring []int
		switch d {
		case 2:
			ring = hull2D(points, remaining, scratch)
		case 3:
			ring = hull3D(points, remaining)
		default:
			ring = extremePeel(points, remaining, dirs, scratch)
		}
		if len(ring) == 0 {
			break
		}
		layers = append(layers, ring)
		remaining = subtract(remaining, ring, scratch)
	}
	if len(remaining) > 0 {
		core := make([]int, len(remaining))
		copy(core, remaining)
		sort.Ints(core)
		layers = append(layers, core)
		idx.coreIsBucket = true
	}
	store, err := colstore.BuildSegmented(points, layers, colstore.Options{BlockRows: opt.BlockRows})
	if err != nil {
		return nil, fmt.Errorf("onion: %w", err)
	}
	idx.store = store
	idx.buildSuffixBoxes()
	return idx, nil
}

// NumLayers returns the layer count (including the core bucket, if any).
func (ix *Index) NumLayers() int { return ix.store.NumSegments() }

// LayerSize returns the number of points in layer i.
func (ix *Index) LayerSize(i int) int { return ix.store.SegmentLen(i) }

// Store exposes the index's columnar storage (read-only) for
// benchmarks and layout-level tests.
func (ix *Index) Store() *colstore.Store { return ix.store }

// Stats reports the work one query did.
type Stats struct {
	LayersScanned int
	PointsTouched int
	// PointsZonePruned counts points inside scanned layers that were
	// skipped wholesale because their block's zone-map bound fell
	// strictly below the screening floor (columnar pruning; points in
	// layers the suffix bound cut off entirely are not counted here).
	PointsZonePruned int
	// BlocksZonePruned counts the zone-map-skipped blocks themselves.
	BlocksZonePruned int
	// PointsSkippedByBudget counts indexed points left unscanned
	// because the scan's work budget ran out — distinct from points the
	// layer or zone bounds screened out, which the caller derives as
	// total - touched - skipped.
	PointsSkippedByBudget int
}

// TopK returns the k points maximizing w·x, best first, with exact
// results and the work statistics. To minimize the model, negate w.
func (ix *Index) TopK(w []float64, k int) ([]topk.Item, Stats, error) {
	return ix.Scan(w, k, ScanOpts{})
}

// ScanOpts tunes one index scan. The zero value reproduces TopK.
type ScanOpts struct {
	// Ctx cancels the scan cooperatively: it is checked once per layer,
	// and a cancelled scan returns ctx.Err(). Nil means no cancellation.
	Ctx context.Context
	// Bound is a screening floor shared with the scans of sibling
	// shards of one logical dataset. Whenever the local heap fills, its
	// threshold is published; layers and blocks whose upper bound falls
	// strictly below the shared floor are skipped even if the local heap
	// could still absorb them, because those points cannot reach the
	// merged global top-K. Nil means unshared.
	Bound *topk.Bound
	// Meter is a shared work budget charged one unit per point scored.
	// The scan gates on it block by block and charges after each scored
	// block, so it overshoots by at most one block; once exhausted the
	// scan stops and returns its partial (best-effort) heap with no
	// error, recording the unscanned remainder in
	// Stats.PointsSkippedByBudget. The caller reads Meter.Exhausted to
	// learn the result was truncated.
	Meter *topk.Meter
	// OnLayer, when non-nil, is invoked after each layer is scanned with
	// the layer index and the heap's current best-first contents: an
	// observation point at each layer boundary, where a caller can
	// cancel the scan or read the budget spent so far. A non-nil error
	// aborts the scan.
	OnLayer func(layer int, sofar []topk.Item) error
}

// Scan is the full-control scan behind TopK: exact results, plus a
// shared screening floor, cooperative cancellation, work budgeting,
// and a per-layer observation hook via opts.
func (ix *Index) Scan(w []float64, k int, opt ScanOpts) ([]topk.Item, Stats, error) {
	var st Stats
	if len(w) != ix.dim {
		return nil, st, fmt.Errorf("onion: weight dim %d, want %d", len(w), ix.dim)
	}
	h, err := topk.GetHeap(k)
	if err != nil {
		return nil, st, err
	}
	defer topk.PutHeap(h)
	sb := opt.Bound
	var done <-chan struct{}
	if opt.Ctx != nil {
		done = opt.Ctx.Done()
	}
	wNorm := colstore.WeightNorm(w)
	var cst colstore.Stats
	prevMax := math.Inf(1)
	nLayers := ix.NumLayers()
	for li := 0; li < nLayers; li++ {
		if done != nil {
			select {
			case <-done:
				return nil, st, opt.Ctx.Err()
			default:
			}
		}
		// Bounds are only worth computing once a break is possible:
		// the local heap is full, or a sibling shard has published a
		// real floor (Get is nil-safe and -Inf when unshared).
		if floor := topk.Floor(h, sb.Get()); !math.IsInf(floor, -1) {
			// Box/norm suffix bound: sound for any layering.
			bound := ix.suffixBound(li, w, wNorm)
			// Convex-layer bound: with true convex layers, everything
			// deeper than layer li-1 (the core bucket included) lies
			// inside the hull of layer li-1, so that layer's maximum
			// bounds all of it. A tiny slack absorbs epsilon-interior
			// classifications in hull peeling. (With zone-map-skipped
			// blocks prevMax is the max of scored rows and skipped
			// blocks' zone bounds — still an upper bound on the layer's
			// true maximum, so the rule stays sound.)
			if ix.exact && li > 0 {
				cb := prevMax + 1e-9*(1+math.Abs(prevMax))
				if cb < bound {
					bound = cb
				}
			}
			// Strictly below the floor only: nothing deeper can enter
			// the merged top-K, even when the local heap still has room.
			// A deeper point tied with the floor can still win the
			// smaller-ID tie-break, and which layers hold the tied
			// points depends on shard boundaries — a non-strict break
			// would make results shard-dependent on ties.
			if bound < floor {
				break
			}
		}
		if opt.Meter.Exhausted() {
			// Budget ran out: the remaining layers are unpaid work, not
			// screening wins. Return the best-effort partial heap.
			for j := li; j < nLayers; j++ {
				st.PointsSkippedByBudget += ix.LayerSize(j)
			}
			break
		}
		st.LayersScanned++
		layerMax, exhausted := ix.store.ScanSegment(li, w, wNorm, h, sb, opt.Meter, &cst)
		prevMax = layerMax
		if exhausted {
			for j := li + 1; j < nLayers; j++ {
				st.PointsSkippedByBudget += ix.LayerSize(j)
			}
			break
		}
		if opt.OnLayer != nil {
			if err := opt.OnLayer(li, h.Results()); err != nil {
				return nil, st, err
			}
		}
	}
	st.PointsTouched = cst.RowsScored
	st.PointsZonePruned = cst.RowsZonePruned
	st.BlocksZonePruned = cst.BlocksZonePruned
	st.PointsSkippedByBudget += cst.RowsSkippedByBudget
	return h.AppendResults(nil), st, nil
}

// ScanTopK is the sequential-scan baseline the paper measures against:
// evaluate the model on every point of the row-major archive. It is
// deliberately kept on the row layout ([][]float64), the layout the
// paper's scan baseline reads; experiment E1 times the index against it.
func ScanTopK(points [][]float64, w []float64, k int) ([]topk.Item, Stats, error) {
	var st Stats
	if len(points) == 0 {
		return nil, st, errors.New("onion: empty point set")
	}
	if len(w) != len(points[0]) {
		return nil, st, fmt.Errorf("onion: weight dim %d, want %d", len(w), len(points[0]))
	}
	h, err := topk.GetHeap(k)
	if err != nil {
		return nil, st, err
	}
	defer topk.PutHeap(h)
	for i, p := range points {
		st.PointsTouched++
		h.OfferScore(int64(i), dot(w, p))
	}
	st.LayersScanned = 1
	return h.Results(), st, nil
}

// suffixBound returns an upper bound on w·x over layers li..end: the
// minimum of the box bound and the Cauchy-Schwarz norm bound (both
// sound; whichever is tighter wins).
func (ix *Index) suffixBound(li int, w []float64, wNorm float64) float64 {
	lo, hi := ix.suffixLo[li*ix.dim:], ix.suffixHi[li*ix.dim:]
	box := 0.0
	for i, wi := range w {
		if wi >= 0 {
			box += wi * hi[i]
		} else {
			box += wi * lo[i]
		}
	}
	norm := wNorm * ix.suffixNorm[li]
	if norm < box {
		return norm
	}
	return box
}

func (ix *Index) buildSuffixBoxes() {
	n := ix.store.NumSegments()
	d := ix.dim
	ix.suffixLo = make([]float64, n*d)
	ix.suffixHi = make([]float64, n*d)
	ix.suffixNorm = make([]float64, n)
	curLo := make([]float64, d)
	curHi := make([]float64, d)
	for i := range curLo {
		curLo[i] = math.Inf(1)
		curHi[i] = math.Inf(-1)
	}
	curNorm := 0.0
	row := ix.store.NumRows()
	for li := n - 1; li >= 0; li-- {
		for r := 0; r < ix.store.SegmentLen(li); r++ {
			row--
			sq := 0.0
			for dimI := 0; dimI < d; dimI++ {
				v := ix.store.At(row, dimI)
				if v < curLo[dimI] {
					curLo[dimI] = v
				}
				if v > curHi[dimI] {
					curHi[dimI] = v
				}
				sq += v * v
			}
			if norm := math.Sqrt(sq); norm > curNorm {
				curNorm = norm
			}
		}
		copy(ix.suffixLo[li*d:(li+1)*d], curLo)
		copy(ix.suffixHi[li*d:(li+1)*d], curHi)
		ix.suffixNorm[li] = curNorm
	}
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// buildScratch is the shared allocation Build's peel loop draws from:
// one marks array over the full point set plus reusable int buffers.
type buildScratch struct {
	// marks flags point indices; users must unmark what they marked.
	marks []bool
	// idx, chainA, chainB back hull2D's sorted order and its two
	// monotone chains.
	idx, chainA, chainB []int
	// best/bestV back extremePeel's per-direction argmax table.
	best  []int
	bestV []float64
}

func newBuildScratch(n, dirs int) *buildScratch {
	return &buildScratch{
		marks: make([]bool, n),
		best:  make([]int, dirs),
		bestV: make([]float64, dirs),
	}
}

// hull2D returns the indices (drawn from `remaining`) on the 2-D convex
// hull of the remaining points, via Andrew's monotone chain. Collinear
// boundary points are included so peeling always terminates.
func hull2D(points [][]float64, remaining []int, sc *buildScratch) []int {
	if len(remaining) <= 2 {
		out := make([]int, len(remaining))
		copy(out, remaining)
		return out
	}
	srt := append(sc.idx[:0], remaining...)
	sc.idx = srt
	sort.Slice(srt, func(i, j int) bool {
		a, b := points[srt[i]], points[srt[j]]
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		return a[1] < b[1]
	})
	cross := func(o, a, b []float64) float64 {
		return (a[0]-o[0])*(b[1]-o[1]) - (a[1]-o[1])*(b[0]-o[0])
	}
	lower := sc.chainA[:0]
	for _, pi := range srt {
		for len(lower) >= 2 &&
			cross(points[lower[len(lower)-2]], points[lower[len(lower)-1]], points[pi]) < 0 {
			lower = lower[:len(lower)-1]
		}
		lower = append(lower, pi)
	}
	sc.chainA = lower
	upper := sc.chainB[:0]
	for i := len(srt) - 1; i >= 0; i-- {
		pi := srt[i]
		for len(upper) >= 2 &&
			cross(points[upper[len(upper)-2]], points[upper[len(upper)-1]], points[pi]) < 0 {
			upper = upper[:len(upper)-1]
		}
		upper = append(upper, pi)
	}
	sc.chainB = upper
	var out []int
	for _, chain := range [2][]int{lower, upper} {
		for _, pi := range chain {
			if !sc.marks[pi] {
				sc.marks[pi] = true
				out = append(out, pi)
			}
		}
	}
	for _, pi := range out {
		sc.marks[pi] = false
	}
	sort.Ints(out)
	return out
}

// extremePeel returns the remaining points extremal in at least one of the
// fixed directions.
func extremePeel(points [][]float64, remaining []int, dirs [][]float64, sc *buildScratch) []int {
	best, bestV := sc.best[:len(dirs)], sc.bestV[:len(dirs)]
	for di := range dirs {
		best[di] = -1
		bestV[di] = math.Inf(-1)
	}
	for _, pi := range remaining {
		p := points[pi]
		for di, dir := range dirs {
			v := dot(dir, p)
			if v > bestV[di] || (v == bestV[di] && best[di] >= 0 && pi < best[di]) {
				bestV[di] = v
				best[di] = pi
			}
		}
	}
	var out []int
	for _, pi := range best {
		if pi >= 0 && !sc.marks[pi] {
			sc.marks[pi] = true
			out = append(out, pi)
		}
	}
	for _, pi := range out {
		sc.marks[pi] = false
	}
	sort.Ints(out)
	return out
}

// peelDirections returns n unit directions in dimension d: the 2d signed
// axis directions first (so axis-aligned queries resolve in one layer),
// then deterministic random unit vectors. All vectors are sliced from
// one backing allocation.
func peelDirections(d, n int, seed int64) [][]float64 {
	total := n + 2*d
	backing := make([]float64, total*d)
	dirs := make([][]float64, 0, total)
	next := func() []float64 {
		v := backing[len(dirs)*d : (len(dirs)+1)*d : (len(dirs)+1)*d]
		return v
	}
	for i := 0; i < d; i++ {
		plus := next()
		plus[i] = 1
		dirs = append(dirs, plus)
		minus := next()
		minus[i] = -1
		dirs = append(dirs, minus)
	}
	rng := rand.New(rand.NewSource(seed))
	for len(dirs) < total {
		v := next()
		norm := 0.0
		for i := range v {
			v[i] = rng.NormFloat64()
			norm += v[i] * v[i]
		}
		norm = math.Sqrt(norm)
		if norm < 1e-12 {
			continue
		}
		for i := range v {
			v[i] /= norm
		}
		dirs = append(dirs, v)
	}
	return dirs
}

// subtract removes members of ring from remaining, preserving order.
func subtract(remaining, ring []int, sc *buildScratch) []int {
	for _, pi := range ring {
		sc.marks[pi] = true
	}
	out := remaining[:0]
	for _, pi := range remaining {
		if !sc.marks[pi] {
			out = append(out, pi)
		}
	}
	for _, pi := range ring {
		sc.marks[pi] = false
	}
	return out
}
