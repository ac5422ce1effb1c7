// Package colstore provides the columnar (struct-of-arrays) tuple
// storage behind the engine's linear-scan hot path. Rows are stored as
// one flat []float64 per attribute — no per-row allocation, no pointer
// chase — partitioned into fixed-size blocks that carry zone maps:
// per-block min/max per attribute plus the block's largest Euclidean
// norm. A linear top-K scan upper-bounds each block from its zone map
// against the model's signed coefficients (box bound) and the weight
// norm (Cauchy-Schwarz bound), scores blocks best-first by that bound
// (BlockQueue, across any number of stores), and stops at the first
// block whose bound falls strictly below the current screening floor —
// the same strict-inequality rule the shared bound uses, so blocked and
// unblocked scans return bit-identical top-K sets.
//
// Stores are segmented: a segment is a row range blocks never span
// (the Onion index stores one segment per layer; an engine tuple shard
// is one segment). Within a segment, rows are ordered by descending
// Euclidean norm (ties: ascending id), which clusters strong
// candidates into a few blocks with high norm bounds and lets the norm
// bound prune the low-norm tail wholesale — scan order never changes a
// top-K result, only how early the floor rises.
//
// The scan kernel is allocation-free in steady state: block scores
// land in a pooled scratch buffer, and cancellation/budget charges are
// per block, not per row.
package colstore

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"modelir/internal/topk"
)

// DefaultBlockRows is the block size used when Options.BlockRows is 0.
// 1024 rows × 8 bytes keeps one column's block inside L1 while giving
// zone maps enough granularity to prune.
const DefaultBlockRows = 1024

// Options tunes store construction.
type Options struct {
	// BlockRows is the zone-map block size; 0 means DefaultBlockRows.
	BlockRows int
}

func (o *Options) applyDefaults() {
	if o.BlockRows < 1 {
		o.BlockRows = DefaultBlockRows
	}
}

// Store is an immutable columnar point set. Construct with Build or
// BuildSegmented.
type Store struct {
	dim  int
	rows int

	// ids maps a storage row to the caller's id for that point (the
	// original slice index in Build; whatever the segment lists carried
	// in BuildSegmented).
	ids []int64
	// flat backs every column in one allocation; cols[d] is the
	// column view flat[d*rows : (d+1)*rows].
	flat []float64
	cols [][]float64

	// Blocks are contiguous row ranges; blockStart has one extra entry
	// so block b spans rows [blockStart[b], blockStart[b+1]).
	blockStart []int
	// zoneLo/zoneHi are the per-block per-dimension bounds, stride dim.
	zoneLo, zoneHi []float64
	// zoneNorm[b] is the largest Euclidean norm among block b's rows.
	zoneNorm []float64

	// Segments: segStart row offsets (len nSegs+1) and segBlock block
	// offsets (len nSegs+1); blocks never span segment boundaries.
	segStart []int
	segBlock []int

	// maxBlock is the largest block's row count — the scratch size one
	// scan needs, fixed at build time.
	maxBlock int

	// kern is the dot-product kernel every scan of this store uses,
	// selected once at build time from the (fixed) dimension; kernName
	// labels it for tests and benchmark names.
	kern     kernelFunc
	kernName string
}

// ErrRows is wrapped by every refusal of a point set a store cannot
// hold: empty, zero-width, ragged or non-finite.
var ErrRows = errors.New("colstore: unstorable rows")

// Check refuses, in one pass and without building, exactly the point
// sets Build refuses: an empty set, zero-width rows, a row whose width
// differs from the first row's, or a non-finite coordinate. The error
// wraps ErrRows.
func Check(points [][]float64) error {
	if len(points) == 0 {
		return fmt.Errorf("%w: empty point set", ErrRows)
	}
	dim := len(points[0])
	if dim < 1 {
		return fmt.Errorf("%w: zero-dimensional points", ErrRows)
	}
	for i, p := range points {
		if len(p) != dim {
			return fmt.Errorf("%w: point %d has dim %d, want %d", ErrRows, i, len(p), dim)
		}
		for _, v := range p {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%w: point %d has non-finite coordinate", ErrRows, i)
			}
		}
	}
	return nil
}

// Build constructs a single-segment store over the given rows with ids
// 0..n-1. Rows are copied into the columnar layout; the input is not
// retained. All coordinates must be finite (zone maps are meaningless
// otherwise); callers that validated already pay nothing extra because
// the check rides the copy loop.
func Build(points [][]float64, opt Options) (*Store, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("%w: empty point set", ErrRows)
	}
	seg := make([]int, len(points))
	for i := range seg {
		seg[i] = i
	}
	return BuildSegmented(points, [][]int{seg}, opt)
}

// BuildSegmented constructs a store whose segments list rows by their
// index into points (the listed index becomes the row's id). Every
// point index must appear at most once across all segments; segments
// must be non-empty.
func BuildSegmented(points [][]float64, segments [][]int, opt Options) (*Store, error) {
	opt.applyDefaults()
	if len(points) == 0 {
		return nil, fmt.Errorf("%w: empty point set", ErrRows)
	}
	if len(segments) == 0 {
		return nil, errors.New("colstore: no segments")
	}
	dim := len(points[0])
	if dim < 1 {
		return nil, fmt.Errorf("%w: zero-dimensional points", ErrRows)
	}
	total := 0
	for si, seg := range segments {
		if len(seg) == 0 {
			return nil, fmt.Errorf("colstore: segment %d is empty", si)
		}
		total += len(seg)
	}

	s := &Store{
		dim:      dim,
		rows:     total,
		ids:      make([]int64, 0, total),
		flat:     make([]float64, dim*total),
		segStart: make([]int, 1, len(segments)+1),
		segBlock: make([]int, 1, len(segments)+1),
	}
	s.kern, s.kernName = kernelFor(dim)
	s.cols = make([][]float64, dim)
	for d := 0; d < dim; d++ {
		s.cols[d] = s.flat[d*total : (d+1)*total]
	}

	// Row order within a segment: by descending norm. High-norm rows
	// fill the heap early and the per-block norm bound then eliminates
	// the low-norm tail block by block.
	ptNorm := make([]float64, len(points))
	for i, p := range points {
		ptNorm[i] = normOf(p)
	}
	order := make([]int, 0, total)
	for _, seg := range segments {
		start := len(order)
		order = append(order, seg...)
		part := order[start:]
		for _, pi := range part {
			if pi < 0 || pi >= len(points) {
				return nil, fmt.Errorf("colstore: segment row %d out of range", pi)
			}
		}
		sort.Slice(part, func(a, b int) bool {
			na, nb := ptNorm[part[a]], ptNorm[part[b]]
			if na != nb {
				return na > nb
			}
			return part[a] < part[b]
		})
		s.segStart = append(s.segStart, len(order))
	}

	for r, pi := range order {
		p := points[pi]
		if len(p) != dim {
			return nil, fmt.Errorf("%w: point %d has dim %d, want %d", ErrRows, pi, len(p), dim)
		}
		for d, v := range p {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("%w: point %d has non-finite coordinate", ErrRows, pi)
			}
			s.cols[d][r] = v
		}
		s.ids = append(s.ids, int64(pi))
	}

	// Blocks: fixed-size runs that restart at every segment boundary.
	for si := 0; si < len(segments); si++ {
		lo, hi := s.segStart[si], s.segStart[si+1]
		for b := lo; b < hi; b += opt.BlockRows {
			s.blockStart = append(s.blockStart, b)
		}
		s.segBlock = append(s.segBlock, len(s.blockStart))
	}
	s.blockStart = append(s.blockStart, total)

	nb := len(s.blockStart) - 1
	s.zoneLo = make([]float64, nb*dim)
	s.zoneHi = make([]float64, nb*dim)
	s.zoneNorm = make([]float64, nb)
	for b := 0; b < nb; b++ {
		lo, hi := s.blockStart[b], s.blockStart[b+1]
		zl, zh := s.zoneLo[b*dim:(b+1)*dim], s.zoneHi[b*dim:(b+1)*dim]
		for d := 0; d < dim; d++ {
			zl[d] = math.Inf(1)
			zh[d] = math.Inf(-1)
		}
		maxNorm := 0.0
		for r := lo; r < hi; r++ {
			for d := 0; d < dim; d++ {
				v := s.cols[d][r]
				if v < zl[d] {
					zl[d] = v
				}
				if v > zh[d] {
					zh[d] = v
				}
			}
			if n := ptNorm[order[r]]; n > maxNorm {
				maxNorm = n
			}
		}
		s.zoneNorm[b] = maxNorm
		if rows := hi - lo; rows > s.maxBlock {
			s.maxBlock = rows
		}
	}
	return s, nil
}

func normOf(p []float64) float64 {
	sq := 0.0
	for _, v := range p {
		sq += v * v
	}
	return math.Sqrt(sq)
}

// Dim returns the attribute count.
func (s *Store) Dim() int { return s.dim }

// NumRows returns the stored row count.
func (s *Store) NumRows() int { return s.rows }

// NumSegments returns the segment count.
func (s *Store) NumSegments() int { return len(s.segStart) - 1 }

// SegmentLen returns the number of rows in segment si.
func (s *Store) SegmentLen(si int) int { return s.segStart[si+1] - s.segStart[si] }

// NumBlocks returns the zone-map block count.
func (s *Store) NumBlocks() int { return len(s.blockStart) - 1 }

// ID returns the caller id of storage row r.
func (s *Store) ID(r int) int64 { return s.ids[r] }

// At returns the value of attribute d at storage row r.
func (s *Store) At(r, d int) float64 { return s.cols[d][r] }

// WeightNorm returns the Euclidean norm of w — the scan's
// Cauchy-Schwarz factor, computed once per query.
func WeightNorm(w []float64) float64 {
	sq := 0.0
	for _, v := range w {
		sq += v * v
	}
	return math.Sqrt(sq)
}

// Stats counts one scan's work at row and block granularity.
type Stats struct {
	// RowsScored counts rows whose score was actually computed.
	RowsScored int
	// RowsZonePruned counts rows skipped because their whole block's
	// zone-map bound fell strictly below the screening floor.
	RowsZonePruned int
	// BlocksZonePruned counts the skipped blocks themselves.
	BlocksZonePruned int
	// RowsSkippedByBudget counts rows left unscanned because the work
	// meter ran out mid-scan.
	RowsSkippedByBudget int
}

// scratch is the pooled per-scan block score buffer.
type scratch struct {
	scores []float64
}

var scratchPool = sync.Pool{New: func() any { return &scratch{} }}

func getScratch(n int) *scratch {
	sc := scratchPool.Get().(*scratch)
	if cap(sc.scores) < n {
		sc.scores = make([]float64, n)
	}
	return sc
}

func putScratch(sc *scratch) { scratchPool.Put(sc) }

// blockBound upper-bounds w·x over block b: the tighter of the zone
// box bound (signed coefficient against the matching extreme) and the
// Cauchy-Schwarz norm bound |w|·max|x|. The box bound adds its terms in
// the kernels' order, so by monotone rounding it is at least every
// row's rounded score. The norm bound is not: for a row parallel to w,
// sqrt(18)·sqrt(18) rounds to 17.999999999999996 against a score of
// exactly 18. It is widened by (4·dim+16)·2^-53, against a worst case
// near (2·dim+5)·2^-53 for the rounding of both norms, their product
// and the row's dot product.
func (s *Store) blockBound(b int, w []float64, wNorm float64) float64 {
	zl, zh := s.zoneLo[b*s.dim:], s.zoneHi[b*s.dim:]
	box := 0.0
	for d, wd := range w {
		if wd >= 0 {
			box += wd * zh[d]
		} else {
			box += wd * zl[d]
		}
	}
	if nb := wNorm * s.zoneNorm[b] * (1 + float64(4*s.dim+16)*0x1p-53); nb < box {
		return nb
	}
	return box
}

// ScanSegment scores segment si's rows into h, block by block. Before
// each block it reads the cross-shard bound sb once and skips the block
// when its zone-map bound is strictly below the screening floor
// (topk.Floor: the local heap's threshold once full, lifted to sb); a
// tied bound still scans, since the tied row can win the smaller-id
// tie-break. Inside a scored block the same floor screens every row
// before it reaches h (see scoreBlock). After each scored block the
// heap threshold is re-published to sb, the meter is charged the
// block's rows, and the next block gates on Meter exhaustion,
// attributing the unscanned remainder of the segment to the budget.
//
// The returned segMax upper-bounds the segment's true maximum score:
// it is exact when every block was scored, and stands in the skipped
// blocks' zone bounds otherwise — callers using it as a deeper-layer
// bound (the Onion convex rule) stay sound either way. exhausted
// reports a mid-segment budget stop.
func (s *Store) ScanSegment(si int, w []float64, wNorm float64, h *topk.Heap, sb *topk.Bound, meter *topk.Meter, st *Stats) (segMax float64, exhausted bool) {
	sc := getScratch(s.maxBlock)
	kern := s.scanKernel(w)
	segMax = math.Inf(-1)
	for b := s.segBlock[si]; b < s.segBlock[si+1]; b++ {
		lo, hi := s.blockStart[b], s.blockStart[b+1]
		if meter.Exhausted() {
			st.RowsSkippedByBudget += s.segStart[si+1] - lo
			putScratch(sc)
			return segMax, true
		}
		shared := sb.Get()
		if bound := s.blockBound(b, w, wNorm); bound < topk.Floor(h, shared) {
			// Strictly below the floor: no row here can enter the
			// merged top-K, but the bound still owes segMax its vote.
			if bound > segMax {
				segMax = bound
			}
			st.BlocksZonePruned++
			st.RowsZonePruned += hi - lo
			continue
		}
		// The block's scores are still in the scratch: their max is the
		// segment's vote, which only this Onion path reads.
		scores := sc.scores[:hi-lo]
		s.scoreBlock(kern, lo, hi, w, 0, h, shared, scores)
		for _, v := range scores {
			if v > segMax {
				segMax = v
			}
		}
		st.RowsScored += hi - lo
		meter.Charge(hi - lo)
		if t, ok := h.Threshold(); ok {
			sb.Raise(t)
		}
	}
	putScratch(sc)
	return segMax, false
}

// Scan scores the store into h best-first: it is the one-store case of
// the BlockQueue loop, popping the block with the highest zone bound
// and stopping at the first block whose bound is strictly below
// topk.Floor(h, sb.Get()). After each block the heap threshold is
// published to sb. done, when non-nil, is polled once per block; a fired
// done stops the scan and reports cancelled (the caller maps it back to
// its context error). exhausted reports that the meter ran out with
// rows still queued.
func (s *Store) Scan(w []float64, wNorm float64, h *topk.Heap, sb *topk.Bound, meter *topk.Meter, done <-chan struct{}, st *Stats) (cancelled, exhausted bool) {
	q := GetBlockQueue(w, wNorm, meter)
	defer q.Release()
	q.Add(s, 0)
	defer func() { st.add(q.st) }()
	for {
		if done != nil {
			select {
			case <-done:
				return true, false
			default:
			}
		}
		unit, ok := q.Pop(topk.Floor(h, sb.Get()))
		if !ok {
			return false, q.st.RowsSkippedByBudget > 0
		}
		q.Run(unit, h, sb)
		if t, ok := h.Threshold(); ok {
			sb.Raise(t)
		}
	}
}

// scoreBlock runs the scan's selected dot-product kernel over the
// block (see kernel.go) and offers each score that is not strictly
// below the scan's floor — topk.Floor over h and shared, the bound
// reading the block gate took. A row under the floor loses to K items
// already retained here or published by a sibling, so it cannot reach
// the merged top-K and never costs a heap operation; a tied row is
// offered, since its smaller id can still win. The floor only rises, so
// the local part is refreshed only after an offer h accepts. The
// block's scores stay in scores, where ScanSegment reads their maximum.
func (s *Store) scoreBlock(kern kernelFunc, lo, hi int, w []float64, offset int64, h *topk.Heap, shared float64, scores []float64) {
	kern(s.cols, lo, hi, w, scores)
	floor := topk.Floor(h, shared)
	for i, v := range scores {
		if v < floor {
			continue
		}
		if h.OfferScore(s.ids[lo+i]+offset, v) {
			floor = topk.Floor(h, shared)
		}
	}
}
