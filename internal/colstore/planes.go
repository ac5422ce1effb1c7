// Plane export/import: the snapshot subsystem (internal/segment)
// serializes a Store as its backing arrays and reconstructs it without
// re-running Build — restoring a store is a handful of slice headers
// plus invariant checks, never a re-sort or zone-map recomputation.

package colstore

import (
	"fmt"
)

// Planes is the complete serializable state of a Store: every backing
// array plus the two scalars (dim, rows) the views derive from. The
// slices alias the store's internals — treat them as read-only.
type Planes struct {
	Dim  int
	Rows int

	IDs  []int64
	Flat []float64 // column-major: column d is Flat[d*Rows:(d+1)*Rows]

	BlockStart []int // len nBlocks+1
	ZoneLo     []float64
	ZoneHi     []float64
	ZoneNorm   []float64

	SegStart []int // len nSegs+1
	SegBlock []int // len nSegs+1
}

// Planes returns the store's backing arrays for serialization. The
// returned slices alias the store; callers must not mutate them.
func (s *Store) Planes() Planes {
	return Planes{
		Dim:        s.dim,
		Rows:       s.rows,
		IDs:        s.ids,
		Flat:       s.flat,
		BlockStart: s.blockStart,
		ZoneLo:     s.zoneLo,
		ZoneHi:     s.zoneHi,
		ZoneNorm:   s.zoneNorm,
		SegStart:   s.segStart,
		SegBlock:   s.segBlock,
	}
}

// FromPlanes reconstructs a Store around previously exported planes.
// The slices are adopted, not copied (they may be mmap-backed and
// read-only), so every structural invariant a scan relies on is
// validated here: a corrupted-but-well-framed snapshot must fail
// loudly, never index out of bounds mid-query.
func FromPlanes(p Planes) (*Store, error) {
	if p.Dim < 1 {
		return nil, fmt.Errorf("colstore: planes: dim %d", p.Dim)
	}
	if p.Rows < 1 {
		return nil, fmt.Errorf("colstore: planes: rows %d", p.Rows)
	}
	if len(p.IDs) != p.Rows {
		return nil, fmt.Errorf("colstore: planes: %d ids for %d rows", len(p.IDs), p.Rows)
	}
	if len(p.Flat) != p.Dim*p.Rows {
		return nil, fmt.Errorf("colstore: planes: flat len %d, want %d", len(p.Flat), p.Dim*p.Rows)
	}
	if len(p.BlockStart) < 2 || p.BlockStart[0] != 0 || p.BlockStart[len(p.BlockStart)-1] != p.Rows {
		return nil, fmt.Errorf("colstore: planes: malformed block starts")
	}
	nb := len(p.BlockStart) - 1
	for b := 0; b < nb; b++ {
		if p.BlockStart[b] >= p.BlockStart[b+1] {
			return nil, fmt.Errorf("colstore: planes: block %d empty or decreasing", b)
		}
	}
	if len(p.ZoneLo) != nb*p.Dim || len(p.ZoneHi) != nb*p.Dim || len(p.ZoneNorm) != nb {
		return nil, fmt.Errorf("colstore: planes: zone-map sizes do not match %d blocks × dim %d", nb, p.Dim)
	}
	if len(p.SegStart) < 2 || len(p.SegBlock) != len(p.SegStart) {
		return nil, fmt.Errorf("colstore: planes: malformed segment table")
	}
	ns := len(p.SegStart) - 1
	if p.SegStart[0] != 0 || p.SegStart[ns] != p.Rows || p.SegBlock[0] != 0 || p.SegBlock[ns] != nb {
		return nil, fmt.Errorf("colstore: planes: segment table does not cover the store")
	}
	for si := 0; si < ns; si++ {
		if p.SegStart[si] >= p.SegStart[si+1] || p.SegBlock[si] >= p.SegBlock[si+1] {
			return nil, fmt.Errorf("colstore: planes: segment %d empty or decreasing", si)
		}
		// Blocks must not span segment boundaries: the block that the
		// segment's block range starts at must start at the segment's
		// first row.
		if p.BlockStart[p.SegBlock[si]] != p.SegStart[si] {
			return nil, fmt.Errorf("colstore: planes: segment %d blocks misaligned", si)
		}
	}

	s := &Store{
		dim:        p.Dim,
		rows:       p.Rows,
		ids:        p.IDs,
		flat:       p.Flat,
		blockStart: p.BlockStart,
		zoneLo:     p.ZoneLo,
		zoneHi:     p.ZoneHi,
		zoneNorm:   p.ZoneNorm,
		segStart:   p.SegStart,
		segBlock:   p.SegBlock,
	}
	s.kern, s.kernName = kernelFor(p.Dim)
	s.cols = make([][]float64, p.Dim)
	for d := 0; d < p.Dim; d++ {
		s.cols[d] = p.Flat[d*p.Rows : (d+1)*p.Rows]
	}
	for b := 0; b < nb; b++ {
		if r := p.BlockStart[b+1] - p.BlockStart[b]; r > s.maxBlock {
			s.maxBlock = r
		}
	}
	return s, nil
}
