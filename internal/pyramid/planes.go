// Plane export/import for the snapshot subsystem: a MultibandPyramid's
// serving state is exactly its flat cell-major levels (the descent
// reads nothing else), so a snapshot stores one plane per level and a
// restore rebuilds the pyramid planes-only — Grid bands materialize
// lazily only if an off-engine path asks for them.

package pyramid

import "fmt"

// Vals returns the level's backing plane for serialization. The slice
// aliases the level — treat it as read-only.
func (fl *FlatLevel) Vals() []float64 { return fl.vals }

// FlatFromVals reconstructs a FlatLevel around a restored plane,
// validating the geometry the hot accessors index by: a level of scale
// 1 holds one value per band and cell, any coarser level a min/max
// pair. vals is adopted, not copied (it may be mmap-backed).
func FlatFromVals(w, h, scale, bands int, vals []float64) (FlatLevel, error) {
	if w < 1 || h < 1 || bands < 1 || scale < 1 {
		return FlatLevel{}, fmt.Errorf("pyramid: flat level geometry %dx%d bands %d scale %d", w, h, bands, scale)
	}
	stride := 2
	if scale == 1 {
		stride = 1
	}
	// Each factor divides into the plane length, so the product below
	// cannot overflow when it matches.
	n := len(vals)
	if w > n || h > n/w || bands > n/(w*h) || stride*w*h*bands != n {
		return FlatLevel{}, fmt.Errorf("pyramid: flat level %dx%d bands %d scale %d: plane len %d", w, h, bands, scale, n)
	}
	return FlatLevel{W: w, H: h, Scale: scale, Bands: bands, stride: stride, vals: vals}, nil
}

// FromFlat reconstructs a MultibandPyramid from restored flat levels.
// Every level must carry len(names) bands, and the levels must form the
// chain BuildMultiband makes: level 0 at scale 1, each level above it
// half the size (rounded up) at twice the scale, stopping at the 1×1
// apex at the latest. Grid bands are left unmaterialized.
func FromFlat(names []string, levels []FlatLevel) (*MultibandPyramid, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("pyramid: no bands")
	}
	if len(levels) == 0 {
		return nil, ErrNoLevels
	}
	for l := range levels {
		fl := &levels[l]
		if fl.Bands != len(names) {
			return nil, fmt.Errorf("pyramid: level %d has %d bands, want %d", l, fl.Bands, len(names))
		}
		if l == 0 {
			if fl.Scale != 1 {
				return nil, fmt.Errorf("pyramid: level 0 has scale %d", fl.Scale)
			}
			continue
		}
		prev := &levels[l-1]
		if prev.W == 1 && prev.H == 1 {
			return nil, fmt.Errorf("pyramid: level %d lies above the 1x1 apex", l)
		}
		if fl.W != (prev.W+1)/2 || fl.H != (prev.H+1)/2 || fl.Scale != 2*prev.Scale {
			return nil, fmt.Errorf("pyramid: level %d is %dx%d at scale %d over %dx%d at scale %d",
				l, fl.W, fl.H, fl.Scale, prev.W, prev.H, prev.Scale)
		}
	}
	return &MultibandPyramid{names: append([]string(nil), names...), flat: levels}, nil
}
