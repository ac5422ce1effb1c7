// Columnar pyramid storage. A FlatLevel holds one pyramid level of
// every band in ONE allocation, cell-major, and stores only what the
// scene descent reads from that level:
//
//	level 0:   vals[(y*W+x)*Bands + b]              the cell's value
//	level ≥ 1: vals[((y*W+x)*Bands + b)*2 + plane]  plane: 0=min 1=max
//
// The descent bounds coarse cells by their min/max envelopes and reads
// values only at full resolution, so a coarse mean is never stored and
// level 0 stores its value once: the envelope of a single cell is the
// cell itself, lo = hi = value. The whole envelope of a cell — all
// bands, both bounds — sits in one or two cache lines, read with a
// single base computation. Cells are row-major blocks of the level
// below: each level-l cell IS the zone map (min/max box) of the 2×2
// block of level-(l-1) cells it covers, which is exactly what the
// descent's interval bound consumes to prune a whole tile block before
// touching its pixels.
//
// Envelopes are computed with downMin/downMax's comparisons in their
// order, so every bound and every pixel score computed through the flat
// view is bit-identical to the Grid pyramid Build makes.
package pyramid

import "math"

// FlatLevel is one pyramid level across all bands in a single
// cell-major allocation. See the package comment in flat.go for the
// layout.
type FlatLevel struct {
	// W, H are the level's cell grid dimensions; Scale is the linear
	// downsampling factor relative to level 0.
	W, H, Scale int
	// Bands is the band count.
	Bands int
	// stride is the values stored per band and cell: 1 at level 0
	// (the value), 2 above it (min, max).
	stride int
	vals   []float64
}

// Envelope fills lo[i], hi[i] with the min/max envelope of model
// attribute i (bound to band bands[i]) at cell (x, y). Callers must
// pass in-bounds coordinates; this is the descent's hot bound path.
func (fl *FlatLevel) Envelope(x, y int, bands []int, lo, hi []float64) {
	n := fl.Bands * fl.stride
	base := (y*fl.W + x) * n
	v := fl.vals[base : base+n : base+n]
	if fl.stride == 1 {
		for i, b := range bands {
			lo[i], hi[i] = v[b], v[b]
		}
		return
	}
	for i, b := range bands {
		lo[i] = v[2*b]
		hi[i] = v[2*b+1]
	}
}

// Means fills dst[i] with the value of band bands[i] at cell (x, y) of
// level 0 — the pixel-evaluation read. Coarser levels store no means.
func (fl *FlatLevel) Means(x, y int, bands []int, dst []float64) {
	base := (y*fl.W + x) * fl.Bands
	v := fl.vals[base : base+fl.Bands : base+fl.Bands]
	for i, b := range bands {
		dst[i] = v[b]
	}
}

// Bounds returns the min/max envelope of band b at cell (x, y).
func (fl *FlatLevel) Bounds(x, y, b int) (lo, hi float64) {
	o := ((y*fl.W+x)*fl.Bands + b) * fl.stride
	return fl.vals[o], fl.vals[o+fl.stride-1]
}

// downEnvelope builds the level above src: each cell's min/max over the
// 2×2 block of src cells it covers, per band, comparing the children in
// downMin/downMax's order.
func downEnvelope(src *FlatLevel) FlatLevel {
	nw, nh, nb := (src.W+1)/2, (src.H+1)/2, src.Bands
	dst := FlatLevel{W: nw, H: nh, Scale: src.Scale * 2, Bands: nb, stride: 2,
		vals: make([]float64, nw*nh*nb*2)}
	for y := 0; y < nh; y++ {
		for x := 0; x < nw; x++ {
			d := dst.vals[(y*nw+x)*nb*2:][:nb*2]
			for b := 0; b < nb; b++ {
				d[2*b], d[2*b+1] = math.Inf(1), math.Inf(-1)
			}
			for dy := 0; dy < 2; dy++ {
				for dx := 0; dx < 2; dx++ {
					sx, sy := 2*x+dx, 2*y+dy
					if sx >= src.W || sy >= src.H {
						continue
					}
					for b := 0; b < nb; b++ {
						lo, hi := src.Bounds(sx, sy, b)
						if lo < d[2*b] {
							d[2*b] = lo
						}
						if hi > d[2*b+1] {
							d[2*b+1] = hi
						}
					}
				}
			}
		}
	}
	return dst
}

// Flat returns the columnar view of level l, shared read-only by every
// query.
func (mp *MultibandPyramid) Flat(l int) *FlatLevel { return &mp.flat[l] }
