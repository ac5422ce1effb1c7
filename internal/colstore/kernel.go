// Dimension-specialized scan kernels. The blocked scan spends almost
// all of its time in the dot-product body (w·x accumulated column by
// column into the block's score buffer), and the generic kernel pays a
// loop over columns with one full pass over the score buffer per
// column. For the dimensions the archives actually use (2, 4, 8, 16) a
// fully unrolled single-pass body keeps the accumulator in a register
// and touches each score element exactly once; every other dimension
// falls back to a 4-wide-unrolled body that processes columns in
// groups of four.
//
// Bit-identity contract: every kernel performs, per row, the exact
// same sequence of rounded operations as the generic reference —
// multiply by the column-d coefficient, then add, in ascending column
// order. Each term appears as the same `acc + c*v` shape in every
// kernel, so a compiler that contracts multiply-adds (arm64) contracts
// all kernels identically and blocked results stay bit-identical to
// the naive row scan on every architecture. The kernel is selected
// once per store (the dimension is fixed at build time), never per
// block.
package colstore

// kernelFunc scores rows [lo, hi) of cols into scores[0:hi-lo]:
// scores[i] = Σ_d w[d]·cols[d][lo+i].
type kernelFunc func(cols [][]float64, lo, hi int, w []float64, scores []float64)

// scanKernel picks the kernel ONE scan runs with: the store's
// dimension-selected body for dense weight vectors, or the sparse
// column-skipping body when any coefficient is zero — an unrolled
// kernel would pay a full multiply-add pass per zero column that the
// sparse body skips outright. Zero-coefficient terms contribute ±0,
// which never changes a score under ==, so both bodies return equal
// results (the pre-rewrite kernel was exactly the sparse shape).
func (s *Store) scanKernel(w []float64) kernelFunc {
	for _, c := range w {
		if c == 0 {
			return kernelSparse
		}
	}
	return s.kern
}

// kernelFor selects the scan kernel for a dimension.
func kernelFor(dim int) (kernelFunc, string) {
	switch dim {
	case 2:
		return kernelDim2, "dim2"
	case 4:
		return kernelDim4, "dim4"
	case 8:
		return kernelDim8, "dim8"
	case 16:
		return kernelDim16, "dim16"
	default:
		return kernelGeneric, "generic4"
	}
}

func kernelDim2(cols [][]float64, lo, hi int, w []float64, scores []float64) {
	n := hi - lo
	a := cols[0][lo:hi:hi]
	b := cols[1][lo:hi:hi]
	c0, c1 := w[0], w[1]
	for i := 0; i < n; i++ {
		s := c0 * a[i]
		s += c1 * b[i]
		scores[i] = s
	}
}

func kernelDim4(cols [][]float64, lo, hi int, w []float64, scores []float64) {
	n := hi - lo
	a := cols[0][lo:hi:hi]
	b := cols[1][lo:hi:hi]
	c := cols[2][lo:hi:hi]
	d := cols[3][lo:hi:hi]
	c0, c1, c2, c3 := w[0], w[1], w[2], w[3]
	for i := 0; i < n; i++ {
		s := c0 * a[i]
		s += c1 * b[i]
		s += c2 * c[i]
		s += c3 * d[i]
		scores[i] = s
	}
}

func kernelDim8(cols [][]float64, lo, hi int, w []float64, scores []float64) {
	n := hi - lo
	a := cols[0][lo:hi:hi]
	b := cols[1][lo:hi:hi]
	c := cols[2][lo:hi:hi]
	d := cols[3][lo:hi:hi]
	e := cols[4][lo:hi:hi]
	f := cols[5][lo:hi:hi]
	g := cols[6][lo:hi:hi]
	h := cols[7][lo:hi:hi]
	c0, c1, c2, c3 := w[0], w[1], w[2], w[3]
	c4, c5, c6, c7 := w[4], w[5], w[6], w[7]
	for i := 0; i < n; i++ {
		s := c0 * a[i]
		s += c1 * b[i]
		s += c2 * c[i]
		s += c3 * d[i]
		s += c4 * e[i]
		s += c5 * f[i]
		s += c6 * g[i]
		s += c7 * h[i]
		scores[i] = s
	}
}

func kernelDim16(cols [][]float64, lo, hi int, w []float64, scores []float64) {
	// Two unrolled 8-column halves; the second half re-loads the score
	// accumulator, which is exact (float64 stores do not round).
	kernelDim8(cols, lo, hi, w, scores)
	n := hi - lo
	a := cols[8][lo:hi:hi]
	b := cols[9][lo:hi:hi]
	c := cols[10][lo:hi:hi]
	d := cols[11][lo:hi:hi]
	e := cols[12][lo:hi:hi]
	f := cols[13][lo:hi:hi]
	g := cols[14][lo:hi:hi]
	h := cols[15][lo:hi:hi]
	c8, c9, c10, c11 := w[8], w[9], w[10], w[11]
	c12, c13, c14, c15 := w[12], w[13], w[14], w[15]
	for i := 0; i < n; i++ {
		s := scores[i]
		s += c8 * a[i]
		s += c9 * b[i]
		s += c10 * c[i]
		s += c11 * d[i]
		s += c12 * e[i]
		s += c13 * f[i]
		s += c14 * g[i]
		s += c15 * h[i]
		scores[i] = s
	}
}

// kernelGeneric is the fallback for dimensions without an unrolled
// body: the first group of up to four columns initializes the score
// buffer, then further columns accumulate in groups of four (one score
// pass per group instead of one per column), with a tail of single
// columns. Term order is ascending column order throughout.
func kernelGeneric(cols [][]float64, lo, hi int, w []float64, scores []float64) {
	n := hi - lo
	dim := len(w)
	// Initialize from the first 1..4 columns.
	switch {
	case dim >= 4:
		a := cols[0][lo:hi:hi]
		b := cols[1][lo:hi:hi]
		c := cols[2][lo:hi:hi]
		d := cols[3][lo:hi:hi]
		c0, c1, c2, c3 := w[0], w[1], w[2], w[3]
		for i := 0; i < n; i++ {
			s := c0 * a[i]
			s += c1 * b[i]
			s += c2 * c[i]
			s += c3 * d[i]
			scores[i] = s
		}
	case dim == 3:
		a := cols[0][lo:hi:hi]
		b := cols[1][lo:hi:hi]
		c := cols[2][lo:hi:hi]
		c0, c1, c2 := w[0], w[1], w[2]
		for i := 0; i < n; i++ {
			s := c0 * a[i]
			s += c1 * b[i]
			s += c2 * c[i]
			scores[i] = s
		}
	case dim == 2:
		kernelDim2(cols, lo, hi, w, scores)
		return
	default: // dim == 1
		a := cols[0][lo:hi:hi]
		c0 := w[0]
		for i := 0; i < n; i++ {
			scores[i] = c0 * a[i]
		}
		return
	}
	// Accumulate remaining columns four at a time.
	d4 := 4
	for ; d4+4 <= dim; d4 += 4 {
		a := cols[d4][lo:hi:hi]
		b := cols[d4+1][lo:hi:hi]
		c := cols[d4+2][lo:hi:hi]
		d := cols[d4+3][lo:hi:hi]
		c0, c1, c2, c3 := w[d4], w[d4+1], w[d4+2], w[d4+3]
		for i := 0; i < n; i++ {
			s := scores[i]
			s += c0 * a[i]
			s += c1 * b[i]
			s += c2 * c[i]
			s += c3 * d[i]
			scores[i] = s
		}
	}
	// Tail: remaining 1..3 columns, one pass each.
	for ; d4 < dim; d4++ {
		col := cols[d4][lo:hi:hi]
		c := w[d4]
		for i := 0; i < n; i++ {
			scores[i] += c * col[i]
		}
	}
}

// kernelSparse is the zero-skipping per-column body (the pre-rewrite
// kernel): one pass per NON-ZERO column. It wins whenever the weight
// vector has zero coefficients — a sparse model over a wide store
// pays only for its live columns.
func kernelSparse(cols [][]float64, lo, hi int, w []float64, scores []float64) {
	n := hi - lo
	c0 := w[0]
	col := cols[0][lo:hi:hi]
	for i := 0; i < n; i++ {
		scores[i] = c0 * col[i]
	}
	for d := 1; d < len(w); d++ {
		c := w[d]
		if c == 0 {
			continue
		}
		col := cols[d][lo:hi:hi]
		for i := 0; i < n; i++ {
			scores[i] += c * col[i]
		}
	}
}
