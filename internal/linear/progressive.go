package linear

import (
	"errors"
	"fmt"
)

// ProgressiveModel is a linear model decomposed into nested coarse-to-fine
// sub-models per Section 3.1: level 0 evaluates only the highest-
// contribution terms, later levels add terms in decreasing contribution
// order, and the final level is the exact model. Each level carries a
// sound residual bound — the largest absolute value the omitted terms can
// contribute given per-attribute bounds — so a coarse evaluation brackets
// the exact value:
//
//	exact ∈ [coarse − Resid(level), coarse + Resid(level)]
//
// That bracket is what lets the retrieval engine prune candidates with
// cheap sub-models without ever returning a wrong top-K result.
type ProgressiveModel struct {
	full *Model
	// order[i] is the index (into full.Coeffs) of the i-th most
	// contributing term.
	order []int
	// levels[l] = number of leading terms evaluated at level l.
	levels []int
	// resid[l] = max absolute contribution of terms omitted at level l.
	resid []float64
	// attrLo/attrHi retain the Decompose inputs: the canonical
	// encoding is those inputs, re-derived on decode.
	attrLo, attrHi []float64
}

// Decompose builds a ProgressiveModel with the given per-level term counts
// (ascending; last entry must equal NumTerms). attrLo/attrHi bound each
// attribute's value range in the archive; they determine both the
// contribution order (|coeff|·span) and the sound residual bounds.
//
// Example: Decompose(m, lo, hi, 2, 4) yields a 2-level model: the 2-term
// coarse HPS model R* from the paper, then the exact 4-term model.
func Decompose(m *Model, attrLo, attrHi []float64, levelTerms ...int) (*ProgressiveModel, error) {
	if m == nil || len(m.Coeffs) == 0 {
		return nil, ErrEmptyModel
	}
	d := len(m.Coeffs)
	if len(attrLo) != d || len(attrHi) != d {
		return nil, ErrDimension
	}
	for i := range attrLo {
		if attrHi[i] < attrLo[i] {
			return nil, fmt.Errorf("linear: attribute %d range [%v,%v] empty", i, attrLo[i], attrHi[i])
		}
	}
	if len(levelTerms) == 0 {
		return nil, errors.New("linear: no levels specified")
	}
	prev := 0
	for _, n := range levelTerms {
		if n <= prev || n > d {
			return nil, fmt.Errorf("linear: level term counts must be strictly ascending in (0,%d], got %v", d, levelTerms)
		}
		prev = n
	}
	if levelTerms[len(levelTerms)-1] != d {
		return nil, fmt.Errorf("linear: last level must evaluate all %d terms", d)
	}

	spans := make([]float64, d)
	for i := range spans {
		spans[i] = attrHi[i] - attrLo[i]
	}
	contribs, err := m.Contributions(spans)
	if err != nil {
		return nil, err
	}
	order := make([]int, d)
	for i, c := range contribs {
		order[i] = c.Index
	}

	// maxAbs[i] = max |c_i · x| over the attribute range.
	maxAbs := make([]float64, d)
	for i, c := range m.Coeffs {
		a, b := c*attrLo[i], c*attrHi[i]
		if a < 0 {
			a = -a
		}
		if b < 0 {
			b = -b
		}
		if b > a {
			a = b
		}
		maxAbs[i] = a
	}

	resid := make([]float64, len(levelTerms))
	for l, n := range levelTerms {
		var r float64
		for _, idx := range order[n:] {
			r += maxAbs[idx]
		}
		resid[l] = r
	}

	lv := make([]int, len(levelTerms))
	copy(lv, levelTerms)
	return &ProgressiveModel{
		full:   m,
		order:  order,
		levels: lv,
		resid:  resid,
		attrLo: append([]float64(nil), attrLo...),
		attrHi: append([]float64(nil), attrHi...),
	}, nil
}

// Full returns the exact underlying model.
func (p *ProgressiveModel) Full() *Model { return p.full }

// Resid returns the sound residual bound at level l: the exact model value
// differs from EvalLevelUnchecked(l, x) by at most this much.
func (p *ProgressiveModel) Resid(l int) float64 { return p.resid[l] }

// EvalLevelUnchecked computes the level-l approximation for input x
// (full-length attribute vector; omitted terms are simply skipped),
// without validating l or len(x): the hot-loop form.
func (p *ProgressiveModel) EvalLevelUnchecked(l int, x []float64) float64 {
	s := p.full.Intercept
	for _, idx := range p.order[:p.levels[l]] {
		s += p.full.Coeffs[idx] * x[idx]
	}
	return s
}

// CostAt returns the per-evaluation cost (number of multiply-adds) at
// level l — the paper's "n" in the O(nN) complexity discussion. The
// effective model complexity-reduction ratio pm follows from how many
// candidates each level touches.
func (p *ProgressiveModel) CostAt(l int) int { return p.levels[l] }
