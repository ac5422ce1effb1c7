// Canonical byte encodings of the linear models a request can embed.
// core's request codec writes them into the one request encoding that
// is both the result-cache key and the body of a cluster 'Q' frame, so
// every model type provides AppendCanonical: a deterministic, framed
// encoding (internal/canon) in which semantically different models
// never produce the same bytes. The decoders are exact inverses over a
// bounds-checked canon.Reader, validating as strictly as New and
// Decompose so a decoded model is indistinguishable from a locally
// constructed one.

package linear

import (
	"fmt"
	"math"

	"modelir/internal/canon"
)

// AppendCanonical appends the model's canonical encoding: attribute
// names, coefficients, and intercept.
func (m *Model) AppendCanonical(b []byte) []byte {
	b = append(b, 'L', 'M')
	b = canon.AppendUint(b, uint64(len(m.Attrs)))
	for _, a := range m.Attrs {
		b = canon.AppendString(b, a)
	}
	b = canon.AppendFloats(b, m.Coeffs)
	return canon.AppendFloat(b, m.Intercept)
}

// DecodeCanonical consumes one canonical model encoding from r and
// reconstructs the model through New, so every invariant a locally
// built model satisfies holds for a decoded one too. Finite-ness is
// not required (models with infinite or NaN coefficients were always
// constructible); only structural corruption is rejected.
func DecodeCanonical(r *canon.Reader) (*Model, error) {
	if err := r.Expect("LM"); err != nil {
		return nil, err
	}
	// Attribute names are at least a length prefix each.
	n, err := r.Count(8)
	if err != nil {
		return nil, err
	}
	attrs := make([]string, n)
	for i := range attrs {
		if attrs[i], err = r.String(); err != nil {
			return nil, err
		}
	}
	coeffs, err := r.Floats()
	if err != nil {
		return nil, err
	}
	intercept, err := r.Float()
	if err != nil {
		return nil, err
	}
	m, err := New(attrs, coeffs, intercept)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", canon.ErrCorrupt, err)
	}
	return m, nil
}

// AppendCanonical appends the decomposition's canonical encoding: the
// inputs to Decompose (model, attribute ranges, level term counts)
// rather than the decomposition itself. A remote node then never has to
// trust residual bounds computed elsewhere: DecodeProgressive re-runs
// Decompose, which is deterministic, so every node (and the single-node
// reference) builds the bit-identical ProgressiveModel. Two models with
// equal inputs share their bytes; the derived order and residuals add
// nothing a key could tell apart.
func (p *ProgressiveModel) AppendCanonical(b []byte) []byte {
	b = append(b, 'D', 'S')
	b = p.full.AppendCanonical(b)
	b = canon.AppendFloats(b, p.attrLo)
	b = canon.AppendFloats(b, p.attrHi)
	b = canon.AppendUint(b, uint64(len(p.levels)))
	for _, lt := range p.levels {
		b = canon.AppendUint(b, uint64(lt))
	}
	return b
}

// DecodeProgressive consumes one canonical decomposition encoding from
// r and rebuilds the model through Decompose, so a decoded model passes
// every check a locally built one does.
func DecodeProgressive(r *canon.Reader) (*ProgressiveModel, error) {
	if err := r.Expect("DS"); err != nil {
		return nil, err
	}
	m, err := DecodeCanonical(r)
	if err != nil {
		return nil, err
	}
	lo, err := r.Floats()
	if err != nil {
		return nil, err
	}
	hi, err := r.Floats()
	if err != nil {
		return nil, err
	}
	n, err := r.Count(8)
	if err != nil {
		return nil, err
	}
	levels := make([]int, n)
	for i := range levels {
		v, err := r.Uint()
		if err != nil {
			return nil, err
		}
		if v > math.MaxInt32 {
			return nil, canon.ErrCorrupt
		}
		levels[i] = int(v)
	}
	p, err := Decompose(m, lo, hi, levels...)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", canon.ErrCorrupt, err)
	}
	return p, nil
}
