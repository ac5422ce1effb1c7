package linear

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"testing"

	"modelir/internal/canon"
)

func TestModelCanonicalRoundTrip(t *testing.T) {
	m := HPSRisk()
	enc := m.AppendCanonical(nil)
	r := canon.NewReader(enc)
	got, err := DecodeCanonical(r)
	if err != nil {
		t.Fatalf("DecodeCanonical: %v", err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("decode left %d bytes", r.Remaining())
	}
	if !bytes.Equal(got.AppendCanonical(nil), enc) {
		t.Fatal("re-encoded model differs from original encoding")
	}
	for n := 0; n < len(enc); n++ {
		if _, err := DecodeCanonical(canon.NewReader(enc[:n])); err == nil {
			t.Fatalf("decode of %d-byte prefix succeeded", n)
		}
	}
}

func TestDecomposeSpecRoundTrip(t *testing.T) {
	pm, err := Decompose(HPSRisk(),
		[]float64{0, 0, 0, 0}, []float64{255, 255, 255, 1500}, 2, 4)
	if err != nil {
		t.Fatalf("Decompose: %v", err)
	}
	enc := pm.AppendCanonical(nil)
	r := canon.NewReader(enc)
	rebuilt, err := DecodeProgressive(r)
	if err != nil {
		t.Fatalf("DecodeProgressive: %v", err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("decode left %d bytes", r.Remaining())
	}
	// The rebuilt decomposition must be bit-identical to the original:
	// same order, levels, and residual bounds.
	if !slices.Equal(rebuilt.order, pm.order) || !slices.Equal(rebuilt.levels, pm.levels) {
		t.Fatal("rebuilt decomposition differs from original")
	}
	for l := range pm.levels {
		if math.Float64bits(rebuilt.Resid(l)) != math.Float64bits(pm.Resid(l)) {
			t.Fatalf("level %d differs after rebuild", l)
		}
	}
	if !bytes.Equal(rebuilt.AppendCanonical(nil), enc) {
		t.Fatal("re-encoded decomposition differs from original encoding")
	}
	for n := 0; n < len(enc); n++ {
		if _, err := DecodeProgressive(canon.NewReader(enc[:n])); err == nil {
			t.Fatalf("decode of %d-byte prefix succeeded", n)
		}
	}
	// Inputs Decompose refuses are refused at decode, as ErrCorrupt.
	bad := append([]byte(nil), enc...)
	bad[len(bad)-1] = 3 // last level no longer covers all four terms
	if _, err := DecodeProgressive(canon.NewReader(bad)); !errors.Is(err, canon.ErrCorrupt) {
		t.Fatalf("invalid level plan: err = %v, want ErrCorrupt", err)
	}
}

// A structurally well-framed stream whose values violate model
// invariants (here: mismatched attr/coeff counts) must be rejected by
// the reconstruction path, not just by framing checks.
func TestDecodeCanonicalRejectsInvalidModel(t *testing.T) {
	b := []byte{'L', 'M'}
	b = canon.AppendUint(b, 1)
	b = canon.AppendString(b, "hr")
	b = canon.AppendFloats(b, []float64{1, 2}) // two coeffs, one attr
	b = canon.AppendFloat(b, 0)
	if _, err := DecodeCanonical(canon.NewReader(b)); !errors.Is(err, canon.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}
