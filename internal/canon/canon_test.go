package canon

import (
	"errors"
	"math"
	"testing"
)

func TestReaderRoundTrip(t *testing.T) {
	var b []byte
	b = AppendUint(b, 0)
	b = AppendUint(b, math.MaxUint64)
	b = AppendFloat(b, math.Inf(-1))
	b = AppendFloat(b, -0.0)
	b = AppendString(b, "")
	b = AppendString(b, "hanta pulmonary syndrome")
	b = AppendFloats(b, nil)
	b = AppendFloats(b, []float64{1.5, -2.25, math.NaN()})

	r := NewReader(b)
	if v, err := r.Uint(); err != nil || v != 0 {
		t.Fatalf("Uint = %d, %v", v, err)
	}
	if v, err := r.Uint(); err != nil || v != math.MaxUint64 {
		t.Fatalf("Uint = %d, %v", v, err)
	}
	if v, err := r.Float(); err != nil || !math.IsInf(v, -1) {
		t.Fatalf("Float = %v, %v", v, err)
	}
	if v, err := r.Float(); err != nil || math.Float64bits(v) != math.Float64bits(-0.0) {
		t.Fatalf("Float -0 = %v, %v", v, err)
	}
	if s, err := r.String(); err != nil || s != "" {
		t.Fatalf("String = %q, %v", s, err)
	}
	if s, err := r.String(); err != nil || s != "hanta pulmonary syndrome" {
		t.Fatalf("String = %q, %v", s, err)
	}
	if fs, err := r.Floats(); err != nil || len(fs) != 0 {
		t.Fatalf("Floats = %v, %v", fs, err)
	}
	fs, err := r.Floats()
	if err != nil || len(fs) != 3 || fs[0] != 1.5 || fs[1] != -2.25 || !math.IsNaN(fs[2]) {
		t.Fatalf("Floats = %v, %v", fs, err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("Remaining = %d after full decode", r.Remaining())
	}
}

func TestReaderExpect(t *testing.T) {
	r := NewReader([]byte("LMxx"))
	if err := r.Expect("LM"); err != nil {
		t.Fatalf("Expect(LM) = %v", err)
	}
	if err := r.Expect("FS"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Expect(FS) over %q = %v, want ErrCorrupt", "xx", err)
	}
}

// A length prefix claiming more elements than the remaining input could
// hold must be rejected before any allocation happens.
func TestReaderCountGuardsAllocation(t *testing.T) {
	b := AppendUint(nil, math.MaxUint64)
	if _, err := NewReader(b).Floats(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Floats with absurd count = %v, want ErrCorrupt", err)
	}
	if _, err := NewReader(b).String(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("String with absurd length = %v, want ErrCorrupt", err)
	}
}

func TestReaderTruncation(t *testing.T) {
	full := AppendFloats(AppendString(nil, "abc"), []float64{1, 2})
	for n := 0; n < len(full); n++ {
		r := NewReader(full[:n])
		if _, err := r.String(); err == nil {
			if _, err = r.Floats(); err == nil {
				t.Fatalf("decode of %d-byte prefix succeeded", n)
			}
		}
	}
	var zero Reader
	if _, err := zero.Byte(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("zero Reader Byte = %v, want ErrCorrupt", err)
	}
}

// TestBoolIsStrict: a flag encodes as exactly 0 or 1, and any other
// byte is refused, so every decoded flag has one encoding.
func TestBoolIsStrict(t *testing.T) {
	b := AppendBool(AppendBool(nil, true), false)
	if len(b) != 2 || b[0] != 1 || b[1] != 0 {
		t.Fatalf("AppendBool wrote %v", b)
	}
	r := NewReader(append(b, 2))
	if v, err := r.Bool(); err != nil || !v {
		t.Fatalf("Bool = %v, %v", v, err)
	}
	if v, err := r.Bool(); err != nil || v {
		t.Fatalf("Bool = %v, %v", v, err)
	}
	if _, err := r.Bool(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Bool of 2: err %v, want ErrCorrupt", err)
	}
	if _, err := r.Bool(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Bool past the end: err %v, want ErrCorrupt", err)
	}
	r = NewReader([]byte{7, 8, 9})
	if _, err := r.Byte(); err != nil {
		t.Fatal(err)
	}
	if rest := r.Rest(); len(rest) != 2 || rest[0] != 8 || r.Remaining() != 0 {
		t.Fatalf("Rest = %v, %d remaining", rest, r.Remaining())
	}
}
