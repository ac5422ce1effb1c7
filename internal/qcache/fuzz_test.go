package qcache

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// record is a Request-shaped value (dataset, options, query kind, model
// content, model parameters) framed the way the engine frames one. The
// model content is two adjacent byte values (model and spec), each
// through BytesOf, the in-place framed append whose length prefix is
// patched afterwards.
type record struct {
	dataset, kind string
	k             int64
	hasMin        bool
	minScore      float64
	model, spec   []byte
	coeffs        []float64
	intercept     float64
}

// key frames r into a pooled fingerprint and returns a copy of the key. The
// model bytes are appended in two pieces, so fill grows the buffer
// while the length prefix waits to be patched.
func (r record) key() []byte {
	f := NewFingerprint()
	defer f.Release()
	f.Field("dataset").String(r.dataset)
	f.Field("k").Int(r.k)
	f.Field("minscore")
	if r.hasMin {
		f.Float(r.minScore)
	} else {
		f.Nil()
	}
	f.Field("query").String(r.kind).BytesOf(func(b []byte) []byte {
		half := len(r.model) / 2
		return append(append(b, r.model[:half]...), r.model[half:]...)
	}).BytesOf(func(b []byte) []byte { return append(b, r.spec...) })
	f.Field("coeffs").Floats(r.coeffs)
	f.Field("intercept").Float(r.intercept)
	return append([]byte(nil), f.Key()...)
}

// equal is field equality as the cache must see it: floats by bit
// pattern, and MinScore's value only when it is present.
func (r record) equal(o record) bool {
	if r.dataset != o.dataset || r.kind != o.kind || r.k != o.k || r.hasMin != o.hasMin ||
		!bytes.Equal(r.model, o.model) || !bytes.Equal(r.spec, o.spec) || len(r.coeffs) != len(o.coeffs) ||
		math.Float64bits(r.intercept) != math.Float64bits(o.intercept) {
		return false
	}
	if r.hasMin && math.Float64bits(r.minScore) != math.Float64bits(o.minScore) {
		return false
	}
	for i := range r.coeffs {
		if math.Float64bits(r.coeffs[i]) != math.Float64bits(o.coeffs[i]) {
			return false
		}
	}
	return true
}

func coeffsFrom(b []byte) []float64 {
	out := make([]float64, 0, len(b)/8)
	for len(b) >= 8 {
		out = append(out, math.Float64frombits(binary.BigEndian.Uint64(b[:8])))
		b = b[8:]
	}
	return out
}

// FuzzRequestFingerprint checks that the key is an injective encoding
// of the record: two fuzzed records give equal key bytes if and only if
// their fields are equal. The model and spec bytes are framed by
// BytesOf and may have any length, so the committed seeds try to move
// bytes across the patched length prefixes in both directions. On top
// of that, every single-field perturbation of the first record must
// move its key, and the BytesOf frame must be exactly tag, big-endian
// length, payload.
func FuzzRequestFingerprint(f *testing.F) {
	f.Add("gauss", "linear", int64(10), false, 0.0, []byte("LM"), []byte{}, []byte("\x3f\xf0\x00\x00\x00\x00\x00\x00"), 3.0,
		"gauss", "linear", int64(10), false, 1.0, []byte("LM"), []byte{}, []byte("\x3f\xf0\x00\x00\x00\x00\x00\x00"), 3.0)
	f.Add("", "", int64(0), true, 0.0, []byte{}, []byte{}, []byte{}, 0.0,
		"", "", int64(0), true, 0.0, []byte{}, []byte{}, []byte{}, 0.0)
	f.Add("weather", "fsm", int64(1), true, -1.5, []byte("FS"), []byte{}, []byte("abcdefghABCDEFGH"), math.Copysign(0, -1),
		"weather", "fsm", int64(1), true, -1.5, []byte("FS"), []byte{}, []byte("abcdefghABCDEFGH"), 0.0)
	// Re-association bait: the dataset/kind boundary, and bytes moved
	// across the model/spec patched prefixes.
	f.Add("ab", "c", int64(7), false, 0.0, []byte("xy"), []byte("z"), []byte{}, 0.0,
		"a", "bc", int64(7), false, 0.0, []byte("xy"), []byte("z"), []byte{}, 0.0)
	f.Add("ab", "c", int64(7), false, 0.0, []byte("xy"), []byte("z"), []byte{}, 0.0,
		"ab", "c", int64(7), false, 0.0, []byte("x"), []byte("yz"), []byte{}, 0.0)

	f.Fuzz(func(t *testing.T,
		dataset, kind string, k int64, hasMin bool, minScore float64, model, spec, coeffBytes []byte, intercept float64,
		dataset2, kind2 string, k2 int64, hasMin2 bool, minScore2 float64, model2, spec2, coeffBytes2 []byte, intercept2 float64,
	) {
		a := record{dataset, kind, k, hasMin, minScore, model, spec, coeffsFrom(coeffBytes), intercept}
		b := record{dataset2, kind2, k2, hasMin2, minScore2, model2, spec2, coeffsFrom(coeffBytes2), intercept2}
		ka, kb := a.key(), b.key()
		if eq := a.equal(b); eq != bytes.Equal(ka, kb) {
			t.Fatalf("fields equal %v, keys equal %v:\n%+v\n%+v\n%x\n%x", eq, !eq, a, b, ka, kb)
		}

		// Determinism: a record rebuilt from copied fields keys the same.
		c := a
		c.model = append([]byte(nil), a.model...)
		c.spec = append([]byte(nil), a.spec...)
		c.coeffs = append([]float64(nil), a.coeffs...)
		if !bytes.Equal(c.key(), ka) {
			t.Fatal("fingerprint not deterministic")
		}

		// Distinctness: every single-field perturbation moves the key.
		flip := func(v float64) float64 { return math.Float64frombits(math.Float64bits(v) ^ 1) }
		variants := map[string]func(*record){
			"dataset":           func(r *record) { r.dataset += "x" },
			"kind":              func(r *record) { r.kind += "x" },
			"k":                 func(r *record) { r.k++ },
			"minscore-presence": func(r *record) { r.hasMin = !r.hasMin },
			"model-length":      func(r *record) { r.model = append(r.model, 0) },
			"spec-length":       func(r *record) { r.spec = append(r.spec, 0) },
			"coeff-count":       func(r *record) { r.coeffs = append(r.coeffs, 1) },
			"intercept":         func(r *record) { r.intercept = flip(r.intercept) },
		}
		if a.hasMin {
			variants["minscore"] = func(r *record) { r.minScore = flip(r.minScore) }
		}
		if len(a.model) > 0 {
			variants["model-bytes"] = func(r *record) { r.model[len(r.model)-1] ^= 1 }
		}
		if len(a.coeffs) > 0 {
			variants["coeff-bits"] = func(r *record) { r.coeffs[0] = flip(r.coeffs[0]) }
		}
		for name, mutate := range variants {
			v := a
			v.model = append([]byte(nil), a.model...)
			v.spec = append([]byte(nil), a.spec...)
			v.coeffs = append([]float64(nil), a.coeffs...)
			mutate(&v)
			if bytes.Equal(v.key(), ka) {
				t.Fatalf("perturbing %s did not change the fingerprint", name)
			}
		}

		// The patched frame is what a frame written up front would be.
		want := binary.BigEndian.AppendUint64([]byte{tagBytes}, uint64(len(model)))
		want = append(want, model...)
		fp := NewFingerprint()
		defer fp.Release()
		got := fp.BytesOf(func(b []byte) []byte { return append(b, model...) }).Key()
		if !bytes.Equal(got, want) {
			t.Fatalf("BytesOf frame %x, want %x", got, want)
		}
	})
}
