// Package canon holds the shared primitives for canonical byte
// encodings: the AppendCanonical methods in internal/{linear,fsm,bayes},
// the request encoding built from them in internal/core (both the
// result-cache key and the body of a cluster 'Q' frame), and the other
// cluster payloads. Decodability of those encodings depends on every
// encoder framing fields the same way, so the framing lives in exactly
// one place: lengths and
// integers are fixed-width big-endian, floats are IEEE-754 bit
// patterns, and variable-size values are length-prefixed so adjacent
// fields can never re-associate.
//
// Reader is the decoding counterpart: a bounds-checked cursor over a
// canonical byte stream. Every read validates against the remaining
// input before allocating, so a truncated or hostile frame fails with
// ErrCorrupt instead of panicking or ballooning memory — the property
// the cluster wire-codec fuzz tests pin.
package canon

import (
	"encoding/binary"
	"errors"
	"math"
)

// AppendUint appends v as 8 big-endian bytes.
func AppendUint(b []byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(b, v)
}

// AppendFloat appends v's IEEE-754 bit pattern as 8 big-endian bytes.
// Distinct bit patterns (including ±0 and NaN payloads) encode
// distinctly; callers that treat them as equal must normalize first.
func AppendFloat(b []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendString appends s length-prefixed.
func AppendString(b []byte, s string) []byte {
	b = AppendUint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBool appends v as one byte: 1 for true, 0 for false.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendFloats appends vs count-prefixed, element by element.
func AppendFloats(b []byte, vs []float64) []byte {
	b = AppendUint(b, uint64(len(vs)))
	for _, v := range vs {
		b = AppendFloat(b, v)
	}
	return b
}

// ErrCorrupt reports a canonical stream that cannot be decoded: it is
// truncated, a length prefix exceeds the remaining input, or a value
// violates the decoder's validity contract.
var ErrCorrupt = errors.New("canon: corrupt canonical encoding")

// Reader decodes a canonical byte stream produced by the Append
// functions. It never reads past the input and never allocates more
// than the remaining input could justify; all failures surface as
// errors wrapping ErrCorrupt.
type Reader struct {
	b []byte
}

// NewReader returns a reader over b. The reader aliases b; the caller
// must not mutate it while decoding.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Remaining reports how many bytes are left to decode.
func (r *Reader) Remaining() int { return len(r.b) }

// Byte consumes one byte.
func (r *Reader) Byte() (byte, error) {
	if len(r.b) < 1 {
		return 0, ErrCorrupt
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v, nil
}

// Bool consumes one byte written by AppendBool. Anything but 0 or 1 is
// ErrCorrupt, so every decoded flag has exactly one encoding.
func (r *Reader) Bool() (bool, error) {
	v, err := r.Byte()
	if err == nil && v > 1 {
		err = ErrCorrupt
	}
	return v == 1, err
}

// Rest consumes and returns every remaining byte (a payload whose last
// field runs to the end of the input). It aliases the input.
func (r *Reader) Rest() []byte {
	b := r.b
	r.b = r.b[len(r.b):]
	return b
}

// Uint consumes an 8-byte big-endian unsigned integer.
func (r *Reader) Uint() (uint64, error) {
	if len(r.b) < 8 {
		return 0, ErrCorrupt
	}
	v := binary.BigEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v, nil
}

// Float consumes an 8-byte IEEE-754 bit pattern.
func (r *Reader) Float() (float64, error) {
	v, err := r.Uint()
	return math.Float64frombits(v), err
}

// Count consumes a count prefix and validates it against the remaining
// input: a count of n is accepted only when n*per bytes could still
// follow, so a corrupt length can never drive an oversized allocation.
// per must be the minimum encoded size of one element (>= 1).
func (r *Reader) Count(per int) (int, error) {
	v, err := r.Uint()
	if err != nil {
		return 0, err
	}
	if per < 1 {
		per = 1
	}
	if v > uint64(len(r.b)/per) {
		return 0, ErrCorrupt
	}
	return int(v), nil
}

// String consumes a length-prefixed string.
func (r *Reader) String() (string, error) {
	n, err := r.Count(1)
	if err != nil {
		return "", err
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s, nil
}

// Floats consumes a count-prefixed float64 list.
func (r *Reader) Floats() ([]float64, error) {
	n, err := r.Count(8)
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for i := range out {
		if out[i], err = r.Float(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Expect consumes len(tag) bytes and verifies they equal tag (the
// two-byte type markers the model encoders emit, e.g. "LM", "FS").
func (r *Reader) Expect(tag string) error {
	if len(r.b) < len(tag) || string(r.b[:len(tag)]) != tag {
		return ErrCorrupt
	}
	r.b = r.b[len(tag):]
	return nil
}
