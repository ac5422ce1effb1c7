// Canonical request fingerprinting. A cache key must satisfy two
// properties the tests pin:
//
//  1. no collisions between semantically different requests — two
//     requests that could return different results must never share a
//     key;
//  2. stability — the key is a pure function of the request's semantic
//     field values, independent of construction order, map iteration,
//     or process lifetime.
//
// Both come from framing: every write is tagged with its type and
// length-prefixed, so adjacent fields can never re-associate
// (("ab","c") vs ("a","bc")), a missing optional field is
// distinguishable from a zero value, and numeric types with identical
// bit patterns but different meanings stay distinct. The framed bytes
// are the key itself, compared exactly: two keys are equal iff their
// encodings are, so there is no hash and no collision bound to argue.

package qcache

import (
	"encoding/binary"
	"math"
	"sync"
)

// Type tags. Each framed write starts with one, so values of different
// types never collide even when their payload bytes match.
const (
	tagString byte = iota + 1
	tagBytes
	tagInt
	tagUint
	tagFloat
	tagNil
	tagList
	tagField
)

// Fingerprint accumulates the canonical framed encoding of one request;
// Key returns it. Fingerprints come from a pool (NewFingerprint) and
// go back with Release once the key is no longer referenced.
type Fingerprint struct {
	buf []byte
}

var fingerprintPool = sync.Pool{New: func() any { return new(Fingerprint) }}

// maxPooledKey keeps a rare huge key (a large rule set) from pinning its
// buffer in the pool; request keys are a few hundred bytes.
const maxPooledKey = 64 << 10

// NewFingerprint returns an empty fingerprint drawn from a pool.
func NewFingerprint() *Fingerprint {
	f := fingerprintPool.Get().(*Fingerprint)
	f.buf = f.buf[:0]
	return f
}

// Release returns the fingerprint to the pool. Its Key must not be used
// afterwards.
func (f *Fingerprint) Release() {
	if cap(f.buf) <= maxPooledKey {
		fingerprintPool.Put(f)
	}
}

func (f *Fingerprint) frame(tag byte, payload int) {
	f.buf = append(f.buf, tag)
	f.buf = binary.BigEndian.AppendUint64(f.buf, uint64(payload))
}

// word appends one framed 8-byte big-endian value.
func (f *Fingerprint) word(tag byte, v uint64) *Fingerprint {
	f.frame(tag, 8)
	f.buf = binary.BigEndian.AppendUint64(f.buf, v)
	return f
}

// Field marks the start of a named field. Writing the field name as its
// own framed token keeps reordered or renamed fields from colliding
// with value bytes.
func (f *Fingerprint) Field(name string) *Fingerprint {
	f.frame(tagField, len(name))
	f.buf = append(f.buf, name...)
	return f
}

// String appends a framed string value.
func (f *Fingerprint) String(s string) *Fingerprint {
	f.frame(tagString, len(s))
	f.buf = append(f.buf, s...)
	return f
}

// BytesOf appends whatever fill appends as one framed byte-slice value,
// written in place: the length prefix is reserved first and patched
// once fill returns, so there is no intermediate slice. fill must only
// append to its argument.
func (f *Fingerprint) BytesOf(fill func([]byte) []byte) *Fingerprint {
	f.frame(tagBytes, 0)
	start := len(f.buf)
	f.buf = fill(f.buf)
	binary.BigEndian.PutUint64(f.buf[start-8:start], uint64(len(f.buf)-start))
	return f
}

// Int appends a framed signed integer.
func (f *Fingerprint) Int(v int64) *Fingerprint {
	return f.word(tagInt, uint64(v))
}

// Uint appends a framed unsigned integer.
func (f *Fingerprint) Uint(v uint64) *Fingerprint {
	return f.word(tagUint, v)
}

// Float appends a framed float64 by IEEE-754 bit pattern. Distinct bit
// patterns (including ±0) fingerprint distinctly; callers that treat
// them as equal must normalize first.
func (f *Fingerprint) Float(v float64) *Fingerprint {
	return f.word(tagFloat, math.Float64bits(v))
}

// Nil appends an explicit absent-value marker, distinguishing "field
// not set" from any set value (e.g. a nil MinScore vs a zero floor).
func (f *Fingerprint) Nil() *Fingerprint {
	f.frame(tagNil, 0)
	return f
}

// Floats appends a framed float64 list: the element count is part of
// the frame, so [1,2]+[3] never collides with [1]+[2,3].
func (f *Fingerprint) Floats(vs []float64) *Fingerprint {
	f.frame(tagList, len(vs))
	for _, v := range vs {
		f.Float(v)
	}
	return f
}

// Ints appends a framed int list.
func (f *Fingerprint) Ints(vs []int) *Fingerprint {
	f.frame(tagList, len(vs))
	for _, v := range vs {
		f.Int(int64(v))
	}
	return f
}

// Key returns everything written so far: the cache key itself. It
// aliases the fingerprint's buffer, so it is valid until the next write or
// Release; Cache.Put copies it.
func (f *Fingerprint) Key() []byte { return f.buf }
