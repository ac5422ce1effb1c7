// The request decoder: a /run or /batch body is read once and walked once
// into wireRequest or wireBatch, without reflection. It accepts a body iff
// json.NewDecoder(body).Decode does, into reflect.DeepEqual values
// (DESIGN.md §6 "Request path"; decode_test.go fuzzes the two together).

package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
)

// maxBatchRequests caps a /batch before each slot is made: a 32 MiB body
// of {} is 11 M slots, each costing objects enough to exhaust a host.
const maxBatchRequests = 1024

var errTooManyRequests = fmt.Errorf("a batch holds at most %d requests", maxBatchRequests)

// readWire reads a body of at most maxBodyBytes into a pooled buffer and
// decodes it into whichever of wr and wb is not nil; a failure is 413 for
// an oversized body or batch, else 400. Past 64 KiB the buffer grows to
// the declared length at once, so a length only declared buys nothing.
func readWire(w http.ResponseWriter, r *http.Request, wr *wireRequest, wb *wireBatch) (int, error) {
	buf, body := getRespBuf(), http.MaxBytesReader(w, r.Body, maxBodyBytes)
	defer putRespBuf(buf)
	var err error
	for n := 0; err == nil; buf.b = buf.b[:len(buf.b)+n] {
		if len(buf.b) == cap(buf.b) {
			more := cap(buf.b) + 4096
			if cap(buf.b) >= 64<<10 && r.ContentLength > int64(cap(buf.b)) {
				more = int(min(r.ContentLength, maxBodyBytes)) + 1 - len(buf.b)
			}
			buf.b = append(make([]byte, 0, len(buf.b)+more), buf.b...)
		}
		n, err = body.Read(buf.b[len(buf.b):cap(buf.b)])
	}
	if err == io.EOF {
		err = decodeBody(buf.b, wr, wb)
	}
	if errors.Is(err, errTooManyRequests) || err != nil && errors.As(err, new(*http.MaxBytesError)) {
		return http.StatusRequestEntityTooLarge, err
	}
	return http.StatusBadRequest, err // the status matters only with an error
}

// decodeBody decodes data into whichever of wr and wb is not nil.
func decodeBody(data []byte, wr *wireRequest, wb *wireBatch) error {
	d := decoderPool.Get().(*decoder)
	defer decoderPool.Put(d)
	d.data, d.i, d.depth, d.err = data, 0, 0, nil
	switch {
	case d.peek() == 0 && d.i == len(data):
		d.err = io.EOF // what encoding/json says of an empty body
	case wr != nil:
		d.request(wr)
	default:
		d.batch(wb)
	}
	err := d.err
	d.data, d.str = nil, "" // the pool keeps no body
	return err
}

// decoder walks one document. The first error sticks and ends the walk.
type decoder struct {
	data     []byte
	i, depth int
	err      error
	fold     [16]byte // a folded member name; no field name is longer
	str      string   // an unquoted string

	// Scratch for slices decoded from nothing; only zeros between uses.
	floats []float64
	ints   []int
	strs   []string
	reqs   []wireRequest
}

var decoderPool = sync.Pool{New: func() any { return new(decoder) }}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *decoder) syntaxError() { d.fail(fmt.Errorf("invalid JSON at offset %d", d.i)) }

// peek skips white space and returns the next byte, or 0 (never valid).
func (d *decoder) peek() byte {
	for ; d.i < len(d.data) && d.err == nil; d.i++ {
		if c := d.data[d.i]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return c
		}
	}
	return 0
}

func (d *decoder) eat(c byte) (ok bool) {
	if ok = d.i < len(d.data) && d.data[d.i] == c; ok {
		d.i++
	}
	return ok
}

// at reports whether the next value starts with a byte of first. A null
// is consumed instead, and a value of another type consumed and failed.
func (d *decoder) at(first string) bool {
	c := d.peek()
	if c != 0 && strings.IndexByte(first, c) >= 0 {
		return true
	}
	if start := d.i; c == 'n' {
		d.literal("null")
	} else {
		d.skip()
		d.fail(fmt.Errorf("value at offset %d has the wrong type for its member", start))
	}
	return false
}

const numberStart = "-0123456789"

// more consumes the '{' or '[' that opens a container (i == 0) or the
// separator after member i-1, and reports whether member i follows:
// for i := 0; d.more(end, i); i++ {...}.
func (d *decoder) more(end byte, i int) bool {
	if i > 0 && d.peek() == ',' {
		d.i++
		return d.err == nil
	}
	if i == 0 {
		if d.i, d.depth = d.i+1, d.depth+1; d.depth > 10000 {
			d.fail(errors.New("exceeded max depth")) // as encoding/json does
		}
	}
	if d.peek() == end {
		d.i, d.depth = d.i+1, d.depth-1
		return false
	}
	if i > 0 {
		d.syntaxError()
	}
	return d.err == nil
}

func (d *decoder) literal(word string) {
	if end := d.i + len(word); end <= len(d.data) && string(d.data[d.i:end]) == word {
		d.i = end
	} else {
		d.syntaxError()
	}
}

// scanString consumes the string token at d.i. Unless plain (no escape,
// no byte >= 0x80), the token is checked by encoding/json itself.
func (d *decoder) scanString() (tok []byte, plain bool) {
	start, plain := d.i, true
	for d.i++; d.i < len(d.data); d.i++ {
		switch c := d.data[d.i]; {
		case c == '"':
			d.i++
			if tok = d.data[start:d.i]; !plain && !json.Valid(tok) {
				d.fail(fmt.Errorf("invalid string at offset %d", start))
			}
			return tok, plain
		case c < 0x20:
			d.syntaxError()
			return nil, false
		case c == '\\':
			plain = false
			d.i++
		case c >= utf8.RuneSelf:
			plain = false
		}
	}
	d.syntaxError()
	return nil, false
}

// text is a string token's value; one that is not plain is unquoted by
// encoding/json (into d.str, which is on the heap already).
func (d *decoder) text(tok []byte, plain bool) string {
	if plain {
		return string(tok[1 : len(tok)-1])
	}
	d.fail(json.Unmarshal(tok, &d.str))
	return d.str
}

// scanNumber consumes the number token at d.i, checking JSON's grammar.
func (d *decoder) scanNumber() []byte {
	start := d.i
	d.eat('-')
	if !d.eat('0') {
		d.digits()
	}
	if d.eat('.') {
		d.digits()
	}
	if d.eat('e') || d.eat('E') {
		_ = d.eat('+') || d.eat('-')
		d.digits()
	}
	return d.data[start:d.i]
}

func (d *decoder) digits() {
	i, data := d.i, d.data
	for i < len(data) && '0' <= data[i] && data[i] <= '9' {
		i++
	}
	if i == d.i {
		d.syntaxError()
	}
	d.i = i
}

// skip consumes one value of any shape, checking its syntax.
func (d *decoder) skip() {
	switch c := d.peek(); c {
	case '{', '[':
		for i := 0; d.more(c+2, i); i++ {
			if c == '{' {
				d.name()
			}
			d.skip()
		}
	case '"':
		d.scanString()
	case 't':
		d.literal("true")
	case 'f':
		d.literal("false")
	default:
		if c != 0 && strings.IndexByte(numberStart, c) >= 0 {
			d.scanNumber()
		} else {
			d.literal("null")
		}
	}
}

// name consumes a member name and its colon.
func (d *decoder) name() (tok []byte, plain bool) {
	if d.peek() == '"' {
		if tok, plain = d.scanString(); d.peek() == ':' && d.eat(':') {
			return tok, plain
		}
	}
	d.syntaxError()
	return nil, false
}

// key consumes a member name and folds it as encoding/json does (each rune
// to the least of its unicode.SimpleFold orbit: "K" and the Kelvin sign to
// "K"), then to lower case. Field names are lower-case ASCII and no two
// fold alike, so this is encoding/json's exact-then-folded lookup.
func (d *decoder) key() []byte {
	tok, plain := d.name()
	if d.err != nil {
		return nil
	}
	name, folded := tok[1:len(tok)-1], d.fold[:0]
	if !plain {
		name = []byte(d.text(tok, false))
	}
	for i, n := 0, 1; i < len(name); i += n {
		r := rune(name[i])
		if n = 1; r >= utf8.RuneSelf {
			r, n = utf8.DecodeRune(name[i:])
			for f, r0 := unicode.SimpleFold(r), r; f != r0; f = unicode.SimpleFold(f) {
				r = min(r, f)
			}
		}
		if r >= utf8.RuneSelf || len(folded) == cap(folded) {
			return nil // names no field
		}
		if 'A' <= r && r <= 'Z' {
			r += 'a' - 'A'
		}
		folded = append(folded, byte(r))
	}
	return folded
}

func (d *decoder) batch(b *wireBatch) {
	for i := 0; (i > 0 || d.at("{")) && d.more('}', i); i++ {
		if string(d.key()) == "requests" {
			decodeSlice(d, &b.Requests, &d.reqs, maxBatchRequests, (*decoder).request)
		} else {
			d.skip()
		}
	}
}

func (d *decoder) request(r *wireRequest) {
	for i := 0; (i > 0 || d.at("{")) && d.more('}', i); i++ {
		switch string(d.key()) {
		case "dataset":
			d.setString(&r.Dataset)
		case "query":
			d.query(&r.Query)
		case "k":
			d.setInt(&r.K)
		case "workers":
			d.setInt(&r.Workers)
		case "budget":
			d.setInt(&r.Budget)
		case "min_score": // null makes it nil, a number is stored in place
			if d.peek() == 'n' {
				r.MinScore = nil
			} else if r.MinScore == nil {
				r.MinScore = new(float64)
			}
			d.setFloat(r.MinScore)
		default:
			d.skip()
		}
	}
}

func (d *decoder) query(q *wireQuery) {
	for i := 0; (i > 0 || d.at("{")) && d.more('}', i); i++ {
		switch string(d.key()) {
		case "kind":
			d.setString(&q.Kind)
		case "attrs":
			decodeSlice(d, &q.Attrs, &d.strs, math.MaxInt, (*decoder).setString)
		case "coeffs":
			decodeSlice(d, &q.Coeffs, &d.floats, math.MaxInt, (*decoder).setFloat)
		case "intercept":
			d.setFloat(&q.Intercept)
		case "attr_lo":
			decodeSlice(d, &q.AttrLo, &d.floats, math.MaxInt, (*decoder).setFloat)
		case "attr_hi":
			decodeSlice(d, &q.AttrHi, &d.floats, math.MaxInt, (*decoder).setFloat)
		case "levels":
			decodeSlice(d, &q.Levels, &d.ints, math.MaxInt, (*decoder).setInt)
		case "machine":
			d.setString(&q.Machine)
		case "prefilter":
			if d.at("tf") {
				q.Prefilter = d.data[d.i] == 't'
				d.literal(strconv.FormatBool(q.Prefilter))
			}
		case "horizon":
			d.setInt(&q.Horizon)
		case "sequence":
			decodeSlice(d, &q.Sequence, &d.strs, math.MaxInt, (*decoder).setString)
		case "max_gap_ft":
			d.setFloat(&q.MaxGapFt)
		case "min_gamma":
			d.setFloat(&q.MinGamma)
		case "gamma_ramp_api":
			d.setFloat(&q.GammaRampAPI)
		case "method":
			d.setString(&q.Method)
		case "rules":
			d.setString(&q.Rules)
		default:
			d.skip()
		}
	}
}

// The setters store a value through the strconv calls encoding/json makes;
// as there, null leaves the target alone and any other JSON type fails.

func (d *decoder) setString(dst *string) {
	if d.at(`"`) {
		if tok, plain := d.scanString(); d.err == nil {
			*dst = d.text(tok, plain)
		}
	}
}

func (d *decoder) setFloat(dst *float64) {
	if d.at(numberStart) {
		if tok := d.scanNumber(); d.err == nil {
			f, err := strconv.ParseFloat(string(tok), 64)
			d.fail(err)
			*dst = f
		}
	}
}

func (d *decoder) setInt(dst *int) {
	if d.at(numberStart) {
		if tok := d.scanNumber(); d.err == nil {
			n, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
			d.fail(err)
			*dst = int(n)
		}
	}
}

// decodeSlice decodes an array into *dst as encoding/json does: null makes
// it nil, [] empty, and elements decode into those already there, growing
// past the capacity by append, which keeps all up to the old capacity. A
// slice without capacity is filled in scratch and copied out at its exact
// length. Element limit+1 fails before its slot is made.
func decodeSlice[T any](d *decoder, dst, scratch *[]T, limit int, elem func(*decoder, *T)) {
	if !d.at("[") {
		if d.err == nil {
			*dst = nil
		}
		return
	}
	s, fresh := *dst, cap(*dst) == 0
	if fresh {
		s = (*scratch)[:0]
	}
	n := 0
	for ; d.more(']', n); n++ {
		if n == limit {
			d.fail(errTooManyRequests)
			break
		}
		if n == cap(s) {
			s = append(s, *new(T)) // len(s) == n
		} else {
			s = s[:n+1]
		}
		elem(d, &s[n])
	}
	switch {
	case d.err != nil:
	case n == 0:
		*dst = []T{}
	case !fresh:
		*dst = s[:n]
	default:
		*dst = append([]T(nil), s[:n]...)
	}
	if fresh {
		clear(s[:n])
		*scratch = s[:0]
	}
}
