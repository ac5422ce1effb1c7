// The result encoder: successful /run bodies and /batch result slots
// are appended straight from modelir.Result into a pooled byte buffer
// and sent in one Write with their length declared. The bytes are what
// encoding/json produces for the same result (member order, omitted
// empty members, float text), minus indentation - encode_test.go holds
// the reference structs and fuzzes the two against each other - so no
// client can tell, but a warmed-up encode allocates nothing and reflects
// on nothing. A cache hit's items array is not even re-encoded: it is
// the copy the entry kept from its first hit (Result.AppendItems). Free
// text (error messages) still goes through encoding/json for its
// escaping rules, as does every cold endpoint.

package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"

	"modelir"
)

// respBuf is a pooled response body. One buffer serves one response at a
// time: a handler draws it, encodes, sends, and returns it.
type respBuf struct{ b []byte }

// Write lets encoding/json encode into the buffer.
func (r *respBuf) Write(p []byte) (int, error) {
	r.b = append(r.b, p...)
	return len(p), nil
}

var respPool = sync.Pool{New: func() any { return new(respBuf) }}

// maxPooledBody keeps a rare huge response (K in the tens of thousands)
// from pinning its buffer in the pool; typical bodies are a few KiB.
const maxPooledBody = 1 << 20

func getRespBuf() *respBuf {
	buf := respPool.Get().(*respBuf)
	buf.b = buf.b[:0]
	return buf
}

func putRespBuf(buf *respBuf) {
	if cap(buf.b) <= maxPooledBody {
		respPool.Put(buf)
	}
}

// send writes a finished body. With the length declared net/http skips
// chunked framing, and the single Write reaches the socket without a
// copy through its 2 KiB response buffer.
func send(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body) // a failed write means the client is gone
}

// appendResult appends res as a JSON object. It fails only on a score
// JSON cannot carry (NaN, ±Inf); dst is then returned unextended. The
// items go through Result.AppendItems, so a cache hit appends the
// entry's memoised encoding; stats are encoded fresh on every serve,
// since their wall time and cache counters differ.
func appendResult(dst []byte, res *modelir.Result) ([]byte, error) {
	start := len(dst)
	dst = append(dst, `{"items":`...)
	dst, err := res.AppendItems(dst, appendItems)
	if err != nil {
		return dst[:start], err
	}
	dst = append(dst, `,"stats":`...)
	dst = appendStats(dst, res.Stats.Kind.String(), &res.Stats)
	return append(dst, '}'), nil
}

// appendItems appends items as a JSON array. It fails only on a score
// JSON cannot carry (NaN, ±Inf); dst is then returned unextended.
func appendItems(dst []byte, items []modelir.Item) ([]byte, error) {
	start := len(dst)
	dst = append(dst, '[')
	for i := range items {
		it := &items[i]
		if math.IsNaN(it.Score) || math.IsInf(it.Score, 0) {
			return dst[:start], fmt.Errorf("item %d: unsupported score %v", it.ID, it.Score)
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"id":`...)
		dst = strconv.AppendInt(dst, it.ID, 10)
		dst = append(dst, `,"score":`...)
		dst = appendFloat(dst, it.Score)
		// Geology items carry their matched strata indices.
		if strata, ok := it.Payload.([]int); ok && len(strata) > 0 {
			dst = append(dst, `,"strata":[`...)
			for j, s := range strata {
				if j > 0 {
					dst = append(dst, ',')
				}
				dst = strconv.AppendInt(dst, int64(s), 10)
			}
			dst = append(dst, ']')
		}
		dst = append(dst, '}')
	}
	return append(dst, ']'), nil
}

// appendBatch appends the /batch response: one result per slot, or an
// error result where the slot failed to compile (compileErrs, parallel
// to batch), to run, or to encode - failures stay in their own slot.
func appendBatch(dst []byte, batch []modelir.BatchResult, compileErrs []error) []byte {
	dst = append(dst, `{"results":[`...)
	for i := range batch {
		if i > 0 {
			dst = append(dst, ',')
		}
		err := compileErrs[i]
		if err == nil {
			err = batch[i].Err
		}
		if err == nil {
			dst, err = appendResult(dst, &batch[i].Result)
		}
		if err != nil {
			dst = appendErrorResult(dst, err.Error())
		}
	}
	return append(dst, `]}`...)
}

// appendStats appends the stats object. kind is a ModelKind name (plain
// ASCII, nothing to escape) or empty in an error result.
func appendStats(dst []byte, kind string, st *modelir.QueryStats) []byte {
	dst = append(dst, `{"kind":"`...)
	dst = append(dst, kind...)
	dst = append(dst, `","evaluations":`...)
	dst = strconv.AppendInt(dst, int64(st.Evaluations), 10)
	dst = append(dst, `,"examined":`...)
	dst = strconv.AppendInt(dst, int64(st.Examined), 10)
	dst = append(dst, `,"pruned":`...)
	dst = strconv.AppendInt(dst, int64(st.Pruned), 10)
	dst = append(dst, `,"shards":`...)
	dst = strconv.AppendInt(dst, int64(st.Shards), 10)
	dst = append(dst, `,"wall_ns":`...)
	dst = strconv.AppendInt(dst, st.Wall.Nanoseconds(), 10)
	dst = append(dst, `,"truncated":`...)
	dst = strconv.AppendBool(dst, st.Truncated)
	dst = append(dst, `,"cache":{"hit":`...)
	dst = strconv.AppendBool(dst, st.Cache.Hit)
	dst = append(dst, `,"hits":`...)
	dst = strconv.AppendUint(dst, st.Cache.Hits, 10)
	dst = append(dst, `,"misses":`...)
	dst = strconv.AppendUint(dst, st.Cache.Misses, 10)
	dst = append(dst, `,"evictions":`...)
	dst = strconv.AppendUint(dst, st.Cache.Evictions, 10)
	dst = append(dst, `,"invalidations":`...)
	dst = strconv.AppendUint(dst, st.Cache.Invalidations, 10)
	return append(dst, `}}`...)
}

// appendFloat appends a finite float64 in encoding/json's text: the
// shortest decimal that round-trips the bits, in exponent form only
// below 1e-6 and from 1e21 up, with a two-digit exponent's leading zero
// dropped (e-07 -> e-7).
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// appendErrorResult appends a failed result: the shape of a result with
// no items and zeroed stats, plus the error text. It is every error body
// of /run and /batch and every failed slot inside a /batch response.
// (An error with no text loses the member, as omitempty always had it.)
func appendErrorResult(dst []byte, msg string) []byte {
	dst = append(dst, `{"items":null,"stats":`...)
	dst = appendStats(dst, "", &modelir.QueryStats{})
	if msg != "" {
		dst = append(dst, `,"error":`...)
		text, _ := json.Marshal(msg) // a string always encodes
		dst = append(dst, text...)
	}
	return append(dst, '}')
}

// errorBody is appendErrorResult as a value writeJSON can take.
type errorBody string

func (e errorBody) MarshalJSON() ([]byte, error) {
	return appendErrorResult(nil, string(e)), nil
}
