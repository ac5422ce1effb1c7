package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"modelir"
)

// The wire structs the daemon marshalled its results through before the
// hand-written encoder. They are the byte-for-byte reference the encoder
// is pinned to, and what the endpoint tests decode responses into.

type wireItem struct {
	ID     int64   `json:"id"`
	Score  float64 `json:"score"`
	Strata []int   `json:"strata,omitempty"`
}

type wireCache struct {
	Hit           bool   `json:"hit"`
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Evictions     uint64 `json:"evictions"`
	Invalidations uint64 `json:"invalidations"`
}

type wireStats struct {
	Kind        string    `json:"kind"`
	Evaluations int       `json:"evaluations"`
	Examined    int       `json:"examined"`
	Pruned      int       `json:"pruned"`
	Shards      int       `json:"shards"`
	WallNS      int64     `json:"wall_ns"`
	Truncated   bool      `json:"truncated"`
	Cache       wireCache `json:"cache"`
}

type wireResult struct {
	Items []wireItem `json:"items"`
	Stats wireStats  `json:"stats"`
	Error string     `json:"error,omitempty"`
}

type wireBatchResponse struct {
	Results []wireResult `json:"results"`
}

func toWireResult(res modelir.Result, err error) wireResult {
	if err != nil {
		return wireResult{Error: err.Error()}
	}
	out := wireResult{
		Items: make([]wireItem, len(res.Items)),
		Stats: wireStats{
			Kind:        res.Stats.Kind.String(),
			Evaluations: res.Stats.Evaluations,
			Examined:    res.Stats.Examined,
			Pruned:      res.Stats.Pruned,
			Shards:      res.Stats.Shards,
			WallNS:      res.Stats.Wall.Nanoseconds(),
			Truncated:   res.Stats.Truncated,
			Cache: wireCache{
				Hit:           res.Stats.Cache.Hit,
				Hits:          res.Stats.Cache.Hits,
				Misses:        res.Stats.Cache.Misses,
				Evictions:     res.Stats.Cache.Evictions,
				Invalidations: res.Stats.Cache.Invalidations,
			},
		},
	}
	for i, it := range res.Items {
		w := wireItem{ID: it.ID, Score: it.Score}
		if strata, ok := it.Payload.([]int); ok {
			w.Strata = strata
		}
		out.Items[i] = w
	}
	return out
}

// mustMarshal is the reference encoding.
func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// fuzzResult derives a result from primitive fuzz inputs: nItems items
// with neighbouring IDs and neighbouring float64 bit patterns, strata
// (possibly negative, possibly empty) on every other item, and stats
// that exercise every member.
func fuzzResult(id int64, scoreBits uint64, nItems uint8, strata []byte, n int, wall int64, flag bool, count uint64) modelir.Result {
	res := modelir.Result{Stats: modelir.QueryStats{
		Kind:        modelir.ModelKind(uint8(n) % 5),
		Evaluations: n,
		Examined:    -n,
		Pruned:      n / 3,
		Shards:      n % 17,
		Wall:        time.Duration(wall),
		Truncated:   flag,
		Cache: modelir.CacheInfo{
			Hit: !flag, Hits: count, Misses: count / 2, Evictions: count >> 7, Invalidations: ^count,
		},
	}}
	for j := 0; j < int(nItems%8); j++ {
		it := modelir.Item{ID: id + int64(j), Score: math.Float64frombits(scoreBits + uint64(j))}
		if j%2 == 0 {
			ints := make([]int, len(strata))
			for i, b := range strata {
				ints[i] = int(b) - 128
			}
			it.Payload = ints
		}
		res.Items = append(res.Items, it)
	}
	return res
}

// FuzzEncodeResultMatchesJSON pins the encoder to encoding/json: a /run
// body and a /batch body mixing result and error slots must equal
// json.Marshal of the reference structs, byte for byte. A result JSON
// cannot carry (a non-finite score) must be refused by both.
func FuzzEncodeResultMatchesJSON(f *testing.F) {
	bits := math.Float64bits
	f.Add(int64(0), bits(0.5), uint8(0), []byte{}, 0, int64(0), false, uint64(0), "")                                            // empty items
	f.Add(int64(7), bits(0.25), uint8(3), []byte{}, 12, int64(1500), true, uint64(9), `no such dataset: "nope" <&> é`)           // batch mixing result and error slots
	f.Add(int64(40), bits(3.75), uint8(2), []byte{128, 131, 0, 255}, 99, int64(-1), false, uint64(1)<<63, "")                    // strata payload
	f.Add(int64(-3), bits(math.Copysign(0, -1)), uint8(1), []byte{}, 1, int64(1), false, uint64(1), "")                          // -0
	f.Add(int64(1), bits(1e21), uint8(4), []byte{}, 1, int64(1), false, uint64(1), "")                                           // first exponent-form value
	f.Add(int64(1), bits(1e21)-2, uint8(4), []byte{}, 1, int64(1), false, uint64(1), "")                                         // ... and just below it
	f.Add(int64(1), bits(1e-7), uint8(4), []byte{}, 1, int64(1), false, uint64(1), "")                                           // e-07 -> e-7
	f.Add(int64(1), bits(1e-6)-2, uint8(4), []byte{}, 1, int64(1), false, uint64(1), "")                                         // straddles 1e-6
	f.Add(int64(1), uint64(1), uint8(4), []byte{}, 1, int64(1), false, uint64(1), "")                                            // subnormal
	f.Add(int64(math.MaxInt64)-7, bits(-1e300), uint8(7), []byte{1}, math.MinInt64, int64(math.MinInt64), true, ^uint64(0), "x") // max int64 ID
	f.Add(int64(5), bits(math.Inf(1))-1, uint8(3), []byte{}, 1, int64(1), false, uint64(1), "after the inf\xff")                 // finite, +Inf, NaN

	f.Fuzz(func(t *testing.T, id int64, scoreBits uint64, nItems uint8, strata []byte, n int, wall int64, flag bool, count uint64, msg string) {
		res := fuzzResult(id, scoreBits, nItems, strata, n, wall, flag, count)
		want, refErr := json.Marshal(toWireResult(res, nil))
		got, err := appendResult([]byte("prefix"), &res)
		if (refErr != nil) != (err != nil) {
			t.Fatalf("encoding/json error %v, encoder error %v", refErr, err)
		}
		if err != nil {
			if string(got) != "prefix" {
				t.Fatalf("failed encode left %q behind", got)
			}
			// Inside a batch the refused result becomes an error slot.
			want = mustMarshal(t, wireResult{Error: err.Error()})
		} else if !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("result\n got %s\nwant %s", got[len("prefix"):], want)
		}

		// [result, error slot, compile-error slot, result]
		batch := []modelir.BatchResult{{Result: res}, {Err: errors.New(msg)}, {}, {Result: res}}
		compileErrs := []error{nil, nil, errors.New("compile: " + msg), nil}
		ref := wireBatchResponse{Results: make([]wireResult, len(batch))}
		for i := range batch {
			switch {
			case compileErrs[i] != nil:
				ref.Results[i] = wireResult{Error: compileErrs[i].Error()}
			case batch[i].Err != nil:
				ref.Results[i] = wireResult{Error: batch[i].Err.Error()}
			case err != nil:
				ref.Results[i] = wireResult{Error: err.Error()}
			default:
				ref.Results[i] = toWireResult(batch[i].Result, nil)
			}
		}
		if got, want := appendBatch(nil, batch, compileErrs), mustMarshal(t, ref); !bytes.Equal(got, want) {
			t.Fatalf("batch\n got %s\nwant %s", got, want)
		}
		if got, want := mustMarshal(t, errorBody(msg)), mustMarshal(t, wireResult{Error: msg}); !bytes.Equal(got, want) {
			t.Fatalf("error body\n got %s\nwant %s", got, want)
		}
	})
}

// TestEncoderAllocatesNothing pins the steady state: once the buffer
// has grown to fit, encoding a result or a batch of results allocates
// nothing.
func TestEncoderAllocatesNothing(t *testing.T) {
	res := fuzzResult(1000, math.Float64bits(0.731), 7, []byte{129, 140, 200}, 4096, 250_000, false, 77)
	batch := []modelir.BatchResult{{Result: res}, {Result: res}, {Result: res}}
	compileErrs := make([]error, len(batch))
	buf := appendBatch(nil, batch, compileErrs)
	if n := testing.AllocsPerRun(100, func() {
		buf, _ = appendResult(buf[:0], &res)
	}); n != 0 {
		t.Errorf("appendResult: %v allocs per warmed-up run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		buf = appendBatch(buf[:0], batch, compileErrs)
	}); n != 0 {
		t.Errorf("appendBatch: %v allocs per warmed-up run, want 0", n)
	}
}

// stubBackend answers every query with a fixed result, so handler tests
// can pin whole response bodies.
type stubBackend struct {
	backend
	res modelir.Result
}

func (b stubBackend) Run(context.Context, modelir.Request) (modelir.Result, error) {
	return b.res, nil
}

func (b stubBackend) RunBatch(_ context.Context, reqs []modelir.Request) ([]modelir.BatchResult, error) {
	out := make([]modelir.BatchResult, len(reqs))
	for i := range out {
		out[i].Result = b.res
	}
	return out, nil
}

func post(t *testing.T, h http.Handler, path string, body io.Reader) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, body))
	return rec
}

const linearRun = `{"dataset":"tuples","k":3,"query":{"kind":"linear","coeffs":[1,1,1]}}`

// TestResponseBodiesMatchReference drives fixed results through the
// handlers: /run and /batch bodies are exactly the reference encoding
// with the length declared, and error bodies keep their shape.
func TestResponseBodiesMatchReference(t *testing.T) {
	res := fuzzResult(1, math.Float64bits(1e-7), 5, []byte{130, 133}, 321, 4_000, true, 3)
	srv := newServer(stubBackend{res: res})

	rec := post(t, srv, "/run", strings.NewReader(linearRun))
	if want := mustMarshal(t, toWireResult(res, nil)); rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("/run: status %d\n got %s\nwant %s", rec.Code, rec.Body, want)
	}
	if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(rec.Body.Len()) {
		t.Fatalf("/run Content-Length %q for %d bytes", got, rec.Body.Len())
	}

	rec = post(t, srv, "/batch", strings.NewReader(`{"requests":[`+linearRun+`,{"dataset":"tuples","query":{"kind":"wat"}}]}`))
	_, compileErr := compileQuery(wireQuery{Kind: "wat"})
	want := mustMarshal(t, wireBatchResponse{Results: []wireResult{toWireResult(res, nil), {Error: compileErr.Error()}}})
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("/batch: status %d\n got %s\nwant %s", rec.Code, rec.Body, want)
	}

	rec = post(t, srv, "/run", strings.NewReader(`{"dataset":"tuples","query":{"kind":"wat"}}`))
	if want := mustMarshal(t, wireResult{Error: compileErr.Error()}); rec.Code != http.StatusBadRequest || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("/run compile error: status %d\n got %s\nwant %s", rec.Code, rec.Body, want)
	}
}

// TestUnencodableResultIs500 pins the encode-before-header rule: a
// result holding a non-finite score used to leave as a 200 with a
// truncated body. /run now answers 500 with an error member, /batch
// fails that slot alone, and writeJSON does the same for any value
// encoding/json refuses.
func TestUnencodableResultIs500(t *testing.T) {
	res := modelir.Result{Items: []modelir.Item{{ID: 1, Score: 2}, {ID: 9, Score: math.Inf(1)}}}
	srv := newServer(stubBackend{res: res})

	rec := post(t, srv, "/run", strings.NewReader(linearRun))
	var body wireResult
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("/run body %q: %v", rec.Body, err)
	}
	if rec.Code != http.StatusInternalServerError || !strings.Contains(body.Error, "+Inf") {
		t.Fatalf("/run: status %d body %s", rec.Code, rec.Body)
	}

	rec = post(t, srv, "/batch", strings.NewReader(`{"requests":[`+linearRun+`]}`))
	var batch wireBatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &batch); err != nil {
		t.Fatalf("/batch body %q: %v", rec.Body, err)
	}
	if rec.Code != http.StatusOK || len(batch.Results) != 1 || !strings.Contains(batch.Results[0].Error, "+Inf") {
		t.Fatalf("/batch: status %d body %s", rec.Code, rec.Body)
	}

	rec = httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"x": math.NaN()})
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("writeJSON body %q: %v", rec.Body, err)
	}
	if rec.Code != http.StatusInternalServerError || !strings.Contains(body.Error, "NaN") {
		t.Fatalf("writeJSON: status %d body %s", rec.Code, rec.Body)
	}
}

// TestOversizedBodyIs413 pins the request-size cap on every endpoint
// that reads a body.
func TestOversizedBodyIs413(t *testing.T) {
	srv := newServer(stubBackend{})
	// Leading whitespace is legal JSON, so only the cap can object.
	huge := bytes.Repeat([]byte(" "), maxBodyBytes+1)
	for _, path := range []string{"/run", "/batch", "/append"} {
		rec := post(t, srv, path, bytes.NewReader(huge))
		var body struct{ Error string }
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s body %q: %v", path, rec.Body, err)
		}
		if rec.Code != http.StatusRequestEntityTooLarge || body.Error == "" {
			t.Fatalf("%s: status %d body %s", path, rec.Code, rec.Body)
		}
	}
	// At the cap a body is read in full and judged on its content.
	atCap := append(bytes.Repeat([]byte(" "), maxBodyBytes-len(linearRun)), linearRun...)
	if rec := post(t, srv, "/run", bytes.NewReader(atCap)); rec.Code != http.StatusOK {
		t.Fatalf("body of exactly maxBodyBytes: status %d body %s", rec.Code, rec.Body)
	}
}

// TestCompileSharesBuiltins pins the compile cost fix: compiling the
// same wire query twice yields the same canonical model bytes (what the
// result cache fingerprints), and queries naming a built-in share the
// one instance built at start-up.
func TestCompileSharesBuiltins(t *testing.T) {
	compile := func(wq wireQuery) modelir.Query {
		t.Helper()
		q, err := compileQuery(wq)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	fsm := wireQuery{Kind: "fsm"}
	if a, b := compile(fsm).(modelir.FSMQuery), compile(fsm).(modelir.FSMQuery); a.Machine != b.Machine ||
		!bytes.Equal(a.Machine.AppendCanonical(nil), modelir.FireAntsModel().AppendCanonical(nil)) {
		t.Error("fsm queries do not share the built-in fire-ants machine")
	}
	dist := wireQuery{Kind: "fsm-distance", Machine: "fireants", Horizon: 6}
	if a, b := compile(dist).(modelir.FSMDistanceQuery), compile(fsm).(modelir.FSMQuery); a.Target != b.Machine {
		t.Error("fsm-distance does not share the built-in fire-ants machine")
	}
	scene := wireQuery{Kind: "scene"}
	if a, b := compile(scene).(modelir.SceneQuery), compile(scene).(modelir.SceneQuery); a.Model != b.Model {
		t.Error("scene queries do not share the built-in HPS model")
	}
	know := wireQuery{Kind: "knowledge"}
	if a, b := compile(know).(modelir.KnowledgeQuery), compile(wireQuery{Kind: "knowledge", Rules: "hps"}).(modelir.KnowledgeQuery); a.Rules != b.Rules {
		t.Error("knowledge queries do not share the built-in HPS rules")
	}

	// Default attribute names come from the table, inside and beyond it.
	for _, n := range []int{3, len(defaultAttrs), len(defaultAttrs) + 2} {
		lin := wireQuery{Kind: "linear", Coeffs: make([]float64, n), Intercept: 2}
		a, b := compile(lin).(modelir.LinearQuery).Model, compile(lin).(modelir.LinearQuery).Model
		if !bytes.Equal(a.AppendCanonical(nil), b.AppendCanonical(nil)) {
			t.Errorf("%d-term linear query fingerprints differ between compiles", n)
		}
		if a.Attrs[0] != "x0" || a.Attrs[n-1] != "x"+strconv.Itoa(n-1) {
			t.Errorf("%d-term default attrs: %q .. %q", n, a.Attrs[0], a.Attrs[n-1])
		}
	}
	if len(defaultAttrs) != 64 || cap(defaultAttrNames(3)) < 3 || defaultAttrs[63] != "x63" {
		t.Errorf("default attr table damaged: %d names, last %q", len(defaultAttrs), defaultAttrs[len(defaultAttrs)-1])
	}
}

// benchServer serves the demo datasets from a real engine.
func benchServer(b *testing.B) *server {
	b.Helper()
	e, err := buildEngine(demoConfig{Shards: 4, Tuples: 3000, Scene: 32, Regions: 40, Wells: 30, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = e.Close() })
	return newServer(engineBackend{engine: e})
}

// benchHandler times one serving hop - decode, compile, a cache-hit
// Run, encode, write - through a ResponseRecorder, so ns/op, B/op and
// allocs/op are the handler's own.
func benchHandler(b *testing.B, path string, body func(k int) string) {
	for _, k := range []int{10, 200} {
		b.Run("K="+strconv.Itoa(k), func(b *testing.B) {
			srv := benchServer(b)
			payload := body(k)
			serve := func() {
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(payload)))
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
			}
			serve() // builds the shard indexes and fills the cache
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve()
			}
		})
	}
}

func benchRunBody(k int) string {
	return `{"dataset":"tuples","k":` + strconv.Itoa(k) + `,"query":{"kind":"linear","coeffs":[0.4,0.3,0.3]}}`
}

func BenchmarkHandleRun(b *testing.B) { benchHandler(b, "/run", benchRunBody) }

func BenchmarkHandleBatch(b *testing.B) {
	benchHandler(b, "/batch", func(k int) string {
		one := benchRunBody(k)
		return `{"requests":[` + strings.Repeat(one+",", 7) + one + `]}`
	})
}
