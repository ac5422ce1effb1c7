package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// Request bodies as bench/workloads.go marshals them, one per family it
// draws, and as the README's quick start sends them.
var (
	benchRunBodies = []string{
		`{"dataset":"tuples8","query":{"kind":"linear","coeffs":[0.8462957357049219,-1.2398173449206714,0.11983216720839577,-0.3399141235411223,1.530940117823706,-0.05193468791837211,0.6622431919484577,-2.0107357616041395]},"k":64}`,
		`{"dataset":"scene","query":{"kind":"scene","attrs":["b4","b5","b7","elev"],"coeffs":[0.5213,-1.1042,0.3391,0.04117],"attr_lo":[0,0,0,0],"attr_hi":[255,255,255,1500],"levels":[2,4]},"k":64}`,
		`{"dataset":"scene","query":{"kind":"knowledge"},"k":64,"min_score":0.13723315043740924}`,
		`{"dataset":"weather","query":{"kind":"fsm"},"k":64,"min_score":0.004117}`,
		`{"dataset":"weather","query":{"kind":"fsm-distance","horizon":9},"k":64,"min_score":0.1577}`,
		`{"dataset":"basin","query":{"kind":"geology","sequence":["shale","limestone","sandstone"],"max_gap_ft":17.25,"min_gamma":41.9,"gamma_ramp_api":3.3,"method":"pruned"},"k":64}`,
		`{"dataset":"stream","query":{"kind":"linear","coeffs":[-0.7302843927400318,1.0041,0.25,-1.5]},"k":17}`,
		`{"dataset":"weather","query":{"kind":"fsm","prefilter":true},"k":12,"min_score":0.0061}`,
		`{"dataset":"basin","query":{"kind":"geology","sequence":["siltstone","shale"],"max_gap_ft":5.5,"min_gamma":30.25,"gamma_ramp_api":9.75,"method":"dp"},"k":3}`,
	}
	readmeRunBody = `{
  "dataset": "tuples", "k": 5,
  "query": {"kind": "linear", "coeffs": [0.4, 0.3, 0.3]}
}`
	readmeBatchBody = `{"requests": [
  {"dataset": "weather", "k": 5, "query": {"kind": "fsm", "prefilter": true}},
  {"dataset": "basin",   "k": 3, "query": {"kind": "geology",
    "sequence": ["shale", "sandstone"], "max_gap_ft": 10, "min_gamma": 45}}
]}`
)

// benchBatchBody is a hot_batch-shaped /batch: eight slots drawn from
// the bench families.
var benchBatchBody = `{"requests":[` + strings.Join(append(benchRunBodies[:6:6], benchRunBodies[0], benchRunBodies[6]), ",") + `]}`

func decodeRequest(data []byte, wr *wireRequest) error { return decodeBody(data, wr, nil) }

func decodeBatch(data []byte, wb *wireBatch) error { return decodeBody(data, nil, wb) }

// batchOf wraps /run bodies in a /batch envelope.
func batchOf(runs ...string) string { return `{"requests":[` + strings.Join(runs, ",") + `]}` }

// emptySlots is a /batch of n empty requests.
func emptySlots(n int) string { return `{"requests":[` + strings.Repeat("{},", n-1) + `{}]}` }

// matchesJSON holds the decoder to json.NewDecoder(...).Decode on body:
// the same accept/reject decision and, on accept, DeepEqual values. The
// batch cap is the decoder's own refusal and may refuse what
// encoding/json accepts, but only for an array of more than the cap.
func matchesJSON[T any](t *testing.T, body []byte, decode func([]byte, *T) error) {
	t.Helper()
	var got, want T
	err := decode(body, &got)
	refErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	if err == errTooManyRequests {
		if bytes.Count(body, []byte(",")) < maxBatchRequests {
			t.Fatalf("%.200q: batch cap refused an array of under %d elements", body, maxBatchRequests)
		}
		return
	}
	if (err == nil) != (refErr == nil) {
		t.Fatalf("%.200q: decoder error %v, encoding/json error %v", body, err, refErr)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%.200q:\n got %+v\nwant %+v", body, got, want)
	}
}

// requestSeeds are /run bodies probing every rule of the contract.
func requestSeeds() []string {
	deep := func(n int) string { return `{"x":` + strings.Repeat("[", n) + strings.Repeat("]", n) + `}` }
	seeds := append([]string{readmeRunBody, linearRun}, benchRunBodies...)
	return append(seeds,
		// Member names: folded, the Kelvin sign and long s (raw and
		// escaped), escaped plain names, duplicates decoding into the
		// value already there.
		`{"DATASET":"t","Query":{"KIND":"linear","Coeffs":[1],"ATTR_LO":[2]},"K":3,"Min_Score":4}`,
		"{\"\xe2\x84\xaa\":5,\"dataſet\":\"x\",\"\\u212a\":6}",
		`{"d\u0061taset":"t","\u006b":2,"attrs":1}`,
		`{"query":{"kind":"linear","coeffs":[1,2,3],"attrs":["a","b","c"]},"query":{"coeffs":[9],"attrs":[null,"z"]}}`,
		`{"query":{"coeffs":[1,2,3,4,5]},"query":{"coeffs":[7]},"query":{"coeffs":[null,null,null,null,null,null]}}`,
		`{"query":{"levels":[1,2]},"query":{"levels":[]},"query":{"levels":[null,null]}}`,
		`{"min_score":1,"min_score":2,"k":1,"k":7}`,
		// Null in every position, and [].
		`{"dataset":null,"query":null,"k":null,"workers":null,"budget":null,"min_score":null}`,
		`{"query":{"kind":null,"attrs":null,"coeffs":null,"intercept":null,"attr_lo":null,"attr_hi":null,"levels":null,"machine":null,"prefilter":null,"horizon":null,"sequence":null,"max_gap_ft":null,"min_gamma":null,"gamma_ramp_api":null,"method":null,"rules":null}}`,
		`{"query":{"coeffs":[null,1],"attrs":[null],"levels":[null],"sequence":[null,"shale"]}}`,
		`{"min_score":1,"min_score":null}`, `null`, ` null x`,
		`{"query":{"coeffs":[],"attrs":[],"levels":[],"sequence":[],"attr_lo":[],"attr_hi":[]}}`,
		// Strings: escapes, surrogates, invalid UTF-8, control bytes.
		`{"dataset":"a\"b\\c\/d\b\f\n\r\t\u00e9\ud83d\ude00","query":{"kind":"LINEAR"}}`,
		`{"dataset":"\ud800x\udc00\ud800"}`, "{\"dataset\":\"\xff\xfe\xc3\"}", "{\"dataset\":\"a\x01\"}", "{\"dataset\":\"a\x1f\"}",
		`{"dataset":"\x"}`, `{"dataset":"\u12"}`, `{"dataset":"abc`, `{"dataset":"\`,
		// Numbers.
		`{"min_score":1e400}`, `{"query":{"intercept":-1e400}}`, `{"min_score":1e-400}`, `{"k":-0,"min_score":-0}`,
		`{"k":1.0}`, `{"k":1e2}`, `{"k":01}`, `{"k":9223372036854775808}`, `{"k":-9223372036854775808}`,
		`{"k":-}`, `{"k":2.}`, `{"k":.5}`, `{"k":+1}`, `{"query":{"coeffs":[1E+2,-0.0e-0,5e,6e+]}}`,
		// Document shape.
		deep(9999), deep(10000), `{"k":1} trailing`, `[1]xyz`, `null1234`, `{}ab`, `{"k":1}}`, ``, "  \n\t", `{"k":1`, `{"k":1,}`,
		`{,}`, `{"k" 1}`, `{"k":tru}`, `{"k":nul}`, `[1]`, `"s"`, `5`, `true`, `-`, "{\"k\":1}\x00",
		`{"x":[1,{"y":[true,false,null,"s",{"z":{}}]}],"k":4}`,
		// Wrong types.
		`{"dataset":5}`, `{"k":"5"}`, `{"query":[]}`, `{"query":{"coeffs":{}}}`, `{"query":{"prefilter":1}}`,
		`{"min_score":"1"}`, `{"query":{"coeffs":["1"]}}`, `{"query":{"attrs":[1]}}`, `{"k":true}`, `{"dataset":{"a":1}}`,
	)
}

func FuzzDecodeRequestMatchesJSON(f *testing.F) {
	for _, s := range requestSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		matchesJSON(t, []byte(body), decodeRequest)
	})
}

func FuzzDecodeBatchMatchesJSON(f *testing.F) {
	f.Add(benchBatchBody)
	f.Add(readmeBatchBody)
	for _, s := range requestSeeds() {
		f.Add(batchOf(s))
		f.Add(s) // a request's members are unknown to a batch
	}
	for _, s := range []string{
		`{"requests":[{"dataset":"a","k":3}],"requests":[{"dataset":"b"}]}`,
		`{"requests":[{"k":1},{"k":2},{"k":3}],"requests":[{"k":9}],"requests":[null,null,null]}`,
		`{"Requests":null}`, `{"requests":[]}`, `{"REQUESTS":[null,{}]}`, `{"requests":[1]}`, `{"requests":{}}`,
		emptySlots(maxBatchRequests), emptySlots(maxBatchRequests + 1),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		matchesJSON(t, []byte(body), decodeBatch)
	})
}

// TestWireShapesDecodeIdentically: every request shape bench/ and the
// README send, and the bodies this package's tests send, decode without
// error and exactly as encoding/json decodes them, on both endpoints.
func TestWireShapesDecodeIdentically(t *testing.T) {
	runs := append([]string{readmeRunBody, linearRun, benchRunBody(10)}, benchRunBodies...)
	for _, wr := range wireRequests() {
		runs = append(runs, string(mustMarshal(t, wr)))
	}
	batches := []string{readmeBatchBody, benchBatchBody, batchOf(runs...), string(mustMarshal(t, wireBatch{Requests: wireRequests()}))}
	for _, body := range runs {
		var got, want wireRequest
		if err := decodeRequest([]byte(body), &got); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if err := json.NewDecoder(strings.NewReader(body)).Decode(&want); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s:\n got %+v\nwant %+v (%v)", body, got, want, err)
		}
	}
	for _, body := range batches {
		var got, want wireBatch
		if err := decodeBatch([]byte(body), &got); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if err := json.NewDecoder(strings.NewReader(body)).Decode(&want); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s:\n got %+v\nwant %+v (%v)", body, got, want, err)
		}
	}
}

// TestBatchCapRefusesBeforeAllocating: cap+1 slots answer 413 naming
// the cap, cap slots are served, and a 32 MiB body of empty slots (about
// 11 M, which once sized an allocation each and took the daemon down)
// answers 413 for what a thousand slots cost.
func TestBatchCapRefusesBeforeAllocating(t *testing.T) {
	srv := newServer(stubBackend{})
	rec := post(t, srv, "/batch", strings.NewReader(emptySlots(maxBatchRequests+1)))
	var body wireResult
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("body %q: %v", rec.Body, err)
	}
	if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(body.Error, "1024") {
		t.Fatalf("cap+1 slots: status %d body %s", rec.Code, rec.Body)
	}
	if rec := post(t, srv, "/batch", strings.NewReader(emptySlots(maxBatchRequests))); rec.Code != http.StatusOK {
		t.Fatalf("cap slots: status %d", rec.Code)
	}

	huge := make([]byte, 0, maxBodyBytes)
	huge = append(huge, `{"requests":[{}`...)
	for len(huge)+len(`,{}]}`) <= maxBodyBytes {
		huge = append(huge, `,{}`...)
	}
	huge = append(huge, `]}`...)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rec = post(t, srv, "/batch", bytes.NewReader(huge))
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("%d-byte batch of empty slots: status %d", len(huge), rec.Code)
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 64<<20 {
		t.Fatalf("%d-byte batch of empty slots allocated %d MiB", len(huge), grown>>20)
	}
}

// TestDecodeAllocatesOnlyTheValue pins the warmed decode of the bench
// batch to what the decoded value holds: the requests slice (1), a
// string per dataset, kind, method and lithology (8 + 8 + 1 + 3), the
// coeffs of the three linear slots (3), the scene slot's attrs slice,
// its four names, coeffs, attr_lo, attr_hi and levels (9), a float per
// min_score (3) and the geology sequence (1).
func TestDecodeAllocatesOnlyTheValue(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	const want = 1 + (8 + 8 + 1 + 3) + 3 + 9 + 3 + 1
	data := []byte(benchBatchBody)
	var wb wireBatch
	if n := testing.AllocsPerRun(100, func() {
		wb = wireBatch{}
		if err := decodeBatch(data, &wb); err != nil {
			t.Fatal(err)
		}
	}); n != want {
		t.Errorf("decodeBatch of the bench batch: %v allocs, want %d", n, want)
	}
	if len(wb.Requests) != 8 {
		t.Fatalf("decoded %d requests", len(wb.Requests))
	}
}

// BenchmarkDecodeBatch decodes the bench batch with the decoder and with
// the encoding/json reference it replaced.
func BenchmarkDecodeBatch(b *testing.B) {
	data := []byte(benchBatchBody)
	b.Run("decoder", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var wb wireBatch
			if err := decodeBatch(data, &wb); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var wb wireBatch
			if err := json.NewDecoder(bytes.NewReader(data)).Decode(&wb); err != nil {
				b.Fatal(err)
			}
		}
	})
}
