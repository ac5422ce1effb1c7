package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"modelir"
)

// memoBodies is a hot_batch-shaped set of /run bodies over the demo
// datasets plus "stream": all six families, K up to 64, geology strata.
var memoBodies = []string{
	`{"dataset":"tuples","query":{"kind":"linear","coeffs":[0.8462957357049219,-1.2398173449206714,0.11983216720839577]},"k":64}`,
	`{"dataset":"scene","query":{"kind":"scene"},"k":64}`,
	`{"dataset":"scene","query":{"kind":"knowledge"},"k":64,"min_score":0.01}`,
	`{"dataset":"weather","query":{"kind":"fsm"},"k":64,"min_score":0.004117}`,
	`{"dataset":"weather","query":{"kind":"fsm-distance","horizon":9},"k":64}`,
	`{"dataset":"basin","query":{"kind":"geology","sequence":["shale","sandstone"],"max_gap_ft":10,"min_gamma":45,"method":"pruned"},"k":64}`,
	`{"dataset":"stream","query":{"kind":"linear","coeffs":[-0.7302843927400318,1.0041,0.25]},"k":17}`,
	`{"dataset":"basin","query":{"kind":"geology","sequence":["shale","sandstone"],"max_gap_ft":10,"min_gamma":45,"method":"dp"},"k":3}`,
}

// memoFixture serves the demo datasets plus "stream" from a caching
// engine; ref holds the same data with the cache off.
type memoFixture struct {
	srv         *server
	engine, ref *modelir.Engine
}

func newMemoFixture(t *testing.T) *memoFixture {
	t.Helper()
	stream, err := modelir.GenerateTuples(11, 600, 3)
	if err != nil {
		t.Fatal(err)
	}
	fx := &memoFixture{engine: testEngine(t)}
	if fx.ref, err = buildEngine(demoConfig{Shards: 4, Cache: -1, Tuples: 3000, Scene: 32, Regions: 40, Wells: 30, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	for _, e := range []*modelir.Engine{fx.engine, fx.ref} {
		if err := e.AddTuples("stream", append([][]float64(nil), stream...)); err != nil {
			t.Fatal(err)
		}
	}
	fx.srv = newServer(newEngineBackend(fx.engine))
	return fx
}

// want is a fresh appendItems of the reference engine's answer.
func (fx *memoFixture) want(t *testing.T, body string) []byte {
	t.Helper()
	var wr wireRequest
	if err := json.Unmarshal([]byte(body), &wr); err != nil {
		t.Fatal(err)
	}
	req, err := compileRequest(wr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fx.ref.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) == 0 {
		t.Fatalf("%s: empty answer exercises nothing", body)
	}
	b, err := appendItems(nil, res.Items)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// slot is one served result: its items bytes and whether it was a hit.
type slot struct {
	items []byte
	hit   bool
}

func parseSlot(t *testing.T, raw []byte) slot {
	t.Helper()
	end := bytes.Index(raw, []byte(`,"stats":`))
	if !bytes.HasPrefix(raw, []byte(`{"items":`)) || end < 0 {
		t.Fatalf("not a result: %s", raw)
	}
	var r wireResult
	if err := json.Unmarshal(raw, &r); err != nil {
		t.Fatalf("result %s: %v", raw, err)
	}
	return slot{items: raw[len(`{"items":`):end], hit: r.Stats.Cache.Hit}
}

func (fx *memoFixture) run(t *testing.T, body string) slot {
	t.Helper()
	rec := post(t, fx.srv, "/run", strings.NewReader(body))
	if rec.Code != http.StatusOK {
		t.Fatalf("/run %s: status %d %s", body, rec.Code, rec.Body)
	}
	return parseSlot(t, rec.Body.Bytes())
}

func (fx *memoFixture) batch(t *testing.T, bodies []string) []slot {
	t.Helper()
	rec := post(t, fx.srv, "/batch", strings.NewReader(`{"requests":[`+strings.Join(bodies, ",")+`]}`))
	var resp struct{ Results []json.RawMessage }
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); rec.Code != http.StatusOK || err != nil {
		t.Fatalf("/batch: status %d %v %s", rec.Code, err, rec.Body)
	}
	out := make([]slot, len(resp.Results))
	for i, raw := range resp.Results {
		out[i] = parseSlot(t, raw)
	}
	return out
}

// check compares one served slot with the fresh encoding and its hit
// flag with wantHit.
func check(t *testing.T, label string, got slot, want []byte, wantHit bool) {
	t.Helper()
	if !bytes.Equal(got.items, want) {
		t.Fatalf("%s: items\n got %s\nwant %s", label, got.items, want)
	}
	if got.hit != wantHit {
		t.Fatalf("%s: hit %v, want %v", label, got.hit, wantHit)
	}
}

// TestItemsMemoMatchesFreshEncode serves every family through /run and
// /batch, a miss and then two hits, and requires the items bytes of
// every response to equal a fresh appendItems of the same items; then
// an /append to stream must retire every pre-append fragment.
func TestItemsMemoMatchesFreshEncode(t *testing.T) {
	fx := newMemoFixture(t)
	wants := make([]string, len(memoBodies))
	for i, body := range memoBodies {
		wants[i] = string(fx.want(t, body))
		for pass := 0; pass < 3; pass++ {
			check(t, "/run "+body, fx.run(t, body), []byte(wants[i]), pass > 0)
		}
	}

	fx = newMemoFixture(t)
	for pass := 0; pass < 3; pass++ {
		for i, got := range fx.batch(t, memoBodies) {
			check(t, "/batch "+memoBodies[i], got, []byte(wants[i]), pass > 0)
		}
	}

	// Plant a dominating row in stream: no pre-append fragment may be
	// served again, through either endpoint.
	streamBody := memoBodies[6]
	stale := wants[6]
	row := [][]float64{{1e9, 1e9, 1e9}}
	if rec := post(t, fx.srv, "/append", strings.NewReader(`{"dataset":"stream","tuples":[[1e9,1e9,1e9]]}`)); rec.Code != http.StatusOK {
		t.Fatalf("/append: status %d %s", rec.Code, rec.Body)
	}
	if err := fx.ref.AppendTuples("stream", row); err != nil {
		t.Fatal(err)
	}
	fresh := fx.want(t, streamBody)
	if string(fresh) == stale {
		t.Fatal("the planted row did not change the answer")
	}
	for pass := 0; pass < 3; pass++ {
		check(t, "/run after append", fx.run(t, streamBody), fresh, pass > 0)
		got := fx.batch(t, memoBodies)
		check(t, "/batch after append", got[6], fresh, true)
		for i := range got {
			if i != 6 {
				check(t, "/batch beside append "+memoBodies[i], got[i], []byte(wants[i]), true)
			}
		}
	}
}

// TestItemsMemoConcurrentFirstHit makes the first hit of every entry
// from many goroutines at once (run it under -race): all of them must
// serve the same items bytes, equal to a fresh encoding.
func TestItemsMemoConcurrentFirstHit(t *testing.T) {
	const n = 8
	fx := newMemoFixture(t)
	for i, got := range fx.batch(t, memoBodies) {
		check(t, "miss", got, fx.want(t, memoBodies[i]), false)
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	runs := make([][][]byte, n)
	batches := make([][]byte, n)
	serve := func(path, body string) []byte {
		rec := httptest.NewRecorder()
		fx.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return rec.Body.Bytes()
	}
	batchBody := `{"requests":[` + strings.Join(memoBodies, ",") + `]}`
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			// Odd goroutines open with /batch, so /run and /batch race
			// for the same first hits.
			if g%2 == 1 {
				batches[g] = serve("/batch", batchBody)
			}
			for i := range memoBodies {
				runs[g] = append(runs[g], serve("/run", memoBodies[(i+g)%len(memoBodies)]))
			}
			if g%2 == 0 {
				batches[g] = serve("/batch", batchBody)
			}
		}(g)
	}
	close(start)
	wg.Wait()
	for g := 0; g < n; g++ {
		var resp struct{ Results []json.RawMessage }
		if err := json.Unmarshal(batches[g], &resp); err != nil || len(resp.Results) != len(memoBodies) {
			t.Fatalf("concurrent /batch: %v %s", err, batches[g])
		}
		for i := range memoBodies {
			j := (i + g) % len(memoBodies)
			check(t, "concurrent /run "+memoBodies[j], parseSlot(t, runs[g][i]), fx.want(t, memoBodies[j]), true)
			check(t, "concurrent /batch "+memoBodies[i], parseSlot(t, resp.Results[i]), fx.want(t, memoBodies[i]), true)
		}
	}
}

// TestItemsMemoSkipsForeignFlooredRun runs a request first with a
// foreign floor folded into its MinScore, which prunes part of its
// answer (as a cluster node does inside a scatter): the run is stored
// under the floor only, so /run misses and serves, then memoises, the
// full answer.
func TestItemsMemoSkipsForeignFlooredRun(t *testing.T) {
	fx := newMemoFixture(t)
	body := memoBodies[0]
	var wr wireRequest
	if err := json.Unmarshal([]byte(body), &wr); err != nil {
		t.Fatal(err)
	}
	req, err := compileRequest(wr)
	if err != nil {
		t.Fatal(err)
	}
	full, err := fx.ref.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	floored := req
	floored.MinScore = &full.Items[3].Score
	cut, err := fx.engine.Run(context.Background(), floored)
	if err != nil {
		t.Fatal(err)
	}
	if len(cut.Items) >= len(full.Items) {
		t.Fatalf("foreign floor pruned nothing: %d items", len(cut.Items))
	}
	if _, err := cut.AppendItems(nil, appendItems); err != nil {
		t.Fatal(err)
	}
	want := fx.want(t, body)
	for pass := 0; pass < 3; pass++ {
		check(t, "/run after a foreign-floored run", fx.run(t, body), want, pass > 0)
	}
}

// nanBackend serves every request as a linear query whose NaN
// intercept makes every score unencodable, through the real engine
// and its cache.
type nanBackend struct{ engineBackend }

func (b nanBackend) nan(req modelir.Request) modelir.Request {
	nan, err := compileRequest(wireRequest{Dataset: "tuples", K: req.K,
		Query: wireQuery{Kind: "linear", Coeffs: []float64{1, 1, 1}, Intercept: math.NaN()}})
	if err != nil {
		panic(err)
	}
	return nan
}

func (b nanBackend) Run(ctx context.Context, req modelir.Request) (modelir.Result, error) {
	return b.engine.Run(ctx, b.nan(req))
}

func (b nanBackend) RunBatch(ctx context.Context, reqs []modelir.Request) ([]modelir.BatchResult, error) {
	for i := range reqs {
		reqs[i] = b.nan(reqs[i])
	}
	return b.engine.RunBatch(ctx, reqs)
}

// TestItemsMemoNotKeptOnEncodeFailure serves a cached result whose
// scores JSON cannot carry: the miss and every hit are refused alike,
// because a failed encoding leaves no memo behind.
func TestItemsMemoNotKeptOnEncodeFailure(t *testing.T) {
	engine := testEngine(t)
	srv := newServer(nanBackend{engineBackend{engine: engine}})
	var stored int
	for pass := 0; pass < 3; pass++ {
		rec := post(t, srv, "/run", strings.NewReader(linearRun))
		if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "NaN") {
			t.Fatalf("/run pass %d: status %d %s", pass, rec.Code, rec.Body)
		}
		if pass == 0 {
			stored = engine.CacheStats().Bytes
		}
		rec = post(t, srv, "/batch", strings.NewReader(`{"requests":[`+linearRun+`]}`))
		var resp wireBatchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || len(resp.Results) != 1 ||
			!strings.Contains(resp.Results[0].Error, "NaN") {
			t.Fatalf("/batch pass %d: status %d %v %s", pass, rec.Code, err, rec.Body)
		}
	}
	if st := engine.CacheStats(); st.Hits != 5 || st.Entries != 1 || st.Bytes != stored {
		t.Fatalf("cache %+v: want 5 hits on one entry holding its %d key bytes only", st, stored)
	}
}

// replayBody is a request body the allocation pin can serve again.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// discardWriter is a ResponseWriter that keeps only the status and the
// body length, so the pin counts the handler's allocations alone.
type discardWriter struct {
	h       http.Header
	code, n int
}

func (w *discardWriter) Header() http.Header { return w.h }

func (w *discardWriter) WriteHeader(code int) { w.code = code }

func (w *discardWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// TestBatchHitAllocs pins the allocations of a warmed, bench-shaped
// /batch whose eight slots all hit the cache, through the handler. What
// is left is decoding and compiling the requests, cloning the hit items
// for the caller (40 here: an items slice per slot and one per geology
// strata payload), the result slice and the net/http plumbing; the key
// bytes, the cache lookup and the items encoding allocate nothing.
func TestBatchHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	const want = 87
	fx := newMemoFixture(t)
	payload := []byte(`{"requests":[` + strings.Join(memoBodies, ",") + `]}`)
	body := new(replayBody)
	req := httptest.NewRequest(http.MethodPost, "/batch", nil)
	w := &discardWriter{h: make(http.Header)}
	serve := func() {
		body.Reset(payload)
		req.Body = body
		w.code, w.n = 0, 0
		fx.srv.ServeHTTP(w, req)
	}
	for i := 0; i < 3; i++ {
		serve() // a miss, the first hits, and pools warmed
	}
	if st := fx.engine.CacheStats(); w.code != http.StatusOK || st.Entries != len(memoBodies) {
		t.Fatalf("warm-up: status %d, %d entries", w.code, st.Entries)
	}
	hits := fx.engine.CacheStats().Hits
	if n := testing.AllocsPerRun(100, serve); n != want {
		t.Errorf("all-hit /batch of %d slots: %v allocs, want %d", len(memoBodies), n, want)
	}
	if got := fx.engine.CacheStats().Hits - hits; got != 101*uint64(len(memoBodies)) {
		t.Fatalf("%d hits, want every slot of every run to hit", got)
	}
}
