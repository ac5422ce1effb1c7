package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"modelir"
)

// testEngine builds a small demo engine shared by the endpoint tests.
func testEngine(t *testing.T) *modelir.Engine {
	t.Helper()
	e, err := buildEngine(demoConfig{
		Shards: 4, Tuples: 3000, Scene: 32, Regions: 40, Wells: 30, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func postJSON(t *testing.T, srv *httptest.Server, path string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// wireRequests covers every family through the wire format.
func wireRequests() []wireRequest {
	min := 0.5
	return []wireRequest{
		{Dataset: "tuples", K: 5, Query: wireQuery{Kind: "linear", Coeffs: []float64{0.4, 0.3, 0.3}}},
		{Dataset: "scene", K: 5, Query: wireQuery{Kind: "scene"}},
		{Dataset: "weather", K: 5, Query: wireQuery{Kind: "fsm", Prefilter: true}},
		{Dataset: "weather", K: 5, Query: wireQuery{Kind: "fsm-distance", Horizon: 6}},
		{Dataset: "basin", K: 5, Query: wireQuery{
			Kind: "geology", Sequence: []string{"shale", "sandstone"},
			MaxGapFt: 10, MinGamma: 45, Method: "pruned",
		}},
		{Dataset: "scene", K: 5, Query: wireQuery{Kind: "knowledge", Rules: "hps"}},
		{Dataset: "tuples", K: 3, MinScore: &min, Query: wireQuery{Kind: "linear", Coeffs: []float64{0.4, 0.3, 0.3}}},
	}
}

// TestBatchEndpointMatchesRun is the end-to-end equivalence pin the CI
// smoke job mirrors: POST /batch results must equal what the engine's
// own Run returns for each compiled request, for every family.
func TestBatchEndpointMatchesRun(t *testing.T) {
	engine := testEngine(t)
	srv := httptest.NewServer(newServer(engineBackend{engine: engine}))
	defer srv.Close()

	reqs := wireRequests()
	resp := postJSON(t, srv, "/batch", wireBatch{Requests: reqs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/batch status %d", resp.StatusCode)
	}
	batch := decode[wireBatchResponse](t, resp)
	if len(batch.Results) != len(reqs) {
		t.Fatalf("%d results for %d requests", len(batch.Results), len(reqs))
	}
	for i, wr := range reqs {
		label := fmt.Sprintf("req %d (%s)", i, wr.Query.Kind)
		if batch.Results[i].Error != "" {
			t.Fatalf("%s: %s", label, batch.Results[i].Error)
		}
		req, err := compileRequest(wr)
		if err != nil {
			t.Fatal(err)
		}
		want, err := engine.Run(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		got := batch.Results[i]
		if len(got.Items) != len(want.Items) {
			t.Fatalf("%s: %d vs %d items", label, len(got.Items), len(want.Items))
		}
		for j, it := range want.Items {
			if got.Items[j].ID != it.ID || got.Items[j].Score != it.Score {
				t.Fatalf("%s item %d: %d/%v vs %d/%v",
					label, j, got.Items[j].ID, got.Items[j].Score, it.ID, it.Score)
			}
		}
		if got.Stats.Kind != want.Stats.Kind.String() || got.Stats.Shards != want.Stats.Shards {
			t.Fatalf("%s stats: %+v vs %+v", label, got.Stats, want.Stats)
		}
	}
}

// TestRunEndpoint pins the single-request path plus cache visibility:
// the second identical POST must report a cache hit with identical
// items.
func TestRunEndpoint(t *testing.T) {
	srv := httptest.NewServer(newServer(engineBackend{engine: testEngine(t)}))
	defer srv.Close()

	wr := wireRequest{Dataset: "tuples", K: 5, Query: wireQuery{Kind: "linear", Coeffs: []float64{0.4, 0.3, 0.3}}}
	cold := decode[wireResult](t, postJSON(t, srv, "/run", wr))
	if cold.Error != "" {
		t.Fatal(cold.Error)
	}
	if len(cold.Items) != 5 || cold.Stats.Cache.Hit {
		t.Fatalf("cold run: %+v", cold)
	}
	warm := decode[wireResult](t, postJSON(t, srv, "/run", wr))
	if !warm.Stats.Cache.Hit {
		t.Fatal("repeat run did not hit the cache")
	}
	for i := range cold.Items {
		if warm.Items[i].ID != cold.Items[i].ID || warm.Items[i].Score != cold.Items[i].Score {
			t.Fatalf("hit item %d differs: %+v vs %+v", i, warm.Items[i], cold.Items[i])
		}
	}

	// Geology payloads survive the wire.
	geo := decode[wireResult](t, postJSON(t, srv, "/run", wireRequest{
		Dataset: "basin", K: 3,
		Query: wireQuery{Kind: "geology", Sequence: []string{"shale", "sandstone"}, MaxGapFt: 10, MinGamma: 45},
	}))
	if geo.Error != "" {
		t.Fatal(geo.Error)
	}
	if len(geo.Items) == 0 || len(geo.Items[0].Strata) == 0 {
		t.Fatalf("geology result lost its strata payload: %+v", geo.Items)
	}
}

// TestEndpointErrors pins the HTTP error mapping.
func TestEndpointErrors(t *testing.T) {
	srv := httptest.NewServer(newServer(engineBackend{engine: testEngine(t)}))
	defer srv.Close()

	// Unknown dataset → 404.
	resp := postJSON(t, srv, "/run", wireRequest{Dataset: "nope", K: 3,
		Query: wireQuery{Kind: "linear", Coeffs: []float64{1, 1, 1}}})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown dataset: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Unknown kind → 400.
	resp = postJSON(t, srv, "/run", wireRequest{Dataset: "tuples", Query: wireQuery{Kind: "wat"}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown kind: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Malformed JSON → 400.
	r2, err := http.Post(srv.URL+"/run", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	if r2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: status %d", r2.StatusCode)
	}
	r2.Body.Close()

	// GET /run → 405.
	r3, err := http.Get(srv.URL + "/run")
	if err != nil {
		t.Fatal(err)
	}
	if r3.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /run: status %d", r3.StatusCode)
	}
	r3.Body.Close()

	// A batch with one bad slot still serves the good slots.
	batch := decode[wireBatchResponse](t, postJSON(t, srv, "/batch", wireBatch{Requests: []wireRequest{
		{Dataset: "tuples", K: 3, Query: wireQuery{Kind: "linear", Coeffs: []float64{1, 1, 1}}},
		{Dataset: "tuples", Query: wireQuery{Kind: "wat"}},
	}}))
	if batch.Results[0].Error != "" || len(batch.Results[0].Items) != 3 {
		t.Fatalf("good slot: %+v", batch.Results[0])
	}
	if batch.Results[1].Error == "" {
		t.Fatal("bad slot served")
	}
}

// TestHugeKCostsOnlyTheRows: K comes straight off the request, so it
// must not size an allocation. /run and /batch asking for four billion
// results answer 200 with every row of the dataset, best first, and the
// daemon allocates what the rows cost, not what K asks for.
func TestHugeKCostsOnlyTheRows(t *testing.T) {
	srv := httptest.NewServer(newServer(engineBackend{engine: testEngine(t)}))
	defer srv.Close()
	const rows = 3000 // testEngine's tuples
	run := `{"dataset":"tuples","query":{"kind":"linear","coeffs":[1,2,3]},"k":4000000000}`
	batch := `{"requests":[` + run + `,` +
		`{"dataset":"tuples","query":{"kind":"linear","coeffs":[-1,0.5,2]},"k":4000000000}]}`
	post := func(path, body string) *http.Response {
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s with K 4e9: status %d", path, resp.StatusCode)
		}
		return resp
	}
	everyRow := func(label string, res wireResult) {
		t.Helper()
		if res.Error != "" || len(res.Items) != rows {
			t.Fatalf("%s: %d items (error %q), want all %d rows", label, len(res.Items), res.Error, rows)
		}
		seen := make(map[int64]bool, rows)
		for i, it := range res.Items {
			if seen[it.ID] || it.ID < 0 || it.ID >= rows {
				t.Fatalf("%s: item %d has id %d (repeated or out of range)", label, i, it.ID)
			}
			seen[it.ID] = true
			if i > 0 && it.Score > res.Items[i-1].Score {
				t.Fatalf("%s: not best-first at %d", label, i)
			}
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	everyRow("/run", decode[wireResult](t, post("/run", run)))
	for i, res := range decode[wireBatchResponse](t, post("/batch", batch)).Results {
		everyRow(fmt.Sprintf("/batch slot %d", i), res)
	}
	runtime.ReadMemStats(&after)
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 64<<20 {
		t.Fatalf("three K-4e9 reads over %d rows allocated %d MiB", rows, grown>>20)
	}
}

// TestAppendEndpoint drives live ingest over the wire: appended rows
// are queryable the moment /append returns, /stats reports the bumped
// per-dataset generation, the router role ingests through the
// replicated cluster write path, and the error surface (unknown
// dataset, ambiguous payload, partition down) maps to the right
// statuses.
func TestAppendEndpoint(t *testing.T) {
	engine := testEngine(t)
	srv := httptest.NewServer(newServer(newEngineBackend(engine)))
	defer srv.Close()

	wr := wireRequest{Dataset: "tuples", K: 1, Query: wireQuery{Kind: "linear", Coeffs: []float64{0.4, 0.3, 0.3}}}
	before := decode[wireResult](t, postJSON(t, srv, "/run", wr))
	if before.Error != "" {
		t.Fatal(before.Error)
	}

	// Plant a row that dominates every score; the very next query must
	// surface it (id = prior row count) instead of a stale cached answer.
	resp := postJSON(t, srv, "/append", wireAppend{Dataset: "tuples", Tuples: [][]float64{{1e9, 1e9, 1e9}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/append status %d", resp.StatusCode)
	}
	ar := decode[wireAppendResponse](t, resp)
	if ar.Error != "" || ar.Appended != 1 || ar.Gen != 2 {
		t.Fatalf("/append response %+v", ar)
	}
	after := decode[wireResult](t, postJSON(t, srv, "/run", wr))
	if after.Error != "" {
		t.Fatal(after.Error)
	}
	if after.Stats.Cache.Hit || len(after.Items) != 1 || after.Items[0].ID != 3000 {
		t.Fatalf("appended row not served: %+v", after)
	}

	// /stats carries the per-dataset generation and delta count.
	st := decode[wireServerStats](t, func() *http.Response {
		resp, err := http.Get(srv.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}())
	for _, ds := range st.Datasets {
		switch {
		case ds.Name == "tuples" && (ds.Gen != 2 || ds.Rows != 3001):
			t.Fatalf("tuples after append: %+v", ds)
		case ds.Name != "tuples" && ds.Gen != 1:
			t.Fatalf("append to tuples bumped %s: %+v", ds.Name, ds)
		}
	}

	// Three more one-row appends make a run of four for the tier rule;
	// Close waits the background merge out, and /stats shows it by name.
	for i := 0; i < 3; i++ {
		postJSON(t, srv, "/append", wireAppend{Dataset: "tuples", Tuples: [][]float64{{1, 2, 3}}}).Body.Close()
	}
	if err := engine.Close(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range decode[struct{ Datasets []map[string]any }](t, resp).Datasets {
		if ds["name"] == "tuples" && (ds["deltas"] != 1.0 || ds["compactions"] != 1.0 ||
			ds["merged_segments"] != 4.0 || ds["reindexed_rows"] != 4.0) {
			t.Fatalf("tuples after four appends: %v", ds)
		}
	}

	// Unknown dataset → 404; ambiguous payload → 400; empty → 400.
	resp = postJSON(t, srv, "/append", wireAppend{Dataset: "nope", Tuples: [][]float64{{1, 2, 3}}})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("append to unknown dataset: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp = postJSON(t, srv, "/append", wireAppend{
		Dataset: "tuples", Tuples: [][]float64{{1, 2, 3}}, Wells: []modelir.WellLog{{Well: 1}},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("two payloads: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp = postJSON(t, srv, "/append", wireAppend{Dataset: "tuples"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("no payload: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// The router role ingests through the replicated cluster write
	// path: the appended row is served through the router immediately,
	// and once every replica of the owning partition is down the
	// append maps to 503 with a Retry-After hint.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pts, err := modelir.GenerateTuples(7, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	topo := modelir.ClusterTopology{Nodes: []string{ln.Addr().String()}, Replication: 1}
	node := modelir.NewClusterNode(ln.Addr().String(), topo, modelir.ClusterNodeOptions{Shards: 2})
	if err := node.AddTuples("tuples", pts); err != nil {
		t.Fatal(err)
	}
	node.ServeListener(ln)
	defer node.Close()
	cr := modelir.NewClusterRouter(topo)
	defer cr.Close()
	router := httptest.NewServer(newServer(routerBackend{router: cr, peers: 1}))
	defer router.Close()
	resp = postJSON(t, router, "/append", wireAppend{Dataset: "tuples", Tuples: [][]float64{{1e9, 1e9, 1e9}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("router append: status %d", resp.StatusCode)
	}
	ar = decode[wireAppendResponse](t, resp)
	if ar.Error != "" || ar.Appended != 1 || ar.Seq != 1 {
		t.Fatalf("router append response %+v", ar)
	}
	routed := decode[wireResult](t, postJSON(t, router, "/run", wr))
	if routed.Error != "" || len(routed.Items) != 1 || int(routed.Items[0].ID) != len(pts) {
		t.Fatalf("router-appended row not served: %+v", routed)
	}
	node.Kill()
	resp = postJSON(t, router, "/append", wireAppend{Dataset: "tuples", Tuples: [][]float64{{1, 2, 3}}})
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("append with every replica down: status %d Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	resp.Body.Close()
}

// TestSingleRoleRefusesAppendToken: the single role keeps no token
// record, so a tokened /append (whose retry would otherwise append
// twice) is refused with 400 naming the router role, and no row lands.
func TestSingleRoleRefusesAppendToken(t *testing.T) {
	engine := testEngine(t)
	srv := httptest.NewServer(newServer(newEngineBackend(engine)))
	defer srv.Close()

	rows := func() int {
		for _, ds := range engine.Datasets() {
			if ds.Name == "tuples" {
				return ds.Rows
			}
		}
		t.Fatal("no tuples dataset")
		return 0
	}
	before := rows()
	for i := 0; i < 2; i++ { // a client retry sends the same body again
		resp := postJSON(t, srv, "/append", wireAppend{Dataset: "tuples", Tuples: [][]float64{{1, 2, 3}}, Token: "t-1"})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("tokened append to the single role: status %d, want 400", resp.StatusCode)
		}
		if ar := decode[wireAppendResponse](t, resp); !strings.Contains(ar.Error, "router") {
			t.Fatalf("refusal %q does not name the router role", ar.Error)
		}
	}
	if got := rows(); got != before {
		t.Fatalf("refused appends changed the rows: %d -> %d", before, got)
	}
}

// TestRouterRoleBatchMatchesSingle is the cluster e2e pin the CI smoke
// job mirrors with real processes: the same /batch against a
// router-role server over two nodes and against a single-role server
// must produce identical items for every family.
func TestRouterRoleBatchMatchesSingle(t *testing.T) {
	cfg := demoConfig{Shards: 2, Tuples: 3000, Scene: 32, Regions: 40, Wells: 30, Seed: 7}
	data, err := buildDemoData(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Bind first so the topology is built from real addresses.
	lns := make([]net.Listener, 2)
	addrs := make([]string, 2)
	for i := range lns {
		if lns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		addrs[i] = lns[i].Addr().String()
	}
	topo := modelir.ClusterTopology{Nodes: addrs, Replication: 1}
	for i := range lns {
		n := modelir.NewClusterNode(addrs[i], topo, modelir.ClusterNodeOptions{Shards: cfg.Shards})
		for _, step := range []error{
			n.AddTuples("tuples", data.pts),
			n.AddScene("scene", data.scene),
			n.AddSeries("weather", data.weather),
			n.AddWells("basin", data.wells),
		} {
			if step != nil {
				t.Fatal(step)
			}
		}
		n.ServeListener(lns[i])
		t.Cleanup(n.Close)
	}

	cr := modelir.NewClusterRouter(topo)
	defer cr.Close()
	router := httptest.NewServer(newServer(routerBackend{router: cr, peers: len(addrs)}))
	defer router.Close()
	single := httptest.NewServer(newServer(engineBackend{engine: testEngine(t)}))
	defer single.Close()

	reqs := wireRequests()
	got := decode[wireBatchResponse](t, postJSON(t, router, "/batch", wireBatch{Requests: reqs}))
	want := decode[wireBatchResponse](t, postJSON(t, single, "/batch", wireBatch{Requests: reqs}))
	for i := range reqs {
		label := fmt.Sprintf("req %d (%s)", i, reqs[i].Query.Kind)
		if got.Results[i].Error != "" || want.Results[i].Error != "" {
			t.Fatalf("%s: router=%q single=%q", label, got.Results[i].Error, want.Results[i].Error)
		}
		g, w := got.Results[i].Items, want.Results[i].Items
		if len(g) != len(w) {
			t.Fatalf("%s: %d vs %d items", label, len(g), len(w))
		}
		for j := range w {
			if g[j].ID != w[j].ID || g[j].Score != w[j].Score {
				t.Fatalf("%s item %d: %d/%v vs %d/%v", label, j, g[j].ID, g[j].Score, w[j].ID, w[j].Score)
			}
		}
	}

	// A K past what one result frame can carry is a typed refusal on the
	// router role (the single role answers it with every row, see
	// TestHugeKCostsOnlyTheRows).
	hugeResp := postJSON(t, router, "/run", wireRequest{Dataset: "tuples", K: 1 << 30,
		Query: wireQuery{Kind: "linear", Coeffs: []float64{1, 2, 3}}})
	if huge := decode[wireResult](t, hugeResp); hugeResp.StatusCode != http.StatusBadRequest ||
		!strings.Contains(huge.Error, "wire limit") || len(huge.Items) != 0 {
		t.Fatalf("router role with K 1<<30: status %d, %+v; want 400 and the wire-limit refusal", hugeResp.StatusCode, huge)
	}

	// The router's /stats reports its role, not a phantom engine.
	resp, err := http.Get(router.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	st := decode[wireServerStats](t, resp)
	if st.Role != "router" || st.Peers != len(addrs) {
		t.Fatalf("router stats %+v", st)
	}
	// Every peer is listed and none was re-dialled; a peer the batch
	// reached (placement may home every dataset on one node, and the
	// connection is dialled lazily) has been up since before now.
	connected := 0
	for _, addr := range addrs {
		pc, ok := st.PeerConns[addr]
		if !ok || pc.Reconnects != 0 || (pc.ConnectedSince != nil && pc.ConnectedSince.After(time.Now())) {
			t.Fatalf("peer_conns[%s] = %+v (present %v), want listed, 0 reconnects", addr, pc, ok)
		}
		if pc.ConnectedSince != nil {
			connected++
		}
	}
	if connected == 0 {
		t.Fatalf("no peer connected after a served batch: %+v", st.PeerConns)
	}
}

// TestStatsEndpoint pins /stats, including the dataset enumeration and
// the cached bytes: a miss stores a key, the first hit adds the
// memoised items, and the entry an append invalidates takes its memo
// with it.
func TestStatsEndpoint(t *testing.T) {
	srv := httptest.NewServer(newServer(newEngineBackend(testEngine(t))))
	defer srv.Close()
	stats := func() wireServerStats {
		resp, err := http.Get(srv.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		return decode[wireServerStats](t, resp)
	}

	st := stats()
	if len(st.Datasets) != 4 || st.Shards != 4 {
		t.Fatalf("stats %+v", st)
	}
	names := make([]string, len(st.Datasets))
	for i, ds := range st.Datasets {
		names[i] = ds.Name
		if ds.Kind == "" || ds.Rows <= 0 || ds.Gen != 1 {
			t.Fatalf("dataset %d incomplete: %+v", i, ds)
		}
	}
	if fmt.Sprint(names) != "[basin scene tuples weather]" {
		t.Fatalf("datasets %v, want sorted demo four", names)
	}

	wr := wireRequest{Dataset: "tuples", K: 5, Query: wireQuery{Kind: "linear", Coeffs: []float64{0.4, 0.3, 0.3}}}
	var cached []int
	for _, step := range []string{"miss", "hit", "append", "miss after append"} {
		if step == "append" {
			postJSON(t, srv, "/append", wireAppend{Dataset: "tuples", Tuples: [][]float64{{1, 2, 3}}}).Body.Close()
		} else {
			postJSON(t, srv, "/run", wr).Body.Close()
		}
		cached = append(cached, stats().Cache.Bytes)
	}
	if key, memo := cached[0], cached[1]; key <= 0 || memo <= key || cached[2] != memo || cached[3] != key {
		t.Fatalf("cache.bytes after miss, hit, append, miss: %v", cached)
	}
}

// TestHealthzReadinessGate pins the boot contract: a server without a
// backend answers 503 on /healthz and every serving endpoint, and
// flips to 200 the moment the backend lands.
func TestHealthzReadinessGate(t *testing.T) {
	s := newServer(nil)
	srv := httptest.NewServer(s)
	defer srv.Close()

	for _, probe := range []struct {
		method, path string
	}{
		{http.MethodGet, "/healthz"},
		{http.MethodGet, "/stats"},
		{http.MethodPost, "/run"},
		{http.MethodPost, "/batch"},
		{http.MethodPost, "/admin/snapshot"},
	} {
		req, err := http.NewRequest(probe.method, srv.URL+probe.path, bytes.NewReader([]byte("{}")))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s %s before ready: status %d, want 503", probe.method, probe.path, resp.StatusCode)
		}
	}

	s.setBackend(engineBackend{engine: testEngine(t)}, nil)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	ok := decode[map[string]bool](t, resp)
	if resp.StatusCode != http.StatusOK || !ok["ready"] {
		t.Fatalf("after ready: status %d body %v", resp.StatusCode, ok)
	}
	// Snapshot on demand without -data-dir is refused, not a 500.
	resp = postJSON(t, srv, "/admin/snapshot", struct{}{})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("snapshot without persistence: status %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestDataDirBootAndRestore drives the single role's persistence path
// end to end in-process: a first boot builds the demo archives and
// writes the snapshot, a second boot restores from it, and both serve
// identical answers for every family; POST /admin/snapshot re-persists
// on demand.
func TestDataDirBootAndRestore(t *testing.T) {
	cfg := demoConfig{Shards: 4, Tuples: 3000, Scene: 32, Regions: 40, Wells: 30, Seed: 7}
	dataDir := t.TempDir()

	built, snapFn, err := openOrBuildEngine(cfg, dataDir)
	if err != nil {
		t.Fatal(err)
	}
	if snapFn == nil {
		t.Fatal("persistence enabled but no snapshot hook")
	}
	restored, _, err := openOrBuildEngine(cfg, dataDir)
	if err != nil {
		t.Fatalf("second boot did not restore: %v", err)
	}
	defer restored.Close()

	bs := httptest.NewServer(newServer(engineBackend{engine: built}))
	defer bs.Close()
	rs := httptest.NewServer(newServer(engineBackend{engine: restored}))
	defer rs.Close()
	reqs := wireRequests()
	want := decode[wireBatchResponse](t, postJSON(t, bs, "/batch", wireBatch{Requests: reqs}))
	got := decode[wireBatchResponse](t, postJSON(t, rs, "/batch", wireBatch{Requests: reqs}))
	for i := range reqs {
		label := fmt.Sprintf("req %d (%s)", i, reqs[i].Query.Kind)
		if got.Results[i].Error != "" || want.Results[i].Error != "" {
			t.Fatalf("%s: restored=%q built=%q", label, got.Results[i].Error, want.Results[i].Error)
		}
		g, w := got.Results[i].Items, want.Results[i].Items
		if len(g) != len(w) {
			t.Fatalf("%s: %d vs %d items", label, len(g), len(w))
		}
		for j := range w {
			if g[j].ID != w[j].ID || g[j].Score != w[j].Score {
				t.Fatalf("%s item %d: %d/%v vs %d/%v", label, j, g[j].ID, g[j].Score, w[j].ID, w[j].Score)
			}
		}
	}

	// On-demand snapshot over the built engine succeeds.
	s := newServer(nil)
	s.setBackend(engineBackend{engine: built}, snapFn)
	as := httptest.NewServer(s)
	defer as.Close()
	resp := postJSON(t, as, "/admin/snapshot", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/admin/snapshot: status %d", resp.StatusCode)
	}
	out := decode[map[string]any](t, resp)
	if out["ok"] != true {
		t.Fatalf("/admin/snapshot body %v", out)
	}
}

// TestDebugMuxServesPprof is the -debug-addr smoke test: the debug mux
// serves the pprof index and the registered profile dumps, and is a
// separate handler from the serving surface (no /run, /batch, /stats).
func TestDebugMuxServesPprof(t *testing.T) {
	srv := httptest.NewServer(newDebugMux())
	defer srv.Close()

	for _, path := range []string{
		"/debug/pprof/",
		"/debug/pprof/cmdline",
		"/debug/pprof/goroutine?debug=1",
		"/debug/pprof/heap?debug=1",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if len(body) == 0 {
			t.Fatalf("GET %s: empty body", path)
		}
	}
	// The serving endpoints must NOT exist on the debug surface.
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("debug mux serves /stats (status %d); serving and debug surfaces must stay separate", resp.StatusCode)
	}
}

// freeAddr returns a loopback address nothing listens on at the moment.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// TestNodeRoleServesDebugAddr: -debug-addr is honoured on -role=node,
// whose run never returns while it serves — so a node can be profiled —
// and an address that cannot be bound fails a node's startup.
func TestNodeRoleServesDebugAddr(t *testing.T) {
	node, debug := freeAddr(t), freeAddr(t)
	exited := make(chan error, 1)
	go func() {
		exited <- run([]string{"-role=node", "-addr", node, "-peers", node, "-debug-addr", debug,
			"-tuples", "200", "-scene", "16", "-regions", "5", "-wells", "5", "-shards", "1"})
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get("http://" + debug + "/debug/pprof/")
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
				t.Fatalf("node debug listener: status %d body %.200q", resp.StatusCode, body)
			}
			break
		}
		select {
		case err := <-exited:
			t.Fatalf("node exited: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("node never served /debug/pprof/ on %s: %v", debug, err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	err := run([]string{"-role=node", "-addr", freeAddr(t), "-peers", node, "-debug-addr", "127.0.0.1:bad"})
	if err == nil || !strings.Contains(err.Error(), "debug listener") {
		t.Fatalf("node with an unbindable -debug-addr: %v, want a debug listener error", err)
	}
}
