//go:build linux

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"modelir"
)

func TestPercentileRule(t *testing.T) {
	// The highest percentile reported is the highest with at least ten
	// samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {20, 50}, {100, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	v := make([]float64, 1000)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if got := percentile(v, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (ten samples beyond it)", got)
	}
	if got, used := tail(v[:200], 99); used != 95 || got != 190 {
		t.Errorf("tail of 200 samples = p%v %v, want p95 190", used, got)
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := quartileSpread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

func TestStreamsAreSeeded(t *testing.T) {
	render := func(seed int64) []byte {
		var b bytes.Buffer
		for _, w := range workloads {
			s := newStream(w, frozenSizes, seed, streamOpen)
			for i := 0; i < 200; i++ {
				path, body := s.op(i)
				b.WriteString(path)
				b.Write(body)
			}
			for _, d := range poissonSchedule(seed, streamSchedule, w.OpenRPS, time.Second) {
				b.WriteString(d.String())
			}
			for _, d := range fixedSchedule(seed, streamAppendSchedule, 8, 2*time.Second) {
				b.WriteString(d.String())
			}
			b.Write(mustJSON(appendBatch(w, frozenSizes, seed, 3)))
		}
		return b.Bytes()
	}
	a, again, other := render(1), render(1), render(2)
	if !bytes.Equal(a, again) {
		t.Error("the same seed gave different requests or schedules")
	}
	if bytes.Equal(a, other) {
		t.Error("different seeds gave the same requests and schedules")
	}
	// Every generated request compiles to an engine request.
	for _, w := range workloads {
		s := newStream(w, frozenSizes, 1, streamClosed)
		for i := 0; i < 500; i++ {
			for _, r := range s.requests(i) {
				if _, err := r.compile(); err != nil {
					t.Fatalf("%s request %d: %v", w.Name, i, err)
				}
			}
		}
	}
}

func TestColdRequestsNeverRepeat(t *testing.T) {
	w, _ := workloadByName("cold_mix")
	s := newStream(w, frozenSizes, 1, streamOpen)
	seen := map[string]bool{}
	for i := 0; i < 5000; i++ {
		_, body := s.op(i)
		if seen[string(body)] {
			t.Fatalf("request %d repeats an earlier one: the cache would hit", i)
		}
		seen[string(body)] = true
	}
}

// TestOpenLoopChargesStall pins the due-time accounting: when the
// server stalls, every request that was due during the stall is
// charged the wait, not only the one that was in flight.
func TestOpenLoopChargesStall(t *testing.T) {
	const stall = 200 * time.Millisecond
	const stalled = 20 // the request the server sits on
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/stall" {
			time.Sleep(stall)
		}
		w.Write([]byte("{}"))
	}))
	defer srv.Close()
	// One request every 5 ms on one connection; the stall covers a fifth
	// of them, so the median stays a fast request.
	due := make([]time.Duration, 200)
	for i := range due {
		due[i] = time.Duration(i) * 5 * time.Millisecond
	}
	src := func(i int) (string, []byte) {
		if i == stalled {
			return "/stall", []byte("{}")
		}
		return "/ok", []byte("{}")
	}
	c := newClient(1)
	defer c.CloseIdleConnections()
	p := runOpen(context.Background(), c, srv.URL, src, func(int) bool { return false }, 1, due, time.Second)
	if len(p.samples) != len(due) || p.failed() != 0 {
		t.Fatalf("%d samples, %d failed; want %d, 0", len(p.samples), p.failed(), len(due))
	}
	stallEnd := due[stalled] + stall
	for _, s := range p.samples {
		if s.idx <= stalled || s.due >= stallEnd {
			continue
		}
		// Due while the server stalled: it cannot have completed
		// before the stall ended, and the latency must say so.
		if want := stallEnd - s.due; s.lat < want-5*time.Millisecond {
			t.Errorf("request %d was due %v into the run, inside the stall, but reports %v (want >= %v): coordinated omission", s.idx, s.due, s.lat, want)
		}
	}
	if early := p.samples[stalled-1].lat; early > 50*time.Millisecond {
		t.Errorf("request before the stall took %v", early)
	}
	if f := stallFrac(p); f < 0.15 {
		t.Errorf("stallFrac = %v, want the 200 ms stall to show", f)
	}
}

var smokeSizes = sizes{Tuples: 2000, TupleDims: 8, Scene: 64, Regions: 40, Days: 90, Wells: 30, Stream: 600, StreamDims: 3}

// TestLadderSmoke climbs the in-process ladder on a 2k-row archive and
// checks that every in-process layer metric comes out.
func TestLadderSmoke(t *testing.T) {
	ctx := context.Background()
	ev := &env{runDir: t.TempDir(), nproc: 2, sz: smokeSizes, seed: 1}
	raw, err := generate(ev.seed, ev.sz)
	if err != nil {
		t.Fatal(err)
	}
	eN, err := buildEngine(ctx, raw, modelir.EngineOptions{Shards: ev.nproc})
	if err != nil {
		t.Fatal(err)
	}
	defer eN.Close()
	tr := &tracer{t0: time.Now()}
	m := map[string]float64{}
	w, _ := workloadByName("cluster_mix")
	ladder, err := layerMetrics(ctx, ev, w, raw, eN, tr, m)
	if err != nil {
		t.Fatal(err)
	}
	fromHTTP := func(name string) bool {
		for _, p := range []string{"modelird.", "loadgen.", "trace.", "append_", "read_", "qcache.hit_ratio", "qcache.evictions",
			"qcache.invalidations", "core.deltas_max", "core.read_stall_frac", "cluster.peer_errors", "cluster.unhealthy_peers_end"} {
			if strings.HasPrefix(name, p) {
				return true
			}
		}
		return false
	}
	for _, d := range perLayer {
		if fromHTTP(d.Name) {
			continue
		}
		v, ok := m[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("layer metric %s = %v (present %v)", d.Name, v, ok)
		}
	}
	if len(ladder) != 7 {
		t.Errorf("%d ladder rungs, want 7", len(ladder))
	}
	names := map[string]int{}
	for i, s := range tr.spans {
		names[s.Name]++
		if s.End < s.Start || s.Parent >= len(tr.spans) {
			t.Fatalf("span %d is malformed: %+v", i, s)
		}
		if s.Parent >= 0 && tr.spans[s.Parent].Req != s.Req {
			t.Fatalf("span %d has a parent from another request", i)
		}
	}
	for _, r := range []string{rungRun1, rungRunN, rungRouter} {
		if names[r] != ladderRequests {
			t.Errorf("%d %s spans, want one per ladder request (%d)", names[r], r, ladderRequests)
		}
	}
	for _, r := range []string{rungColstore, rungOnion, rungHit, rungBatch, rungAppend, rungAppender, rungCompact, rungRouterAppend} {
		if names[r] == 0 {
			t.Errorf("no %s spans", r)
		}
	}
}

// TestReferenceAnswersMatchRouter runs the correctness gate's own
// comparison in process: a wire-shaped answer from the in-process
// cluster must equal the reference engine's, and a tampered one must
// not.
func TestSameAnswerDetectsDifference(t *testing.T) {
	ctx := context.Background()
	raw, err := generate(1, smokeSizes)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := buildEngine(ctx, raw, modelir.EngineOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for fi, fam := range families {
		r := genRequest(newRNG(1, streamProbe, uint64(fi)), fam, smokeSizes, false, true)
		req, err := r.compile()
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Run(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		var got wireResult
		for _, it := range want.Items {
			strata, _ := it.Payload.([]int)
			got.Items = append(got.Items, struct {
				ID     int64   `json:"id"`
				Score  float64 `json:"score"`
				Strata []int   `json:"strata"`
			}{it.ID, it.Score, strata})
		}
		body, _ := json.Marshal(got)
		if err := checkBody(ctx, ref, []request{r}, body, false); err != nil {
			t.Errorf("%s: the reference's own answer does not verify: %v", fam, err)
		}
		if len(got.Items) == 0 {
			continue
		}
		got.Items[0].Score = math.Nextafter(got.Items[0].Score, math.Inf(1))
		body, _ = json.Marshal(got)
		if err := checkBody(ctx, ref, []request{r}, body, false); err == nil {
			t.Errorf("%s: a score one ulp off verified", fam)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "read_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "throughput_rps", Better: "higher", Bound: 0.10}
	steady := []float64{1.00, 1.01, 0.99}
	for _, c := range []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lower, steady, []float64{1.05, 1.06, 1.04}, "ok"},
		{lower, steady, []float64{1.20, 1.21, 1.19}, "regressed"},
		{lower, steady, []float64{0.80, 0.81, 0.79}, "ok"},
		{higher, steady, []float64{0.80, 0.81, 0.79}, "regressed"},
		{higher, steady, []float64{1.20, 1.21, 1.19}, "ok"},
		{lower, []float64{0.7, 1.0, 1.3}, []float64{0.75, 1.02, 1.3}, "unresolved"},
	} {
		if _, _, _, got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: verdict %q, want %q", c.d.Name, c.a, c.b, got, c.want)
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the tables
// the benchmark prints from in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside bench/:", err)
	}
	var f struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the endToEnd table:\n%v\n%v", f.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(f.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the perLayer table")
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.Name || f.Workloads[i].Why != w.Why {
			t.Errorf("workload %d is %+v, want %s: %s", i, f.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", w.Name, len(w.Why))
		}
	}
	if len(f.Paths) != 1 || f.Paths[0] != "bench" || f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("paths %v run_seconds %d", f.Paths, f.RunSeconds)
	}
}
