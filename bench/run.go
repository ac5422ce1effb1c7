//go:build linux

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"modelir"
)

// clients is the number of reading goroutines and of the keep-alive
// connections they share. On the workloads with writes the appends
// travel on one more connection of their own.
const clients = 2

// env is what one invocation fixes for all its runs.
type env struct {
	modelird string // path of the modelird binary under test
	runDir   string // scratch directory of this invocation, removed at exit
	outDir   string // where failure logs and trace files are kept
	nproc    int
	sz       sizes
	seed     int64
	seconds  int
}

// stack is one set-up: the daemons serving archive A and the client
// that talks to them.
type stack struct {
	ev      *env
	w       workload
	daemons []*daemon
	base    string // URL prefix of the daemon that serves HTTP
	client  *http.Client

	bootToReady time.Duration // exec of the first daemon to /healthz 200
}

// setUp builds archive A from the raw data, snapshots it, boots
// modelird on the snapshot (single role, or router + 2 nodes at
// replication 2), waits until it is ready and warms it up. Everything
// here is the system's own set-up work; setup_s times this function.
func setUp(ctx context.Context, ev *env, w workload, raw *rawData, n int) (_ *stack, err error) {
	dir := filepath.Join(ev.runDir, fmt.Sprintf("%s-setup%d", w.Name, n))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	conns := clients
	if w.AppendRPS > 0 {
		conns++
	}
	s := &stack{ev: ev, w: w, client: newClient(conns)}
	defer func() {
		if err != nil {
			s.stop(true)
		}
	}()
	ctx, cancel := context.WithTimeout(ctx, 90*time.Second)
	defer cancel()

	if !w.Cluster {
		addrs, err := freeAddrs(1)
		if err != nil {
			return nil, err
		}
		data := filepath.Join(dir, "data")
		if err := snapshotSingle(ctx, raw, ev.nproc, data); err != nil {
			return nil, fmt.Errorf("build and snapshot: %w", err)
		}
		boot := time.Now()
		d, err := startDaemon(ev.modelird, dir, "single", addrs[0], "-role", "single", "-data-dir", data)
		if err != nil {
			return nil, err
		}
		s.daemons = append(s.daemons, d)
		s.base = "http://" + addrs[0]
		if err := waitHealthz(ctx, s.client, addrs[0]); err != nil {
			return nil, err
		}
		s.bootToReady = time.Since(boot)
	} else {
		addrs, err := freeAddrs(3)
		if err != nil {
			return nil, err
		}
		peers := addrs[1] + "," + addrs[2]
		topo := modelir.ClusterTopology{Nodes: addrs[1:], Replication: 2}
		dirs, err := snapshotCluster(ctx, raw, topo, ev.nproc, dir)
		if err != nil {
			return nil, fmt.Errorf("build and snapshot nodes: %w", err)
		}
		boot := time.Now()
		for i, a := range topo.Nodes {
			d, err := startDaemon(ev.modelird, dir, fmt.Sprintf("node%d", i), a,
				"-role", "node", "-peers", peers, "-replication", "2", "-data-dir", dirs[i])
			if err != nil {
				return nil, err
			}
			s.daemons = append(s.daemons, d)
		}
		for _, a := range topo.Nodes {
			if err := waitListening(ctx, a); err != nil {
				return nil, err
			}
		}
		d, err := startDaemon(ev.modelird, dir, "router", addrs[0], "-role", "router", "-peers", peers, "-replication", "2")
		if err != nil {
			return nil, err
		}
		s.daemons = append(s.daemons, d)
		s.base = "http://" + addrs[0]
		if err := waitHealthz(ctx, s.client, addrs[0]); err != nil {
			return nil, err
		}
		s.bootToReady = time.Since(boot)
	}
	if err := s.warmUp(ctx); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return s, nil
}

// warmUp sends warmupOps operations of the workload's own kind, so
// that connections are open, the runtime has grown its heap, and on
// hot_batch every pool member is cached. It sends no appends: dataset
// growth starts with the first timed phase.
func (s *stack) warmUp(ctx context.Context) error {
	st := newStream(s.w, s.ev.sz, s.ev.seed, streamWarm)
	src := st.op
	if s.w.Batch {
		// The first poolSize/batchWidth operations cover the pool once.
		cover := poolSize / batchWidth
		src = func(i int) (string, []byte) {
			if i < cover {
				return "/batch", mustJSON(batchBody{Requests: st.pool[i*batchWidth : (i+1)*batchWidth]})
			}
			return st.op(i)
		}
	}
	due := make([]time.Duration, warmupOps) // all due at once: as fast as two connections go
	p := runOpen(ctx, s.client, s.base, src, func(int) bool { return false }, clients, due, time.Hour)
	for _, sm := range p.samples {
		if !sm.ok() {
			return sm.err
		}
	}
	return nil
}

// stop kills the stack's daemons and waits for them. Only one stack is
// alive at a time, so killing every tracked process is exact. On
// failure the daemons' stderr is kept under the output directory.
func (s *stack) stop(failed bool) {
	s.client.CloseIdleConnections()
	running.killAll()
	if !failed {
		return
	}
	if err := os.MkdirAll(s.ev.outDir, 0o755); err != nil {
		return
	}
	for _, d := range s.daemons {
		if b, err := os.ReadFile(d.log); err == nil && len(b) > 0 {
			dst := filepath.Join(s.ev.outDir, s.w.Name+"-"+filepath.Base(d.log))
			if os.WriteFile(dst, b, 0o644) == nil {
				fmt.Fprintf(os.Stderr, "bench: kept daemon stderr in %s\n", dst)
			}
		}
	}
}

func (s *stack) cpuSeconds() (float64, error) {
	total := 0.0
	for _, d := range s.daemons {
		v, err := d.cpuSeconds()
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

func (s *stack) peakRSSMB() (float64, error) {
	total := 0.0
	for _, d := range s.daemons {
		v, err := d.peakRSSMB()
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// serverStats is the part of GET /stats the benchmark reads.
type serverStats struct {
	PeerHealth map[string]string `json:"peer_health"`
	PeerErrors map[string]string `json:"peer_errors"`
	Datasets   []struct {
		Name   string `json:"name"`
		Deltas int    `json:"deltas"`
	} `json:"datasets"`
	Cache struct {
		Hits          uint64 `json:"hits"`
		Misses        uint64 `json:"misses"`
		Evictions     uint64 `json:"evictions"`
		Invalidations uint64 `json:"invalidations"`
	} `json:"cache"`
}

func (s *stack) stats(ctx context.Context) (serverStats, error) {
	var out serverStats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/stats", nil)
	if err != nil {
		return out, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return out, err
	}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("/stats: status %d", resp.StatusCode)
	}
	return out, json.Unmarshal(b, &out)
}

// phases is the outcome of the timed part of a run.
type phases struct {
	closedD, openD time.Duration
	closed, open   phaseResult // reads
	appends        phaseResult // through both phases; offsets run from the closed phase's start
	cpuSeconds     float64     // daemons' user+system CPU over both phases
	stealFrac      float64     // share of the guest's CPU time the host took away meanwhile
	closedStream   *stream
	openStream     *stream
}

// openAppends is the part of the append stream that was due during the
// open phase.
func (p *phases) openAppends() phaseResult {
	var out phaseResult
	for _, s := range p.appends.samples {
		if s.due >= p.closedD {
			out.samples = append(out.samples, s)
		}
	}
	return out
}

// info is what the timed phases measured beside the bounded metrics:
// the open phase's latency percentiles from due time, how late the
// generator ran, and how much CPU time the host took away.
func (p *phases) info() map[string]float64 {
	late := make([]time.Duration, len(p.open.samples))
	for i, s := range p.open.samples {
		late[i] = s.late
	}
	lateMS := sortedIn(late, ms)
	appendMS := sortedIn(p.appends.okLatencies(), ms)
	out := map[string]float64{
		"loadgen.late_p50_ms": percentile(lateMS, 50),
		"loadgen.late_p99_ms": percentile(lateMS, 99),
		"loadgen.backlog_end": float64(p.open.backlog),
		"append_p50_ms":       percentile(appendMS, 50),
		"host_steal_frac":     p.stealFrac,
	}
	out["read_p50_ms"], _ = windowedPercentile(p.open, p.openD, 50)
	out["read_p99_ms"], out["read_tail_percentile"] = windowedPercentile(p.open, p.openD, 99)
	out["append_p95_ms"], out["append_tail_percentile"] = tail(appendMS, 95)
	return out
}

// okOps counts successful operations over both phases.
func (p *phases) okOps() int {
	return len(p.closed.okLatencies()) + len(p.open.okLatencies()) + len(p.appends.okLatencies())
}

// runPhases drives the closed phase (each client sends its next read
// when the last returns) and then the open phase (reads on a seeded
// Poisson schedule at the workload's frozen rate). On the workloads
// with writes a third connection carries appends on a fixed seeded
// schedule through both phases, so that dataset growth is the same
// function of time on every commit.
// keepAll keeps every response body (the traced run reads their stats).
// pass tells apart the passes of one run over one daemon, so that a
// later pass repeats neither requests nor append tokens of an earlier.
func runPhases(ctx context.Context, s *stack, closedD, openD time.Duration, keepAll bool, pass int) (*phases, error) {
	ev, w := s.ev, s.w
	p := &phases{
		closedD: closedD, openD: openD,
		closedStream: newStream(w, ev.sz, ev.seed, streamClosed+streamsPerPass*uint64(pass)),
		openStream:   newStream(w, ev.sz, ev.seed, streamOpen+streamsPerPass*uint64(pass)),
	}
	keep := func(i int) bool { return keepAll || i%verifyEvery == 0 }
	var wg sync.WaitGroup
	cpu0, err := s.cpuSeconds()
	if err != nil {
		return nil, err
	}
	steal0, total0 := hostCPU()
	if w.AppendRPS > 0 {
		total := closedD + openD
		due := fixedSchedule(ev.seed, streamAppendSchedule, w.AppendRPS, total)
		src := func(i int) (string, []byte) {
			return "/append", mustJSON(appendBatch(w, ev.sz, ev.seed, pass*appendsPerPass+i))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.appends = runOpen(ctx, s.client, s.base, src, func(int) bool { return false }, 1, due, total)
		}()
	}
	p.closed = runClosed(ctx, s.client, s.base, p.closedStream.op, keep, clients, closedD)
	due := poissonSchedule(ev.seed, streamSchedule, w.OpenRPS, openD)
	p.open = runOpen(ctx, s.client, s.base, p.openStream.op, keep, clients, due, openD)
	wg.Wait()
	cpu1, err := s.cpuSeconds()
	if err != nil {
		return nil, err
	}
	p.cpuSeconds = cpu1 - cpu0
	if steal1, total1 := hostCPU(); total1 > total0 {
		p.stealFrac = (steal1 - steal0) / (total1 - total0)
	}
	return p, ctx.Err()
}

// runResult is what one run reports.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   int                `json:"seconds"`
	Trace     int                `json:"trace"`
	Stamp     stamp              `json:"stamp"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Samples   map[string]int     `json:"samples"`
	Notes     []string           `json:"notes,omitempty"`
	// Info holds measured numbers that carry no bound (see phases.info).
	Info map[string]float64 `json:"info,omitempty"`
}

func (r *runResult) note(format string, a ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, a...))
}

// account folds one phase's attempts and failures into the result and
// notes the first failure.
func (r *runResult) account(name string, p phaseResult) {
	r.Attempted += len(p.samples)
	r.Failed += p.failed()
	r.Samples[name] = len(p.samples)
	for _, s := range p.samples {
		if !s.ok() {
			r.note("%s operation %d failed: %v", name, s.idx, s.err)
			break
		}
	}
}

// mismatches folds verification outcomes into the result: a wrong
// answer is a failed operation.
func (r *runResult) mismatches(checked int, bad []error) {
	r.Samples["verified"] += checked
	r.Failed += len(bad)
	if len(bad) > 0 {
		r.Correct = false
		r.note("%d of %d compared answers differ from the reference; first: %v", len(bad), checked, bad[0])
	}
}

// splitSeconds divides a run's measured time into its two phases.
func splitSeconds(seconds float64) (closedD, openD time.Duration) {
	closedD = time.Duration(seconds * closedShare * float64(time.Second))
	return closedD, time.Duration(seconds*float64(time.Second)) - closedD
}

// runUntraced measures the end-to-end metrics of one workload.
func runUntraced(ctx context.Context, ev *env, w workload) (*runResult, error) {
	res := &runResult{Correct: true, Metrics: map[string]float64{}, Samples: map[string]int{}}
	raw, err := generate(ev.seed, ev.sz)
	if err != nil {
		return nil, err
	}
	ref, err := buildEngine(ctx, raw, modelir.EngineOptions{Shards: ev.nproc})
	if err != nil {
		return nil, fmt.Errorf("reference engine: %w", err)
	}
	defer ref.Close()

	// Several set-ups, so that setup_s is a median; the last one serves.
	var setups []float64
	var st *stack
	for i := 0; i < setupRepeats; i++ {
		if st != nil {
			st.stop(false)
		}
		t0 := time.Now()
		if st, err = setUp(ctx, ev, w, raw, i); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	failed := true
	defer func() { st.stop(failed) }()

	closedD, openD := splitSeconds(float64(ev.seconds))
	p, err := runPhases(ctx, st, closedD, openD, false, 0)
	if err != nil {
		return nil, err
	}
	rss, err := st.peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.account("reads_closed", p.closed)
	res.account("reads_open", p.open)
	res.account("appends", p.appends)
	if err := verifyRun(ctx, ev, st, ref, p, res); err != nil {
		return nil, err
	}

	openAppends := p.openAppends()
	sent := len(p.open.samples) + len(openAppends.samples)
	m := res.Metrics
	m["setup_s"] = median(setups)
	m["throughput_rps"] = windowThroughput(p.closed, closedD)
	m["slo_ok_frac"] = float64(p.open.withinLimit(readLimit)+openAppends.withinLimit(appendLimit)) / float64(max(sent, 1))
	m["cpu_ms_per_req"] = 1000 * p.cpuSeconds / float64(max(p.okOps(), 1))
	m["peak_rss_mb"] = rss
	res.Info = p.info()
	sort.Float64s(setups)
	res.Info["setup_min_s"], res.Info["setup_max_s"] = setups[0], setups[len(setups)-1]
	failed = !res.Correct || res.Failed > 0
	return res, nil
}

// verifyRun is the correctness gate. Read-only workloads compare every
// verifyEvery-th response with the reference engine. On the workloads
// with writes the archive moves under the reads, so once the timed
// phases are over the reference applies the same append batches in the
// same order and quiesceQueries fixed queries are compared.
func verifyRun(ctx context.Context, ev *env, st *stack, ref *modelir.Engine, p *phases, res *runResult) error {
	if st.w.AppendRPS == 0 {
		res.mismatches(verifyKept(ctx, ref, p.closedStream, p.closed))
		res.mismatches(verifyKept(ctx, ref, p.openStream, p.open))
		return nil
	}
	if p.appends.failed() > 0 {
		res.Correct = false
		res.note("an append failed, so the served archive cannot be reproduced for comparison")
		return nil
	}
	for i := range p.appends.samples {
		if err := ref.AppendTuples("stream", appendBatch(st.w, ev.sz, ev.seed, i).Tuples); err != nil {
			return fmt.Errorf("reference append: %w", err)
		}
	}
	// Half the queries follow the workload's own mix, half are linear
	// reads of the dataset that grew.
	grown := st.w
	grown.Mix, grown.StreamShare = map[string]float64{"linear": 1}, 1
	streams := []*stream{newStream(st.w, ev.sz, ev.seed, streamQuiesce), newStream(grown, ev.sz, ev.seed, streamQuiesce)}
	var bad []error
	for i := 0; i < quiesceQueries; i++ {
		qs := streams[i%2]
		path, body := qs.op(i)
		resp, err := post(ctx, st.client, st.base+path, body)
		if err == nil {
			err = checkBody(ctx, ref, qs.requests(i), resp, false)
		}
		if err != nil {
			bad = append(bad, fmt.Errorf("quiesced query %d: %w", i, err))
		}
	}
	res.Attempted += quiesceQueries
	res.mismatches(quiesceQueries, bad)
	return nil
}
