//go:build linux

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"modelir"
	"modelir/internal/colstore"
	"modelir/internal/fsm"
	"modelir/internal/onion"
	"modelir/internal/progressive"
	"modelir/internal/sproc"
	"modelir/internal/topk"
)

// The traced run measures every layer from outside: it calls the
// layers' public functions from here, one rung deeper at a time, and
// reads the HTTP responses' own stats and /stats. Spans inside the
// program are a later change; the names below are the ones it keeps.

// span is one rung of one request's ladder. Start and End are
// nanoseconds since the trace began; Parent indexes the span of the
// rung that contains this one (-1 at the top of a chain).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// The rungs of the read ladder, deepest first. A layer's self time is
// its rung minus the next one down along chainRungs; the hit and batch
// rungs are the same request through the serving shortcuts and stand
// beside the chain.
const (
	rungColstore = "colstore.scan"
	rungOnion    = "onion.scan"
	rungRun1     = "engine.run.s1"
	rungRunN     = "engine.run.sN"
	rungHit      = "engine.run.hit"
	rungBatch    = "engine.runbatch"
	rungRouter   = "router.run"
	// and of the write ladder
	rungAppend       = "engine.append"
	rungAppender     = "appender.append"
	rungCompact      = "engine.compact"
	rungRouterAppend = "router.append"
)

var chainRungs = []string{rungColstore, rungOnion, rungRun1, rungRunN, rungRouter}

// tracer collects spans in memory; they are written out when the run
// ends.
type tracer struct {
	t0    time.Time
	spans []span
}

// timed runs f as rung name of request req and records its span.
func (t *tracer) timed(name string, req int, f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	end := time.Now()
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Parent: -1, Req: req})
	return end.Sub(start), err
}

// link points each chain rung of the spans appended since `from` at
// the next rung up that the same request climbed.
func (t *tracer) link(from int) {
	at := map[string]int{}
	for i := from; i < len(t.spans); i++ {
		at[t.spans[i].Name] = i
	}
	for ci, name := range chainRungs[:len(chainRungs)-1] {
		i, ok := at[name]
		if !ok {
			continue
		}
		for _, up := range chainRungs[ci+1:] {
			if j, ok := at[up]; ok {
				t.spans[i].Parent = j
				break
			}
		}
	}
}

// localCluster is an in-process router over loopback nodes.
type localCluster struct {
	nodes  []*modelir.ClusterNode
	router *modelir.ClusterRouter
}

func (c *localCluster) close() {
	c.router.Close()
	for _, n := range c.nodes {
		n.Close()
	}
}

// startCluster serves register's datasets from two loopback nodes.
func startCluster(replication, shards int, register func(archiveSink) error) (*localCluster, error) {
	lns := make([]net.Listener, 2)
	addrs := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	topo := modelir.ClusterTopology{Nodes: addrs, Replication: replication}
	nodes, err := buildNodes(topo, shards, register)
	if err != nil {
		for _, l := range lns {
			l.Close()
		}
		return nil, err
	}
	for i, n := range nodes {
		n.ServeListener(lns[i]) // the node owns the listener from here
	}
	return &localCluster{nodes: nodes, router: modelir.NewClusterRouter(topo)}, nil
}

func clusterRequest(r modelir.Request) modelir.ClusterRequest {
	return modelir.ClusterRequest{Dataset: r.Dataset, Query: r.Query, K: r.K, Workers: r.Workers, Budget: r.Budget, MinScore: r.MinScore}
}

// rig holds everything the in-process ladder climbs.
type rig struct {
	sz      sizes
	nproc   int
	indexes map[string]*onion.Index // standalone Onion index per tuple dataset
	rows    map[string]int
	e1      *modelir.Engine // Shards=1, cache off; requests run with Workers=1, so counts repeat exactly
	eN      *modelir.Engine // Shards=nproc, default cache: the served configuration
	cluster *localCluster   // two nodes, replication 2, like cluster_mix
}

func (g *rig) close() {
	g.cluster.close()
	g.e1.Close()
}

// datasetSize is the number of candidates a family's query ranks.
func (g *rig) datasetSize(r request) int {
	switch r.Query.Kind {
	case "linear":
		return g.rows[r.Dataset]
	case "scene":
		return g.sz.Scene * g.sz.Scene
	case "fsm", "fsm-distance":
		return g.sz.Regions
	case "geology":
		return g.sz.Wells
	}
	return 0 // knowledge: tiles, read from the result instead
}

// climbed is one request's rung times and the work its deepest engine
// rung reported.
type climbed struct {
	d        map[string]time.Duration
	examined float64 // Engine.Run at Shards=1, Workers=1: examined / candidates
	onionEx  float64 // onion.Scan: points touched / rows (linear only)
}

// climb runs one read request at each depth of the ladder. The
// runbatch rung is climbed by climbBatch for groups of requests.
func (g *rig) climb(ctx context.Context, t *tracer, idx int, r request) (climbed, error) {
	out := climbed{d: map[string]time.Duration{}}
	req, err := r.compile()
	if err != nil {
		return out, err
	}
	from := len(t.spans)
	step := func(name string, f func() error) error {
		d, err := t.timed(name, idx, f)
		out.d[name] = d
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	if ix := g.indexes[r.Dataset]; ix != nil && r.Query.Kind == "linear" {
		w := r.Query.Coeffs
		if err := step(rungColstore, func() error {
			h := topk.MustHeap(r.K)
			var st colstore.Stats
			ix.Store().Scan(w, colstore.WeightNorm(w), h, nil, nil, nil, &st)
			return nil
		}); err != nil {
			return out, err
		}
		if err := step(rungOnion, func() error {
			_, st, err := ix.Scan(w, r.K, onion.ScanOpts{})
			out.onionEx = float64(st.PointsTouched) / float64(g.rows[r.Dataset])
			return err
		}); err != nil {
			return out, err
		}
	}
	one := req
	one.Workers = 1
	if err := step(rungRun1, func() error {
		res, err := g.e1.Run(ctx, one)
		if size := g.datasetSize(r); size > 0 {
			out.examined = float64(res.Stats.Examined) / float64(size)
		} else if n := res.Stats.Examined + res.Stats.Pruned; n > 0 {
			out.examined = float64(res.Stats.Examined) / float64(n)
		}
		return err
	}); err != nil {
		return out, err
	}
	if err := step(rungRunN, func() error { _, err := g.eN.Run(ctx, req); return err }); err != nil {
		return out, err
	}
	if !r.Query.Prefilter { // everything else the streams generate is cacheable
		if err := step(rungHit, func() error {
			res, err := g.eN.Run(ctx, req)
			if err == nil && !res.Stats.Cache.Hit {
				err = fmt.Errorf("repeat of a cacheable %s request missed the cache", r.Query.Kind)
			}
			return err
		}); err != nil {
			return out, err
		}
	}
	if err := step(rungRouter, func() error { _, err := g.cluster.router.Run(ctx, clusterRequest(req)); return err }); err != nil {
		return out, err
	}
	t.link(from)
	return out, nil
}

// climbBatch runs the requests through Engine.RunBatch in groups of
// batchWidth and returns the per-request time of each group.
func (g *rig) climbBatch(ctx context.Context, t *tracer, first int, rs []request) ([]time.Duration, error) {
	var out []time.Duration
	for lo := 0; lo+batchWidth <= len(rs); lo += batchWidth {
		reqs := make([]modelir.Request, batchWidth)
		for i, r := range rs[lo : lo+batchWidth] {
			req, err := r.compile()
			if err != nil {
				return nil, err
			}
			reqs[i] = req
		}
		d, err := t.timed(rungBatch, first+lo, func() error {
			results, err := g.eN.RunBatch(ctx, reqs)
			for _, br := range results {
				if err == nil {
					err = br.Err
				}
			}
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", rungBatch, err)
		}
		out = append(out, d/batchWidth)
	}
	return out, nil
}

// p50us is the median of the durations in microseconds.
func p50us(ds []time.Duration) float64 { return percentile(sortedIn(ds, us), 50) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// riverbedQuery is the paper's Fig. 4 model (shale over sandstone over
// siltstone, adjacent within 10 ft, gamma above 45 with a 5 API ramp)
// compiled against one well, as core compiles a GeologyQuery.
func riverbedQuery(w modelir.WellLog) sproc.Query {
	seq := []modelir.Lithology{modelir.Shale, modelir.Sandstone, modelir.Siltstone}
	const lo, hi, maxGap = 40.0, 50.0, 10.0
	return sproc.Query{
		M: len(seq),
		Unary: func(m, item int) float64 {
			s := w.Strata[item]
			switch {
			case s.Lith != seq[m] || s.GammaAPI <= lo:
				return 0
			case s.GammaAPI >= hi:
				return 1
			}
			return (s.GammaAPI - lo) / (hi - lo)
		},
		Pair: func(_, prev, cur int) float64 {
			a, b := w.Strata[prev], w.Strata[cur]
			if b.TopFt <= a.TopFt || b.TopFt-(a.TopFt+a.ThickFt) > maxGap {
				return 0
			}
			return 1
		},
	}
}

// kernelMetrics times the scan kernels below the engine on fixed
// models, and returns the standalone Onion indexes the ladder reuses.
func kernelMetrics(ctx context.Context, raw *rawData, seed int64, m map[string]float64) (map[string]*onion.Index, error) {
	sz := raw.sz
	t0 := time.Now()
	ix, err := onion.Build(raw.tuples, onion.Options{})
	if err != nil {
		return nil, fmt.Errorf("onion.Build: %w", err)
	}
	m["onion.build_s"] = time.Since(t0).Seconds()
	six, err := onion.Build(raw.stream, onion.Options{})
	if err != nil {
		return nil, fmt.Errorf("onion.Build: %w", err)
	}

	// colstore: whole-store scans with random weights.
	const scans = 32
	store := ix.Store()
	t0 = time.Now()
	for i := 0; i < scans; i++ {
		w := genRequest(newRNG(seed, streamProbe, uint64(1000+i)), "linear", sz, false, true).Query.Coeffs
		var st colstore.Stats
		store.Scan(w, colstore.WeightNorm(w), topk.MustHeap(10), nil, nil, nil, &st)
	}
	m["colstore.scan_ns_per_row"] = float64(time.Since(t0).Nanoseconds()) / float64(scans*sz.Tuples)

	// fsm: the fire-ants machine over every region's classified days.
	machine := fsm.FireAnts()
	events := make([][]fsm.Event, len(raw.weather))
	for i, r := range raw.weather {
		events[i] = fsm.ClassifySeries(r.Days)
	}
	const fsmReps = 5
	t0 = time.Now()
	for rep := 0; rep < fsmReps; rep++ {
		for _, ev := range events {
			if _, err := fsm.FlyScore(machine, ev); err != nil {
				return nil, err
			}
		}
	}
	m["fsm.flyscore_ns_per_day"] = float64(time.Since(t0).Nanoseconds()) / float64(fsmReps*sz.Regions*sz.Days)

	// sproc: the Fig. 4 model over every well, by both evaluators.
	queries := make([]sproc.Query, len(raw.wells))
	for i, w := range raw.wells {
		queries[i] = riverbedQuery(w)
	}
	sc := sproc.NewScratch()
	t0 = time.Now()
	for i, q := range queries {
		if _, _, err := sproc.DP1Ctx(ctx, len(raw.wells[i].Strata), q, sc); err != nil {
			return nil, err
		}
	}
	m["sproc.dp_us_per_well"] = us(time.Since(t0)) / float64(len(queries))
	t0 = time.Now()
	for i, q := range queries {
		if _, _, err := sproc.PrunedCtx(ctx, len(raw.wells[i].Strata), q, 1); err != nil {
			return nil, err
		}
	}
	m["sproc.pruned_us_per_well"] = us(time.Since(t0)) / float64(len(queries))

	// progressive: combined model x data screening on the scene.
	sa, err := modelir.BuildSceneArchive("scene", raw.bands, modelir.ArchiveOptions{})
	if err != nil {
		return nil, err
	}
	var times []time.Duration
	var work []float64
	for i := 0; i < probePerFamily; i++ {
		r := genRequest(newRNG(seed, streamProbe, uint64(2000+i)), "scene", sz, false, true)
		req, err := r.compile()
		if err != nil {
			return nil, err
		}
		pm := req.Query.(modelir.SceneQuery).Model
		t0 = time.Now()
		res, err := progressive.Combined(pm, sa.Pyramid(), r.K)
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0))
		work = append(work, float64(res.Stats.Work())/float64(len(r.Query.Coeffs)*sz.Scene*sz.Scene))
	}
	m["progressive.combined_p50_us"] = p50us(times)
	m["progressive.work_frac"] = mean(work)
	return map[string]*onion.Index{"tuples8": ix, "stream": six}, nil
}

// writeMetrics times the write path on a scratch engine that holds
// only "stream", and through in-process clusters at replication 1
// and 2. It records one span per rung of the write ladder.
func writeMetrics(ctx context.Context, t *tracer, raw *rawData, w workload, seed int64, g *rig, m map[string]float64) error {
	if w.AppendRows == 0 {
		w.AppendRows = 64 // read-only workloads climb the ladder with ingest_reads' batches
	}
	const batches = 32
	rows := func(i int) [][]float64 { return appendBatch(w, raw.sz, seed, 100_000+i).Tuples }
	streamOnly := func(dst archiveSink) error {
		return dst.AddTuples("stream", append([][]float64(nil), raw.stream...))
	}
	linear := func(i int) modelir.Request {
		req, err := genRequest(newRNG(seed, streamProbe, uint64(3000+i)), "linear", raw.sz, true, true).compile()
		if err != nil {
			panic(err) // generated linear requests always compile
		}
		return req
	}
	readP50 := func(e *modelir.Engine) (float64, error) {
		if _, err := e.Run(ctx, linear(0)); err != nil { // builds whatever index is missing
			return 0, err
		}
		var ds []time.Duration
		for i := 1; i <= 32; i++ {
			t0 := time.Now()
			if _, err := e.Run(ctx, linear(i)); err != nil {
				return 0, err
			}
			ds = append(ds, time.Since(t0))
		}
		return p50us(ds), nil
	}

	// Engine.AppendTuples, then Engine.Compact, batch by batch: with
	// never more than one delta the background compactor stays idle.
	e := modelir.NewEngineWithOptions(modelir.EngineOptions{Shards: g.nproc, CacheEntries: -1})
	defer e.Close()
	if err := streamOnly(e); err != nil {
		return err
	}
	if _, err := readP50(e); err != nil {
		return err
	}
	var appendD, compactD []time.Duration
	for i := 0; i < batches; i++ {
		b := rows(i)
		d, err := t.timed(rungAppend, i, func() error { return e.AppendTuples("stream", b) })
		if err != nil {
			return err
		}
		appendD = append(appendD, d)
		d, _ = t.timed(rungCompact, i, func() error { e.Compact(); return nil })
		compactD = append(compactD, d)
	}
	total := time.Duration(0)
	for _, d := range appendD {
		total += d
	}
	m["core.append.rows_per_s"] = float64(batches*w.AppendRows) / total.Seconds()
	m["core.compact_ms"] = percentile(sortedIn(compactD, ms), 50)

	// Read cost of live deltas: three of them stay under both
	// compaction triggers.
	for i := 0; i < 3; i++ {
		if err := e.AppendTuples("stream", rows(batches+i)); err != nil {
			return err
		}
	}
	withDeltas, err := readP50(e)
	if err != nil {
		return err
	}
	e.Compact()
	// Compaction rebuilds the base shards without their lazy Onion
	// indexes: the next read pays for them.
	t0 := time.Now()
	if _, err := e.Run(ctx, linear(100)); err != nil {
		return err
	}
	m["core.compact_first_read_ms"] = ms(time.Since(t0))
	compacted, err := readP50(e)
	if err != nil {
		return err
	}
	if compacted > 0 {
		m["core.delta_read_penalty"] = withDeltas / compacted
	}

	// The batching appender with one caller: every call waits out its
	// own flush window.
	eb := modelir.NewEngineWithOptions(modelir.EngineOptions{Shards: g.nproc, CacheEntries: -1})
	defer eb.Close()
	if err := streamOnly(eb); err != nil {
		return err
	}
	ap := modelir.NewAppender(eb, modelir.AppenderOptions{})
	var appenderD []time.Duration
	for i := 0; i < batches; i++ {
		b := rows(200 + i)
		d, err := t.timed(rungAppender, i, func() error { return ap.AppendTuples(ctx, "stream", b) })
		if err != nil {
			ap.Close()
			return err
		}
		appenderD = append(appenderD, d)
	}
	ap.Close()
	m["core.appender.p50_ms"] = percentile(sortedIn(appenderD, ms), 50)

	// Router.Append: write-all at replication 2 (the rig's cluster)
	// against a one-replica cluster of the same dataset.
	routerAppend := func(c *localCluster, t *tracer, base int) (float64, error) {
		var ds []time.Duration
		for i := 0; i < batches; i++ {
			b := rows(base + i)
			d, err := t.timed(rungRouterAppend, i, func() error {
				_, err := c.router.Append(ctx, modelir.ClusterAppendRequest{Dataset: "stream", Tuples: b})
				return err
			})
			if err != nil {
				return 0, fmt.Errorf("router append: %w", err)
			}
			ds = append(ds, d)
		}
		return p50us(ds), nil
	}
	two, err := routerAppend(g.cluster, t, 400)
	if err != nil {
		return err
	}
	single, err := startCluster(1, g.nproc, streamOnly)
	if err != nil {
		return err
	}
	defer single.close()
	one, err := routerAppend(single, &tracer{t0: t.t0}, 600) // the comparison run is not part of the trace
	if err != nil {
		return err
	}
	m["cluster.router_append.p50_us"] = two
	if one > 0 {
		m["cluster.replication_penalty"] = two / one
	}
	return nil
}

// segmentMetrics times snapshot write and both restore modes of the
// served engine, in process.
func segmentMetrics(ctx context.Context, ev *env, raw *rawData, e *modelir.Engine, m map[string]float64) error {
	dir := filepath.Join(ev.runDir, "segment-probe")
	sd, err := modelir.NewSnapshotDir(dir)
	if err != nil {
		return err
	}
	t0 := time.Now()
	if err := e.Snapshot(ctx, sd); err != nil {
		return err
	}
	m["segment.snapshot_write_s"] = time.Since(t0).Seconds()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var bytes int64
	for _, en := range entries {
		if info, err := en.Info(); err == nil {
			bytes += info.Size()
		}
	}
	m["segment.bytes_per_user_byte"] = float64(bytes) / float64(raw.userBytes())
	for _, mode := range []struct {
		name string
		mode modelir.RestoreMode
	}{{"segment.restore_map_ms", modelir.RestoreMap}, {"segment.restore_copy_ms", modelir.RestoreCopy}} {
		t0 = time.Now()
		re, err := modelir.OpenSnapshot(sd, modelir.RestoreOptions{Mode: mode.mode})
		if err != nil {
			return fmt.Errorf("%s: %w", mode.name, err)
		}
		m[mode.name] = ms(time.Since(t0))
		re.Close()
	}
	return os.RemoveAll(dir)
}

// ladderSummary is one rung's row in the trace file.
type ladderSummary struct {
	Rung      string  `json:"rung"`
	N         int     `json:"n"`
	P50US     float64 `json:"p50_us"`
	SelfP50US float64 `json:"self_p50_us"` // p50 minus the p50 of the next rung down, on the requests that climbed both
}

func summarize(climbs []climbed, batch []time.Duration) []ladderSummary {
	by := map[string][]time.Duration{}
	for _, c := range climbs {
		for name, d := range c.d {
			by[name] = append(by[name], d)
		}
	}
	by[rungBatch] = batch
	var out []ladderSummary
	for _, name := range []string{rungColstore, rungOnion, rungRun1, rungRunN, rungHit, rungBatch, rungRouter} {
		s := ladderSummary{Rung: name, N: len(by[name]), P50US: p50us(by[name])}
		s.SelfP50US = s.P50US
		for ci, c := range chainRungs {
			if c != name || ci == 0 {
				continue
			}
			// Self time over the requests that climbed the rung below too.
			var self []time.Duration
			for _, cl := range climbs {
				if lower, ok := cl.d[chainRungs[ci-1]]; ok {
					self = append(self, cl.d[name]-lower)
				}
			}
			if len(self) > 0 {
				s.SelfP50US = p50us(self)
			}
		}
		out = append(out, s)
	}
	return out
}

// layerMetrics runs the in-process part of the traced run: kernels,
// the per-family probes, the ladder over the workload's first
// requests, the write path and the snapshot path.
func layerMetrics(ctx context.Context, ev *env, w workload, raw *rawData, eN *modelir.Engine, t *tracer, m map[string]float64) ([]ladderSummary, error) {
	indexes, err := kernelMetrics(ctx, raw, ev.seed, m)
	if err != nil {
		return nil, err
	}
	e1, err := buildEngine(ctx, raw, modelir.EngineOptions{Shards: 1, CacheEntries: -1})
	if err != nil {
		return nil, err
	}
	cluster, err := startCluster(2, ev.nproc, raw.register)
	if err != nil {
		e1.Close()
		return nil, err
	}
	g := &rig{sz: ev.sz, nproc: ev.nproc, indexes: indexes, e1: e1, eN: eN, cluster: cluster,
		rows: map[string]int{"tuples8": ev.sz.Tuples, "stream": ev.sz.Stream}}
	defer g.close()
	for _, req := range forcingRequests(ev.sz) { // the nodes' Onion indexes are lazy too
		if _, err := cluster.router.Run(ctx, clusterRequest(req)); err != nil {
			return nil, fmt.Errorf("warm in-process cluster: %w", err)
		}
	}

	// Per-family probes: fixed request sets, so the per-family layer
	// numbers do not depend on which workload the traced run is for.
	probeTrace := &tracer{t0: t.t0} // probe spans are not part of the workload's trace
	var linearClimbs []climbed
	var allN, allRouter []time.Duration
	var probes []request
	for fi, fam := range families {
		var run1 []time.Duration
		var examined []float64
		for i := 0; i < probePerFamily; i++ {
			r := genRequest(newRNG(ev.seed, streamProbe, uint64(fi*probePerFamily+i)), fam, ev.sz, false, true)
			c, err := g.climb(ctx, probeTrace, i, r)
			if err != nil {
				return nil, fmt.Errorf("probe %s: %w", fam, err)
			}
			probes = append(probes, r)
			run1 = append(run1, c.d[rungRun1])
			examined = append(examined, c.examined)
			allN = append(allN, c.d[rungRunN])
			allRouter = append(allRouter, c.d[rungRouter])
			if fam == "linear" {
				linearClimbs = append(linearClimbs, c)
			}
		}
		m["core.run."+fam+".p50_us"] = p50us(run1)
		m["core.run."+fam+".examined_frac"] = mean(examined)
	}
	var onionD, run1D, runND, hitD []time.Duration
	var onionEx []float64
	for _, c := range linearClimbs {
		onionD, run1D, runND = append(onionD, c.d[rungOnion]), append(run1D, c.d[rungRun1]), append(runND, c.d[rungRunN])
		hitD = append(hitD, c.d[rungHit])
		onionEx = append(onionEx, c.onionEx)
	}
	m["onion.scan_p50_us"] = p50us(onionD)
	m["onion.examined_frac"] = mean(onionEx)
	m["core.run_overhead_us"] = p50us(run1D) - p50us(onionD)
	if n := p50us(runND); n > 0 {
		m["core.fanout_speedup"] = p50us(run1D) / n
	}
	m["qcache.hit_p50_us"] = p50us(hitD)
	batch, err := g.climbBatch(ctx, probeTrace, 0, probes)
	if err != nil {
		return nil, err
	}
	m["core.runbatch.p50_us_per_req"] = p50us(batch)
	m["cluster.router_run.p50_us"] = p50us(allRouter)
	m["cluster.wire_overhead_us"] = p50us(allRouter) - p50us(allN)

	// The ladder proper: the workload's own first requests.
	st := newStream(w, ev.sz, ev.seed, streamOpen)
	var reqs []request
	for i := 0; len(reqs) < ladderRequests; i++ {
		reqs = append(reqs, st.requests(i)...)
	}
	reqs = reqs[:ladderRequests]
	climbs := make([]climbed, 0, len(reqs))
	for i, r := range reqs {
		c, err := g.climb(ctx, t, i, r)
		if err != nil {
			return nil, fmt.Errorf("ladder request %d: %w", i, err)
		}
		climbs = append(climbs, c)
	}
	ladderBatch, err := g.climbBatch(ctx, t, 0, reqs)
	if err != nil {
		return nil, err
	}
	if err := writeMetrics(ctx, t, raw, w, ev.seed, g, m); err != nil {
		return nil, err
	}
	if err := segmentMetrics(ctx, ev, raw, eN, m); err != nil {
		return nil, err
	}
	return summarize(climbs, ladderBatch), nil
}

// statsPoll is one /stats sample of the traced HTTP run.
type statsPoll struct {
	AtMS   float64 `json:"at_ms"`
	Deltas int     `json:"stream_deltas"`
	Hits   uint64  `json:"cache_hits"`
	Misses uint64  `json:"cache_misses"`
}

// pollStats samples /stats at 4 Hz on a connection of its own until
// stop is closed.
func pollStats(ctx context.Context, s *stack, stop <-chan struct{}) []statsPoll {
	probe := &stack{base: s.base, client: newClient(1)}
	defer probe.client.CloseIdleConnections()
	var out []statsPoll
	start := time.Now()
	tick := time.NewTicker(250 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return out
		case <-ctx.Done():
			return out
		case <-tick.C:
		}
		st, err := probe.stats(ctx)
		if err != nil {
			continue // a missed poll only thins the series
		}
		p := statsPoll{AtMS: ms(time.Since(start)), Hits: st.Cache.Hits, Misses: st.Cache.Misses}
		for _, d := range st.Datasets {
			if d.Name == "stream" {
				p.Deltas = d.Deltas
			}
		}
		out = append(out, p)
	}
}

// httpProbes measures modelird's own share of a round trip with
// sequential requests on an idle daemon: HTTP round trip minus the
// wall time the response reports for the engine.
func httpProbes(ctx context.Context, s *stack, ev *env, m map[string]float64) error {
	c := newClient(1)
	defer c.CloseIdleConnections()
	roundTrip := func(path string, body []byte) (time.Duration, []byte, error) {
		t0 := time.Now()
		resp, err := post(ctx, c, s.base+path, body)
		return time.Since(t0), resp, err
	}
	const perFamily = 24
	for fi, fam := range families {
		var rtts, over []time.Duration
		for i := 0; i < perFamily; i++ {
			r := genRequest(newRNG(ev.seed, streamProbe, uint64(5000+fi*perFamily+i)), fam, ev.sz, false, false)
			d, body, err := roundTrip("/run", mustJSON(r))
			if err != nil {
				return fmt.Errorf("probe %s: %w", fam, err)
			}
			res, err := decodeResults(body, false)
			if err != nil {
				return err
			}
			rtts = append(rtts, d)
			over = append(over, d-time.Duration(res[0].Stats.WallNS))
		}
		m["modelird.run."+fam+".p50_ms"] = percentile(sortedIn(rtts, ms), 50)
		if fam == "linear" {
			m["modelird.run_overhead_us"] = p50us(over)
		}
	}
	// /batch of cached requests: the second sending of each batch.
	var perReq []time.Duration
	for b := 0; b < 16; b++ {
		reqs := make([]request, batchWidth)
		for i := range reqs {
			reqs[i] = genRequest(newRNG(ev.seed, streamProbe, uint64(6000+b*batchWidth+i)), "linear", ev.sz, false, true)
		}
		body := mustJSON(batchBody{Requests: reqs})
		if _, _, err := roundTrip("/batch", body); err != nil {
			return fmt.Errorf("probe batch: %w", err)
		}
		d, resp, err := roundTrip("/batch", body)
		if err != nil {
			return fmt.Errorf("probe batch: %w", err)
		}
		results, err := decodeResults(resp, true)
		if err != nil {
			return err
		}
		// The slots of a batch may run side by side, so the engine's
		// share of the round trip is the slowest slot, not the sum.
		var slowest int64
		for _, r := range results {
			slowest = max(slowest, r.Stats.WallNS)
		}
		perReq = append(perReq, (d-time.Duration(slowest))/batchWidth)
	}
	m["modelird.batch_overhead_us_per_req"] = p50us(perReq)
	// /append has no wall time of its own in the response: the layer
	// below it is measured in process instead.
	w := s.w
	if w.AppendRows == 0 {
		w.AppendRows = 64
	}
	var appends []time.Duration
	for i := 0; i < 16; i++ {
		d, _, err := roundTrip("/append", mustJSON(appendBatch(w, ev.sz, ev.seed, 900_000+i)))
		if err != nil {
			return fmt.Errorf("probe append: %w", err)
		}
		appends = append(appends, d)
	}
	below := 1000 * m["core.appender.p50_ms"]
	if s.w.Cluster {
		below = m["cluster.router_append.p50_us"]
	}
	m["modelird.append_overhead_us"] = p50us(appends) - below
	return nil
}

// traceFile is what the traced run writes to bench/out.
type traceFile struct {
	Workload string          `json:"workload"`
	Seed     int64           `json:"seed"`
	Stamp    stamp           `json:"stamp"`
	Ladder   []ladderSummary `json:"ladder"`
	Polls    []statsPoll     `json:"stats_polls"`
	Spans    []span          `json:"spans"`
}

// runTraced measures the per-layer metrics of one workload: the
// in-process ladder and layer probes, then the HTTP workload at one
// third of its length, first untraced and then traced (every
// response's stats read, /stats polled), then sequential HTTP probes.
func runTraced(ctx context.Context, ev *env, w workload) (*runResult, error) {
	res := &runResult{Correct: true, Metrics: map[string]float64{}, Samples: map[string]int{}}
	m := res.Metrics
	raw, err := generate(ev.seed, ev.sz)
	if err != nil {
		return nil, err
	}
	eN, err := buildEngine(ctx, raw, modelir.EngineOptions{Shards: ev.nproc})
	if err != nil {
		return nil, fmt.Errorf("reference engine: %w", err)
	}
	defer eN.Close()
	t := &tracer{t0: time.Now()}
	ladder, err := layerMetrics(ctx, ev, w, raw, eN, t, m)
	if err != nil {
		return nil, err
	}

	st, err := setUp(ctx, ev, w, raw, 0)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	failed := true
	defer func() { st.stop(failed) }()
	m["modelird.boot_to_ready_s"] = st.bootToReady.Seconds()
	closedD, openD := splitSeconds(float64(ev.seconds) / 3)
	plain, err := runPhases(ctx, st, closedD, openD, false, 1)
	if err != nil {
		return nil, err
	}
	before, err := st.stats(ctx)
	if err != nil {
		return nil, err
	}
	stop := make(chan struct{})
	pollsCh := make(chan []statsPoll, 1)
	go func() { pollsCh <- pollStats(ctx, st, stop) }()
	p, err := runPhases(ctx, st, closedD, openD, true, 2)
	close(stop)
	polls := <-pollsCh
	if err != nil {
		return nil, err
	}
	after, err := st.stats(ctx)
	if err != nil {
		return nil, err
	}
	for _, pr := range []struct {
		name string
		p    phaseResult
	}{{"reads_closed", p.closed}, {"reads_open", p.open}, {"appends", p.appends},
		{"untraced_reads_closed", plain.closed}, {"untraced_reads_open", plain.open}, {"untraced_appends", plain.appends}} {
		res.account(pr.name, pr.p)
	}

	// Every traced response carries its own stats: the engine's wall
	// time per request, summed here by family.
	var sizes []float64
	wall := map[string]float64{}
	for _, ph := range []struct {
		p phaseResult
		s *stream
	}{{p.closed, p.closedStream}, {p.open, p.openStream}} {
		for _, sm := range ph.p.samples {
			if !sm.ok() {
				continue
			}
			results, err := decodeResults(sm.body, w.Batch)
			if err != nil {
				return nil, fmt.Errorf("traced response %d: %w", sm.idx, err)
			}
			for i, r := range ph.s.requests(sm.idx) {
				if i < len(results) {
					wall[r.Query.Kind] += float64(results[i].Stats.WallNS)
					wall["all"] += float64(results[i].Stats.WallNS)
				}
			}
			sizes = append(sizes, float64(sm.bytes))
		}
	}
	m["modelird.response_bytes_p50"] = median(sizes)
	share := "engine wall time by family:"
	for _, f := range families {
		share += fmt.Sprintf(" %s %.1f%%", f, 100*wall[f]/max(wall["all"], 1))
	}
	res.note("%s", share)
	hits := float64(after.Cache.Hits - before.Cache.Hits)
	if lookups := hits + float64(after.Cache.Misses-before.Cache.Misses); lookups > 0 {
		m["qcache.hit_ratio"] = hits / lookups
	}
	m["qcache.evictions"] = float64(after.Cache.Evictions - before.Cache.Evictions)
	m["qcache.invalidations"] = float64(after.Cache.Invalidations - before.Cache.Invalidations)
	for _, pl := range polls {
		m["core.deltas_max"] = max(m["core.deltas_max"], float64(pl.Deltas))
	}
	m["core.read_stall_frac"] = stallFrac(p.open)
	m["cluster.peer_errors"] = float64(len(after.PeerErrors))
	for _, h := range after.PeerHealth {
		if h != "healthy" {
			m["cluster.unhealthy_peers_end"]++
		}
	}
	info := p.info()
	for _, name := range []string{"loadgen.late_p99_ms", "loadgen.backlog_end", "read_p50_ms", "read_p99_ms", "append_p50_ms", "append_p95_ms"} {
		m[name] = info[name]
	}
	if plainP50 := plain.info()["read_p50_ms"]; plainP50 > 0 {
		m["trace.overhead_frac"] = m["read_p50_ms"]/plainP50 - 1
	}
	if err := httpProbes(ctx, st, ev, m); err != nil {
		return nil, err
	}

	if err := os.MkdirAll(ev.outDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(ev.outDir, "trace-"+w.Name+".json")
	b, err := json.Marshal(traceFile{Workload: w.Name, Seed: ev.seed, Stamp: newStamp(ev.seed), Ladder: ladder, Polls: polls, Spans: t.spans})
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return nil, err
	}
	res.note("%d spans and %d /stats polls written to %s", len(t.spans), len(polls), path)
	for _, l := range ladder {
		res.note("ladder %-16s n=%-4d p50 %9.1f us  self %9.1f us", l.Rung, l.N, l.P50US, l.SelfP50US)
	}
	failed = res.Failed > 0
	return res, nil
}
