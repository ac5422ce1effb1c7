package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"modelir"
)

// metricDef is one row of BENCHMARK.json's end_to_end or per_layer list.
// TestBenchmarkJSONMatchesTables keeps the file and these tables equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of modelird sees, with the relative
// worsening that counts as a regression. Every workload reports all of
// them. README.md says why the open-phase percentiles, the append
// latencies and fail_frac are not in this list, and where the bounds
// come from.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_rps", "1/s", "higher", 0.25},
	{"slo_ok_frac", "fraction", "higher", 0.15},
	{"cpu_ms_per_req", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// families in the order every per-family metric is listed.
var families = []string{"linear", "scene", "fsm", "fsm-distance", "geology", "knowledge"}

// perLayer are the single-layer metrics of the traced run (layer =
// module). They have no bound.
var perLayer = func() []metricDef {
	m := []metricDef{
		{Name: "colstore.scan_ns_per_row", Unit: "ns", Better: "lower"},
		{Name: "onion.scan_p50_us", Unit: "us", Better: "lower"},
		{Name: "onion.examined_frac", Unit: "fraction", Better: "lower"},
		{Name: "onion.build_s", Unit: "s", Better: "lower"},
		{Name: "progressive.combined_p50_us", Unit: "us", Better: "lower"},
		{Name: "progressive.work_frac", Unit: "fraction", Better: "lower"},
		{Name: "fsm.flyscore_ns_per_day", Unit: "ns", Better: "lower"},
		{Name: "sproc.dp_us_per_well", Unit: "us", Better: "lower"},
		{Name: "sproc.pruned_us_per_well", Unit: "us", Better: "lower"},
	}
	for _, f := range families {
		m = append(m, metricDef{Name: "core.run." + f + ".p50_us", Unit: "us", Better: "lower"})
	}
	for _, f := range families {
		m = append(m, metricDef{Name: "core.run." + f + ".examined_frac", Unit: "fraction", Better: "lower"})
	}
	m = append(m,
		metricDef{Name: "core.run_overhead_us", Unit: "us", Better: "lower"},
		metricDef{Name: "core.fanout_speedup", Unit: "ratio", Better: "higher"},
		metricDef{Name: "core.runbatch.p50_us_per_req", Unit: "us", Better: "lower"},
		metricDef{Name: "qcache.hit_p50_us", Unit: "us", Better: "lower"},
		metricDef{Name: "qcache.hit_ratio", Unit: "fraction", Better: "higher"},
		metricDef{Name: "qcache.evictions", Unit: "count", Better: "lower"},
		metricDef{Name: "qcache.invalidations", Unit: "count", Better: "lower"},
		metricDef{Name: "core.append.rows_per_s", Unit: "1/s", Better: "higher"},
		metricDef{Name: "core.appender.p50_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "core.compact_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "core.compact_first_read_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "core.delta_read_penalty", Unit: "ratio", Better: "lower"},
		metricDef{Name: "core.deltas_max", Unit: "count", Better: "lower"},
		metricDef{Name: "core.read_stall_frac", Unit: "fraction", Better: "lower"},
		metricDef{Name: "segment.snapshot_write_s", Unit: "s", Better: "lower"},
		metricDef{Name: "segment.bytes_per_user_byte", Unit: "ratio", Better: "lower"},
		metricDef{Name: "segment.restore_map_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "segment.restore_copy_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "cluster.router_run.p50_us", Unit: "us", Better: "lower"},
		metricDef{Name: "cluster.wire_overhead_us", Unit: "us", Better: "lower"},
		metricDef{Name: "cluster.router_append.p50_us", Unit: "us", Better: "lower"},
		metricDef{Name: "cluster.replication_penalty", Unit: "ratio", Better: "lower"},
		metricDef{Name: "cluster.peer_errors", Unit: "count", Better: "lower"},
		metricDef{Name: "cluster.unhealthy_peers_end", Unit: "count", Better: "lower"},
		metricDef{Name: "modelird.run_overhead_us", Unit: "us", Better: "lower"},
		metricDef{Name: "modelird.batch_overhead_us_per_req", Unit: "us", Better: "lower"},
		metricDef{Name: "modelird.append_overhead_us", Unit: "us", Better: "lower"},
		metricDef{Name: "modelird.boot_to_ready_s", Unit: "s", Better: "lower"},
		metricDef{Name: "modelird.response_bytes_p50", Unit: "count", Better: "lower"},
	)
	for _, f := range families {
		m = append(m, metricDef{Name: "modelird.run." + f + ".p50_ms", Unit: "ms", Better: "lower"})
	}
	return append(m,
		metricDef{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "loadgen.backlog_end", Unit: "count", Better: "lower"},
		metricDef{Name: "trace.overhead_frac", Unit: "fraction", Better: "lower"},
		metricDef{Name: "read_p50_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "read_p99_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "append_p50_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "append_p95_ms", Unit: "ms", Better: "lower"},
	)
}()

// sizes fixes the archive every workload runs on. Frozen: changing a
// size changes every baseline number.
type sizes struct {
	Tuples, TupleDims  int // "tuples8": Gaussian rows, the linear family's main dataset
	Scene              int // "scene": width and height
	Regions, Days      int // "weather"
	Wells              int // "basin"
	Stream, StreamDims int // "stream": the appendable tuple dataset
}

// frozenSizes was resized once from the issue's first guess (tuples8
// 400k -> 60k rows) so that three set-ups fit a run; see README.md.
var frozenSizes = sizes{Tuples: 60_000, TupleDims: 8, Scene: 512, Regions: 1000, Days: 365, Wells: 400, Stream: 20_000, StreamDims: 3}

// Fixed limits and shapes shared by all workloads.
const (
	readLimit      = 20 * time.Millisecond  // a read slower than this misses the SLO
	appendLimit    = 100 * time.Millisecond // an append slower than this misses the SLO
	closedShare    = 0.4                    // share of --seconds spent in the closed phase
	setupRepeats   = 3                      // set-ups per run; setup_s is their median
	warmupOps      = 256                    // operations sent before the first timed one
	verifyEvery    = 32                     // every n-th read response is compared with the reference
	quiesceQueries = 64                     // post-run comparisons on the workloads with writes
	batchWidth     = 8                      // requests per /batch call (hot_batch)
	poolSize       = 256                    // distinct cacheable requests behind hot_batch
	poolK          = 10                     // results per pool request
	zipfS          = 1.1
	ladderRequests = 512 // requests replayed through the in-process ladder
	probePerFamily = 48  // requests per family behind the per-family layer metrics
)

// workload is one traffic mix.
type workload struct {
	Name    string
	Why     string
	Cluster bool
	Batch   bool // every operation is a /batch of batchWidth requests from the Zipf pool
	// Mix is the read mix: family -> share of requests.
	Mix map[string]float64
	// StreamShare is the share of linear reads sent to "stream"
	// instead of "tuples8".
	StreamShare float64
	// OpenRPS is the open phase's read rate, frozen at about half of
	// the seed commit's own closed-loop throughput_rps; on ingest_reads
	// at a quarter, because the index rebuild after each compaction
	// stalls every read for up to 80 ms and the backlog must drain
	// before the next one.
	OpenRPS float64
	// AppendRPS > 0 adds a third connection that appends AppendRows
	// rows to "stream" at that rate through both phases.
	AppendRPS  float64
	AppendRows int
	Tokens     bool // appends carry an idempotency token
}

// coldMix is the read mix whose engine time (the wall_ns modelird
// reports per response, summed by family over a traced cold_mix run at
// the frozen sizes) splits about 40 % linear, 20 % scene+knowledge,
// 20 % fsm+fsm-distance, 20 % geology. The cheap families need most of
// the requests for that: a linear or scene miss costs about 0.1 ms of
// engine time, a geology or fsm-distance one over 1 ms.
var coldMix = map[string]float64{
	"linear": 0.44, "scene": 0.25, "knowledge": 0.25,
	"fsm": 0.016, "fsm-distance": 0.015, "geology": 0.024,
}

var workloads = []workload{
	{
		Name: "cold_mix", Mix: coldMix, OpenRPS: 1900,
		Why: "single role, every /run unique: the cache never hits and the scan, index, fan-out and admission layers do the work",
	},
	{
		Name: "hot_batch", Batch: true, Mix: coldMix, OpenRPS: 2300,
		Why: "single role, /batch of 8 drawn Zipf(1.1) from 256 cacheable requests: cache, fingerprint, dedup, JSON and HTTP do the work",
	},
	{
		Name: "ingest_reads", Mix: map[string]float64{"linear": 1}, StreamShare: 1, OpenRPS: 1000,
		AppendRPS: 4, AppendRows: 128,
		Why: "single role, unique linear reads on a dataset the other connection appends to: delta scans, compaction and index rebuilds show",
	},
	{
		Name: "cluster_mix", Cluster: true, Mix: coldMix, StreamShare: 0.2, OpenRPS: 700,
		AppendRPS: 8, AppendRows: 32, Tokens: true,
		Why: "router + 2 nodes, replication 2: cold_mix's reads plus tokened replicated appends; wire codec, scatter-gather and merge show",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// query and request mirror modelird's wire shapes (cmd/modelird/server.go).
type query struct {
	Kind         string    `json:"kind"`
	Attrs        []string  `json:"attrs,omitempty"`
	Coeffs       []float64 `json:"coeffs,omitempty"`
	AttrLo       []float64 `json:"attr_lo,omitempty"`
	AttrHi       []float64 `json:"attr_hi,omitempty"`
	Levels       []int     `json:"levels,omitempty"`
	Prefilter    bool      `json:"prefilter,omitempty"`
	Horizon      int       `json:"horizon,omitempty"`
	Sequence     []string  `json:"sequence,omitempty"`
	MaxGapFt     float64   `json:"max_gap_ft,omitempty"`
	MinGamma     float64   `json:"min_gamma,omitempty"`
	GammaRampAPI float64   `json:"gamma_ramp_api,omitempty"`
	Method       string    `json:"method,omitempty"`
}

type request struct {
	Dataset  string   `json:"dataset"`
	Query    query    `json:"query"`
	K        int      `json:"k"`
	MinScore *float64 `json:"min_score,omitempty"`
}

type batchBody struct {
	Requests []request `json:"requests"`
}

type appendBody struct {
	Dataset string      `json:"dataset"`
	Tuples  [][]float64 `json:"tuples"`
	Token   string      `json:"token,omitempty"`
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the shapes above always marshal
	}
	return b
}

var (
	sceneAttrs  = []string{"b4", "b5", "b7", "elev"}
	sceneLo     = []float64{0, 0, 0, 0}
	sceneHi     = []float64{255, 255, 255, 1500}
	sceneLevels = []int{2, 4}
	lithNames   = []string{"shale", "sandstone", "siltstone", "limestone"}
	lithologies = map[string]modelir.Lithology{
		"shale": modelir.Shale, "sandstone": modelir.Sandstone,
		"siltstone": modelir.Siltstone, "limestone": modelir.Limestone,
	}
)

// compile turns a wire request into the engine request modelird would
// build from it, for the in-process reference and the ladder.
func (r request) compile() (modelir.Request, error) {
	out := modelir.Request{Dataset: r.Dataset, K: r.K, MinScore: r.MinScore}
	q := r.Query
	switch q.Kind {
	case "linear", "scene":
		attrs := q.Attrs
		if len(attrs) == 0 {
			attrs = make([]string, len(q.Coeffs))
			for i := range attrs {
				attrs[i] = fmt.Sprintf("x%d", i)
			}
		}
		m, err := modelir.NewLinearModel(attrs, q.Coeffs, 0)
		if err != nil {
			return out, err
		}
		if q.Kind == "linear" {
			out.Query = modelir.LinearQuery{Model: m}
			return out, nil
		}
		pm, err := modelir.DecomposeLinear(m, q.AttrLo, q.AttrHi, q.Levels...)
		if err != nil {
			return out, err
		}
		out.Query = modelir.SceneQuery{Model: pm}
	case "fsm":
		fq := modelir.FSMQuery{Machine: modelir.FireAntsModel()}
		if q.Prefilter {
			fq.Prefilter = modelir.FireAntsPrefilter
		}
		out.Query = fq
	case "fsm-distance":
		out.Query = modelir.FSMDistanceQuery{Target: modelir.FireAntsModel(), Horizon: q.Horizon}
	case "geology":
		g := modelir.GeologyQuery{MaxGapFt: q.MaxGapFt, MinGamma: q.MinGamma, GammaRampAPI: q.GammaRampAPI, Method: modelir.GeoDP}
		if q.Method == "pruned" {
			g.Method = modelir.GeoPruned
		}
		for _, s := range q.Sequence {
			g.Sequence = append(g.Sequence, lithologies[s])
		}
		out.Query = g
	case "knowledge":
		out.Query = modelir.KnowledgeQuery{Rules: modelir.HPSTileRules()}
	default:
		return out, fmt.Errorf("unknown query kind %q", q.Kind)
	}
	return out, nil
}

// genRequest draws one request of the family. Every family has at
// least one continuous parameter, so two draws never share a cache
// line; cacheable=false additionally makes fsm requests uncacheable by
// design (prefilter:true carries a func value the cache cannot
// fingerprint).
func genRequest(r *rng, family string, sz sizes, onStream, cacheable bool) request {
	floor := func(hi float64) *float64 { v := r.between(0, hi); return &v }
	switch family {
	case "linear":
		dataset, dims := "tuples8", sz.TupleDims
		if onStream {
			dataset, dims = "stream", sz.StreamDims
		}
		co := make([]float64, dims)
		for i := range co {
			co[i] = r.norm()
		}
		return request{Dataset: dataset, K: r.logInt(10, 200), Query: query{Kind: "linear", Coeffs: co}}
	case "scene":
		co := []float64{r.norm(), r.norm(), r.norm(), 0.2 * r.norm()}
		return request{Dataset: "scene", K: r.logInt(1, 100), Query: query{
			Kind: "scene", Attrs: sceneAttrs, Coeffs: co, AttrLo: sceneLo, AttrHi: sceneHi, Levels: sceneLevels}}
	case "knowledge":
		return request{Dataset: "scene", K: 1 + r.intn(50), MinScore: floor(0.2), Query: query{Kind: "knowledge"}}
	case "fsm":
		return request{Dataset: "weather", K: 1 + r.intn(50), MinScore: floor(0.01), Query: query{Kind: "fsm", Prefilter: !cacheable}}
	case "fsm-distance":
		return request{Dataset: "weather", K: 1 + r.intn(50), MinScore: floor(0.2), Query: query{Kind: "fsm-distance", Horizon: 4 + r.intn(9)}}
	case "geology":
		seq := make([]string, 2+r.intn(3))
		for i := range seq {
			seq[i] = lithNames[r.intn(len(lithNames))]
		}
		method := "dp"
		if r.intn(2) == 1 {
			method = "pruned"
		}
		return request{Dataset: "basin", K: 1 + r.intn(20), Query: query{
			Kind: "geology", Sequence: seq, MaxGapFt: r.between(5, 25), MinGamma: r.between(30, 60),
			GammaRampAPI: r.between(0, 10), Method: method}}
	}
	panic("unknown family " + family)
}

// Stream identifiers: the streams of one seed never overlap.
const (
	streamWarm uint64 = iota + 1
	streamClosed
	streamOpen
	streamPool
	streamSchedule
	streamAppend
	streamAppendSchedule
	streamProbe
	streamQuiesce
	streamArchive

	// streamsPerPass separates the stream identifiers, and
	// appendsPerPass the append batch indexes, of the passes of one run.
	streamsPerPass = 16
	appendsPerPass = 1_000_000
)

// stream yields the i-th operation of one phase of a workload.
type stream struct {
	w    workload
	sz   sizes
	seed int64
	id   uint64
	mix  []mixEntry
	pool []request // hot_batch only
	zipf []float64 // hot_batch only: cumulative rank probabilities
}

type mixEntry struct {
	family string
	cum    float64
}

func newStream(w workload, sz sizes, seed int64, id uint64) *stream {
	s := &stream{w: w, sz: sz, seed: seed, id: id}
	fams := make([]string, 0, len(w.Mix))
	for f := range w.Mix {
		fams = append(fams, f)
	}
	sort.Strings(fams)
	total := 0.0
	for _, f := range fams {
		total += w.Mix[f]
	}
	cum := 0.0
	for _, f := range fams {
		cum += w.Mix[f] / total
		s.mix = append(s.mix, mixEntry{f, cum})
	}
	if w.Batch {
		// Pool members all ask for poolK results: with the mix's own K
		// (1..200) the cost of a batch hung on which few members the
		// seed put at the head of the Zipf ranking, and throughput
		// differed by 30 % between seeds.
		s.pool = make([]request, poolSize)
		for i := range s.pool {
			s.pool[i] = s.draw(newRNG(seed, streamPool, uint64(i)), true)
			s.pool[i].K = poolK
		}
		s.zipf = make([]float64, poolSize)
		sum := 0.0
		for i := range s.zipf {
			sum += 1 / math.Pow(float64(i+1), zipfS)
			s.zipf[i] = sum
		}
		for i := range s.zipf {
			s.zipf[i] /= sum
		}
	}
	return s
}

func (s *stream) draw(r *rng, cacheable bool) request {
	u := r.float()
	family := s.mix[len(s.mix)-1].family
	for _, e := range s.mix {
		if u < e.cum {
			family = e.family
			break
		}
	}
	onStream := family == "linear" && r.float() < s.w.StreamShare
	return genRequest(r, family, s.sz, onStream, cacheable)
}

// requests returns the read requests of operation i: one, or
// batchWidth pool members on hot_batch.
func (s *stream) requests(i int) []request {
	r := newRNG(s.seed, s.id, uint64(i))
	if !s.w.Batch {
		return []request{s.draw(r, false)}
	}
	out := make([]request, batchWidth)
	for j := range out {
		out[j] = s.pool[sort.SearchFloat64s(s.zipf, r.float())]
	}
	return out
}

// op returns operation i's path and body.
func (s *stream) op(i int) (path string, body []byte) {
	reqs := s.requests(i)
	if s.w.Batch {
		return "/batch", mustJSON(batchBody{Requests: reqs})
	}
	return "/run", mustJSON(reqs[0])
}

// appendBatch is the i-th append of a workload: rows drawn like the
// archive's own.
func appendBatch(w workload, sz sizes, seed int64, i int) appendBody {
	r := newRNG(seed, streamAppend, uint64(i))
	rows := make([][]float64, w.AppendRows)
	for j := range rows {
		row := make([]float64, sz.StreamDims)
		for k := range row {
			row[k] = r.norm()
		}
		rows[j] = row
	}
	b := appendBody{Dataset: "stream", Tuples: rows}
	if w.Tokens {
		b.Token = fmt.Sprintf("bench-%d-%d", seed, i)
	}
	return b
}

// poissonSchedule returns the due offsets of a Poisson process of the
// given rate over [0,d).
func poissonSchedule(seed int64, id uint64, rate float64, d time.Duration) []time.Duration {
	if rate <= 0 {
		return nil
	}
	r := newRNG(seed, id, 0)
	var out []time.Duration
	for t := r.exp() / rate; t < d.Seconds(); t += r.exp() / rate {
		out = append(out, time.Duration(t*float64(time.Second)))
	}
	return out
}

// fixedSchedule returns evenly spaced due offsets with a seeded jitter
// of up to a quarter period, so appends do not beat against timers.
func fixedSchedule(seed int64, id uint64, rate float64, d time.Duration) []time.Duration {
	if rate <= 0 {
		return nil
	}
	r := newRNG(seed, id, 0)
	period := float64(time.Second) / rate
	var out []time.Duration
	for t := 0.0; ; t += period {
		due := time.Duration(t + r.between(0, period/4))
		if due >= d {
			return out
		}
		out = append(out, due)
	}
}
