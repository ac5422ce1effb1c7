// HTTP wiring for modelird: JSON request/response shapes, query
// compilation from the wire format, and the handlers (/run, /batch,
// /append, /stats, /healthz, /admin/snapshot). Every query handler threads the
// http.Request context into the engine, so a client that disconnects
// mid-query cancels its shard fan-out instead of burning CPU for
// nobody. The listener comes up before the engine is restored or
// built; until then /healthz answers 503 and every other endpoint
// refuses with the same status, so callers can wait on boot
// deterministically.

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"modelir"
)

// wireQuery is the JSON query shape: kind selects the family, the
// remaining fields are family-specific.
type wireQuery struct {
	Kind string `json:"kind"`

	// linear + scene: the model. Attrs defaults to x0..xn-1. For scene
	// queries with explicit coefficients, AttrLo/AttrHi/Levels control
	// the progressive decomposition; with no coefficients the demo HPS
	// risk model is used.
	Attrs     []string  `json:"attrs,omitempty"`
	Coeffs    []float64 `json:"coeffs,omitempty"`
	Intercept float64   `json:"intercept,omitempty"`
	AttrLo    []float64 `json:"attr_lo,omitempty"`
	AttrHi    []float64 `json:"attr_hi,omitempty"`
	Levels    []int     `json:"levels,omitempty"`

	// fsm + fsm-distance: a named machine ("fireants" is the built-in)
	// and options.
	Machine   string `json:"machine,omitempty"`
	Prefilter bool   `json:"prefilter,omitempty"`
	Horizon   int    `json:"horizon,omitempty"`

	// geology.
	Sequence     []string `json:"sequence,omitempty"`
	MaxGapFt     float64  `json:"max_gap_ft,omitempty"`
	MinGamma     float64  `json:"min_gamma,omitempty"`
	GammaRampAPI float64  `json:"gamma_ramp_api,omitempty"`
	Method       string   `json:"method,omitempty"`

	// knowledge: a named rule set ("hps" is the built-in).
	Rules string `json:"rules,omitempty"`
}

// wireRequest is the JSON request shape accepted by /run and inside
// /batch.
type wireRequest struct {
	Dataset  string    `json:"dataset"`
	Query    wireQuery `json:"query"`
	K        int       `json:"k,omitempty"`
	Workers  int       `json:"workers,omitempty"`
	Budget   int       `json:"budget,omitempty"`
	MinScore *float64  `json:"min_score,omitempty"`
}

// compileRequest turns a wire request into an engine request.
func compileRequest(wr wireRequest) (modelir.Request, error) {
	q, err := compileQuery(wr.Query)
	if err != nil {
		return modelir.Request{}, err
	}
	return modelir.Request{
		Dataset:  wr.Dataset,
		Query:    q,
		K:        wr.K,
		Workers:  wr.Workers,
		Budget:   wr.Budget,
		MinScore: wr.MinScore,
	}, nil
}

// The built-in models a wire query can name, built once at start-up.
// They are immutable and queries only read them, so every request that
// names one shares it instead of rebuilding it.
var (
	fireAnts = modelir.FireAntsModel()
	hpsRules = modelir.HPSTileRules()
	// hpsScene is the paper's HPS risk model over Landsat bands +
	// elevation, decomposed with a 2-term coarse level.
	hpsScene = func() *modelir.ProgressiveLinearModel {
		pm, err := modelir.DecomposeLinear(modelir.HPSRiskModel(),
			[]float64{0, 0, 0, 0}, []float64{255, 255, 255, 1500}, 2, 4)
		if err != nil {
			panic(err) // static construction cannot fail
		}
		return pm
	}()
	// defaultAttrs is the table behind defaultAttrNames.
	defaultAttrs = xNames(64)
)

// xNames returns the names x0..xn-1.
func xNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = "x" + strconv.Itoa(i)
	}
	return names
}

// defaultAttrNames names a linear model's n attributes when the query
// gives none: a prefix of the shared table (NewLinearModel copies what
// it is given), or fresh names for a model wider than the table.
func defaultAttrNames(n int) []string {
	if n <= len(defaultAttrs) {
		return defaultAttrs[:n]
	}
	return xNames(n)
}

func compileQuery(wq wireQuery) (modelir.Query, error) {
	switch strings.ToLower(wq.Kind) {
	case "linear":
		m, err := linearModelOf(wq)
		if err != nil {
			return nil, err
		}
		return modelir.LinearQuery{Model: m}, nil
	case "scene":
		if len(wq.Coeffs) == 0 {
			return modelir.SceneQuery{Model: hpsScene}, nil // the built-in demo
		}
		m, err := linearModelOf(wq)
		if err != nil {
			return nil, err
		}
		if len(wq.AttrLo) != len(wq.Coeffs) || len(wq.AttrHi) != len(wq.Coeffs) || len(wq.Levels) == 0 {
			return nil, errors.New("scene query needs attr_lo/attr_hi/levels matching coeffs")
		}
		pm, err := modelir.DecomposeLinear(m, wq.AttrLo, wq.AttrHi, wq.Levels...)
		if err != nil {
			return nil, err
		}
		return modelir.SceneQuery{Model: pm}, nil
	case "fsm":
		m, err := machineOf(wq.Machine)
		if err != nil {
			return nil, err
		}
		fq := modelir.FSMQuery{Machine: m}
		if wq.Prefilter {
			// The prefilter is sound only for the fire-ants machine.
			fq.Prefilter = modelir.FireAntsPrefilter
		}
		return fq, nil
	case "fsm-distance":
		m, err := machineOf(wq.Machine)
		if err != nil {
			return nil, err
		}
		return modelir.FSMDistanceQuery{Target: m, Horizon: wq.Horizon}, nil
	case "geology":
		seq := make([]modelir.Lithology, 0, len(wq.Sequence))
		for _, s := range wq.Sequence {
			l, err := lithologyOf(s)
			if err != nil {
				return nil, err
			}
			seq = append(seq, l)
		}
		method, err := methodOf(wq.Method)
		if err != nil {
			return nil, err
		}
		return modelir.GeologyQuery{
			Sequence:     seq,
			MaxGapFt:     wq.MaxGapFt,
			MinGamma:     wq.MinGamma,
			GammaRampAPI: wq.GammaRampAPI,
			Method:       method,
		}, nil
	case "knowledge":
		switch wq.Rules {
		case "", "hps":
			return modelir.KnowledgeQuery{Rules: hpsRules}, nil
		default:
			return nil, fmt.Errorf("unknown rule set %q (built-in: hps)", wq.Rules)
		}
	default:
		return nil, fmt.Errorf("unknown query kind %q (want linear, scene, fsm, fsm-distance, geology, knowledge)", wq.Kind)
	}
}

func linearModelOf(wq wireQuery) (*modelir.LinearModel, error) {
	if len(wq.Coeffs) == 0 {
		return nil, errors.New("query needs coeffs")
	}
	attrs := wq.Attrs
	if len(attrs) == 0 {
		attrs = defaultAttrNames(len(wq.Coeffs))
	}
	return modelir.NewLinearModel(attrs, wq.Coeffs, wq.Intercept)
}

func machineOf(name string) (*modelir.Machine, error) {
	switch name {
	case "", "fireants":
		return fireAnts, nil
	default:
		return nil, fmt.Errorf("unknown machine %q (built-in: fireants)", name)
	}
}

func lithologyOf(s string) (modelir.Lithology, error) {
	switch strings.ToLower(s) {
	case "shale":
		return modelir.Shale, nil
	case "sandstone":
		return modelir.Sandstone, nil
	case "siltstone":
		return modelir.Siltstone, nil
	case "limestone":
		return modelir.Limestone, nil
	default:
		return 0, fmt.Errorf("unknown lithology %q", s)
	}
}

func methodOf(s string) (modelir.GeologyMethod, error) {
	switch strings.ToLower(s) {
	case "", "dp":
		return modelir.GeoDP, nil
	case "brute":
		return modelir.GeoBruteForce, nil
	case "pruned":
		return modelir.GeoPruned, nil
	default:
		return 0, fmt.Errorf("unknown geology method %q (want dp, brute, pruned)", s)
	}
}

// wireAppend is the POST /append request shape: a dataset name plus
// exactly one non-empty payload (the payload kind must match the
// dataset's kind; scenes are not appendable). Token makes the append
// idempotent, and only the router role accepts one: a retried request
// carrying the same token returns the recorded outcome instead of
// appending twice. The single role keeps no token record, so it
// refuses a tokened append with 400 rather than risk a double append.
type wireAppend struct {
	Dataset string                 `json:"dataset"`
	Tuples  [][]float64            `json:"tuples,omitempty"`
	Series  []modelir.RegionSeries `json:"series,omitempty"`
	Wells   []modelir.WellLog      `json:"wells,omitempty"`
	Token   string                 `json:"token,omitempty"`
}

// wireAppendResponse reports one append's outcome: rows accepted and
// the dataset's generation after the flush that carried them (clients
// can watch Gen advance on /stats). The router role also reports the
// owning partition, the batch's sequence number, whether a token replay
// was deduplicated, and any replicas the append quarantined.
type wireAppendResponse struct {
	Appended    int      `json:"appended"`
	Gen         uint64   `json:"gen"`
	Part        int      `json:"part,omitempty"`
	Seq         uint64   `json:"seq,omitempty"`
	Duplicate   bool     `json:"duplicate,omitempty"`
	Quarantined []string `json:"quarantined,omitempty"`
	Error       string   `json:"error,omitempty"`
}

// backend is what the HTTP surface serves from: a local engine in the
// single role, a cluster router in the router role. Both return exact
// answers, so the endpoints and wire shapes are role-independent.
type backend interface {
	Run(ctx context.Context, req modelir.Request) (modelir.Result, error)
	RunBatch(ctx context.Context, reqs []modelir.Request) ([]modelir.BatchResult, error)
	// appendRows applies one /append body and reports its outcome.
	appendRows(ctx context.Context, wa wireAppend) (wireAppendResponse, error)
	// serverStats fills the role-specific part of /stats.
	serverStats() wireServerStats
}

// engineBackend serves from an in-process engine (the single role).
// Appends flow through one shared group-commit appender: a lone
// /append applies at once, and calls that arrive during a flush land
// together as one delta segment when it ends.
type engineBackend struct {
	engine   *modelir.Engine
	appender *modelir.Appender
}

// newEngineBackend wraps an engine with its serving appender.
func newEngineBackend(engine *modelir.Engine) engineBackend {
	return engineBackend{engine: engine, appender: modelir.NewAppender(engine, modelir.AppenderOptions{})}
}

func (b engineBackend) Run(ctx context.Context, req modelir.Request) (modelir.Result, error) {
	return b.engine.Run(ctx, req)
}

func (b engineBackend) RunBatch(ctx context.Context, reqs []modelir.Request) ([]modelir.BatchResult, error) {
	return b.engine.RunBatch(ctx, reqs)
}

func (b engineBackend) appendRows(ctx context.Context, wa wireAppend) (wireAppendResponse, error) {
	if wa.Token != "" {
		// This role keeps no token record: honouring the request would
		// append a retried one twice.
		return wireAppendResponse{}, errors.New("append tokens are honoured by the router role only (-role=router); the single role refuses them")
	}
	kinds := 0
	for _, nonEmpty := range []bool{len(wa.Tuples) > 0, len(wa.Series) > 0, len(wa.Wells) > 0} {
		if nonEmpty {
			kinds++
		}
	}
	if kinds != 1 {
		return wireAppendResponse{}, errors.New("append needs exactly one non-empty payload: tuples, series, or wells")
	}
	var kind string
	var err error
	switch {
	case len(wa.Tuples) > 0:
		kind, err = "tuples", b.appender.AppendTuples(ctx, wa.Dataset, wa.Tuples)
	case len(wa.Series) > 0:
		kind, err = "series", b.appender.AppendSeries(ctx, wa.Dataset, wa.Series)
	default:
		kind, err = "wells", b.appender.AppendWells(ctx, wa.Dataset, wa.Wells)
	}
	if err != nil {
		return wireAppendResponse{}, err
	}
	out := wireAppendResponse{Appended: len(wa.Tuples) + len(wa.Series) + len(wa.Wells)}
	for _, ds := range b.engine.Datasets() {
		if ds.Name == wa.Dataset && ds.Kind == kind {
			out.Gen = ds.Gen
		}
	}
	return out, nil
}

func (b engineBackend) serverStats() wireServerStats {
	var out wireServerStats
	out.Role = "single"
	out.Shards = b.engine.NumShards()
	out.Datasets = b.engine.Datasets()
	cs := b.engine.CacheStats()
	out.Cache.Hits = cs.Hits
	out.Cache.Misses = cs.Misses
	out.Cache.Stores = cs.Stores
	out.Cache.Evictions = cs.Evictions
	out.Cache.Invalidations = cs.Invalidations
	out.Cache.Entries = cs.Entries
	out.Cache.Bytes = cs.Bytes
	return out
}

// routerBackend serves by scatter-gathering over cluster nodes (the
// router role). Results are bit-identical to the single role over the
// union of the partitions; caching and stats beyond the merge live on
// the nodes.
type routerBackend struct {
	router *modelir.ClusterRouter
	peers  int
}

func (b routerBackend) Run(ctx context.Context, req modelir.Request) (modelir.Result, error) {
	return b.router.Run(ctx, req)
}

func (b routerBackend) RunBatch(ctx context.Context, reqs []modelir.Request) ([]modelir.BatchResult, error) {
	return b.router.RunBatch(ctx, reqs), nil
}

// appendRows routes the batch through the cluster write path: the
// router picks the owning partition, sequences the batch, and
// replicates it to every healthy replica (DESIGN.md §12).
func (b routerBackend) appendRows(ctx context.Context, wa wireAppend) (wireAppendResponse, error) {
	res, err := b.router.Append(ctx, modelir.ClusterAppendRequest{
		Dataset: wa.Dataset,
		Tuples:  wa.Tuples,
		Series:  wa.Series,
		Wells:   wa.Wells,
		Token:   wa.Token,
	})
	if err != nil {
		return wireAppendResponse{}, err
	}
	return wireAppendResponse{
		Appended:    res.Rows,
		Gen:         res.Gen,
		Part:        res.Part,
		Seq:         res.Seq,
		Duplicate:   res.Duplicate,
		Quarantined: res.Quarantined,
	}, nil
}

func (b routerBackend) serverStats() wireServerStats {
	out := wireServerStats{Role: "router", Peers: b.peers}
	health := b.router.PeerHealth()
	out.PeerHealth = make(map[string]string, len(health))
	for addr, st := range health {
		out.PeerHealth[addr] = st.String()
	}
	out.PeerConns = b.router.PeerConns()
	out.PeerErrors = b.router.PeerErrors()
	out.AppendSeqs = b.router.AppendSeqs()
	out.Degraded = b.router.Degraded()
	rs := b.router.ResyncStats()
	out.Resync = &rs
	return out
}

// degraded reports partitions serving below their full replica set;
// /healthz surfaces it without failing the probe.
func (b routerBackend) degraded() bool { return b.router.Degraded() }

// server bundles the backend with serving metadata. The backend may
// arrive after the listener is up (restore/build runs in the
// background at boot): handlers gate on the ready flag, and the
// atomic store in setBackend publishes the backend write to them.
type server struct {
	backend    backend
	snapshotFn func(context.Context) error // nil = persistence disabled
	snapMu     sync.Mutex                  // serializes on-demand snapshots
	ready      atomic.Bool
	started    time.Time
	mux        *http.ServeMux
}

// newServer routes the endpoints over a backend. A nil backend starts
// the server unready (503 everywhere but a truthful /healthz) until
// setBackend delivers one.
func newServer(b backend) *server {
	s := &server{started: time.Now()}
	mux := http.NewServeMux()
	mux.HandleFunc("/run", s.handleRun)
	mux.HandleFunc("/batch", s.handleBatch)
	mux.HandleFunc("/append", s.handleAppend)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/admin/snapshot", s.handleSnapshot)
	s.mux = mux
	if b != nil {
		s.setBackend(b, nil)
	}
	return s
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// setBackend installs the serving backend (and the optional on-demand
// snapshot hook) and flips the server ready.
func (s *server) setBackend(b backend, snapshotFn func(context.Context) error) {
	s.backend = b
	s.snapshotFn = snapshotFn
	s.ready.Store(true)
}

// notReady answers 503 and reports true while the engine is still
// restoring or building.
func (s *server) notReady(w http.ResponseWriter) bool {
	if s.ready.Load() {
		return false
	}
	writeJSON(w, http.StatusServiceUnavailable, errorBody("engine not ready (restore/build in progress)"))
	return true
}

// degradedReporter is implemented by backends that can lose replicas
// (the router role): degraded reports any partition serving below its
// full healthy replica set.
type degradedReporter interface{ degraded() bool }

// handleHealthz is the readiness probe: 503 until the engine is
// serving, 200 after. A degraded router — some partition below its
// full replica set while resync or recovery runs — still answers 200
// with "degraded": true, because every query is still served exactly
// from the remaining replicas; the flag is the operator's cue, not a
// load-balancer eviction signal.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	ready := s.ready.Load()
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	resp := map[string]bool{"ready": ready}
	if ready {
		if dr, ok := s.backend.(degradedReporter); ok {
			resp["degraded"] = dr.degraded()
		}
	}
	writeJSON(w, status, resp)
}

// handleSnapshot persists the engine's current state to the -data-dir
// backend on demand.
func (s *server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if s.notReady(w) {
		return
	}
	if s.snapshotFn == nil {
		writeJSON(w, http.StatusNotFound, errorBody("persistence disabled (start with -data-dir)"))
		return
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	start := time.Now()
	if err := s.snapshotFn(r.Context()); err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody("snapshot: "+err.Error()))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "wall_ns": time.Since(start).Nanoseconds()})
}

// writeJSON answers with v through encoding/json: every cold endpoint
// and every body that carries free text. The value is encoded before the
// header goes out, so one that cannot be encoded becomes a 500 with an
// error member instead of a 200 with half a body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := getRespBuf()
	defer putRespBuf(buf)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		status = http.StatusInternalServerError
		buf.b = appendErrorResult(buf.b[:0], "encode response: "+err.Error())
	}
	// Encode ends the value with a newline; result bodies have none, so
	// no body does.
	send(w, status, bytes.TrimSuffix(buf.b, []byte("\n")))
}

// maxBodyBytes caps a request body. The largest legitimate one is an
// /append batch: the benchmark's are about 30 KiB (128 rows), the
// README's one row, so 32 MiB leaves three orders of magnitude of
// headroom while keeping an accepted batch well inside the cluster's
// 64 MiB replication frame.
const maxBodyBytes = 32 << 20

// readBody decodes an /append body of at most maxBodyBytes into v. On
// failure it returns the status to answer with: 413 for an oversized
// body, 400 for anything else.
func readBody(w http.ResponseWriter, r *http.Request, v any) (int, error) {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return http.StatusOK, nil
	case errors.As(err, &tooBig):
		return http.StatusRequestEntityTooLarge, err
	default:
		return http.StatusBadRequest, err
	}
}

// statusClientClosedRequest is the de-facto status (nginx's 499) for a
// request abandoned by the client: not a server fault, not a 4xx the
// client can fix — just nobody left to answer.
const statusClientClosedRequest = 499

// statusOf maps engine and cluster errors onto HTTP statuses. Timeouts
// and cancellations get their own codes (504/499) so operators can tell
// an overloaded cluster from a malformed request in access logs.
func statusOf(err error) int {
	switch {
	case errors.Is(err, modelir.ErrUnknownDataset):
		return http.StatusNotFound
	case errors.Is(err, modelir.ErrPartitionUnavailable):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	default:
		return http.StatusBadRequest
	}
}

// writeErr maps err onto its status and writes v. A 503 carries
// Retry-After: the partition is expected back as soon as a replica
// recovers or catches up, so well-behaved clients should retry, not
// give up.
func writeErr(w http.ResponseWriter, err error, v any) {
	status := statusOf(err)
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, v)
}

// handleAppend grows a registered dataset under traffic: rows enter a
// delta segment via the shared group-commit appender and are queryable
// the moment the response is written.
func (s *server) handleAppend(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if s.notReady(w) {
		return
	}
	var wa wireAppend
	if status, err := readBody(w, r, &wa); err != nil {
		writeJSON(w, status, wireAppendResponse{Error: "bad append JSON: " + err.Error()})
		return
	}
	resp, err := s.backend.appendRows(r.Context(), wa)
	if err != nil {
		if r.Context().Err() != nil {
			return // client gone; an error means none of its rows landed
		}
		writeErr(w, err, wireAppendResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if s.notReady(w) {
		return
	}
	var wr wireRequest
	if status, err := readWire(w, r, &wr, nil); err != nil {
		writeJSON(w, status, errorBody("bad request JSON: "+err.Error()))
		return
	}
	req, err := compileRequest(wr)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody(err.Error()))
		return
	}
	// r.Context() ends when the client disconnects: the engine aborts
	// the fan-out mid-shard and we have nobody left to answer.
	res, err := s.backend.Run(r.Context(), req)
	if err != nil {
		if r.Context().Err() != nil {
			return // client gone; the response writer is dead
		}
		writeErr(w, err, errorBody(err.Error()))
		return
	}
	buf := getRespBuf()
	defer putRespBuf(buf)
	if buf.b, err = appendResult(buf.b, &res); err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody("encode response: "+err.Error()))
		return
	}
	send(w, http.StatusOK, buf.b)
}

// wireBatch is the /batch envelope, of at most maxBatchRequests requests;
// the response is {"results":[...]}, one result or error result each.
type wireBatch struct {
	Requests []wireRequest `json:"requests"`
}

func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if s.notReady(w) {
		return
	}
	var wb wireBatch
	if status, err := readWire(w, r, nil, &wb); err != nil {
		writeJSON(w, status, errorBody("bad batch JSON: "+err.Error()))
		return
	}
	reqs := make([]modelir.Request, len(wb.Requests))
	compileErrs := make([]error, len(wb.Requests))
	for i, wr := range wb.Requests {
		reqs[i], compileErrs[i] = compileRequest(wr)
	}
	// Compile failures ride along as per-slot errors: the engine skips
	// nil-query requests with a validation error in the same slot.
	batch, err := s.backend.RunBatch(r.Context(), reqs)
	if err != nil && r.Context().Err() != nil {
		return // client gone
	}
	buf := getRespBuf()
	defer putRespBuf(buf)
	buf.b = appendBatch(buf.b, batch, compileErrs)
	send(w, http.StatusOK, buf.b)
}

// wireServerStats is the /stats response. Role-specific fields are
// zero for the roles they do not apply to: a router has no engine
// shards or cache; a single engine has no peers.
type wireServerStats struct {
	Role string `json:"role"`
	// Router role: peer count, each peer's health state and connection
	// (up since when, re-established how often), and every sequenced
	// dataset partition's last append sequence number.
	Peers      int                                     `json:"peers,omitempty"`
	PeerHealth map[string]string                       `json:"peer_health,omitempty"`
	PeerConns  map[string]modelir.ClusterPeerConnStats `json:"peer_conns,omitempty"`
	PeerErrors map[string]string                       `json:"peer_errors,omitempty"`
	AppendSeqs map[string]map[int]uint64               `json:"append_seqs,omitempty"`
	Degraded   bool                                    `json:"degraded,omitempty"`
	Resync     *modelir.ClusterResyncStats             `json:"resync,omitempty"`
	UptimeS    float64                                 `json:"uptime_s"`
	Shards     int                                     `json:"shards"`
	GOMAXPROCS int                                     `json:"gomaxprocs"`
	Datasets   []modelir.DatasetInfo                   `json:"datasets,omitempty"`
	Cache      struct {
		Hits          uint64 `json:"hits"`
		Misses        uint64 `json:"misses"`
		Stores        uint64 `json:"stores"`
		Evictions     uint64 `json:"evictions"`
		Invalidations uint64 `json:"invalidations"`
		Entries       int    `json:"entries"`
		// Bytes is every cached key plus every memoised items encoding.
		Bytes int `json:"bytes"`
	} `json:"cache"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	if s.notReady(w) {
		return
	}
	out := s.backend.serverStats()
	out.UptimeS = time.Since(s.started).Seconds()
	out.GOMAXPROCS = runtime.GOMAXPROCS(0)
	writeJSON(w, http.StatusOK, out)
}
