// The router role: cover a request's partitions with the fewest nodes
// that hold them, send each chosen node one stream listing its
// partitions (on the nodes' connections, peer.go), cover a failed
// node's partitions again on their other replicas, and merge the
// partial top-Ks with the exact (score, ID) rule — bit-identical to a
// single-node run.

package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"time"

	"modelir/internal/core"
	"modelir/internal/topk"
)

// ErrPartitionUnavailable reports that a partition's every replica
// failed at the transport level — the cluster cannot currently give an
// exact answer, and a partial one is never returned instead.
var ErrPartitionUnavailable = errors.New("cluster: partition unavailable")

// RemoteError is a typed error a node reported for its slice of the
// query. Remote errors are deterministic (bad query, unknown dataset,
// execution failure), so the router does not fail over on them — a
// replica would fail identically.
type RemoteError struct {
	Addr string
	Code string
	Msg  string
}

// remoteError decodes an 'E' payload from addr into its typed error.
func remoteError(addr string, payload []byte) error {
	code, msg, err := decodeError(payload)
	if err != nil {
		return err
	}
	return &RemoteError{Addr: addr, Code: code, Msg: msg}
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("cluster: node %s: %s: %s", e.Addr, e.Code, e.Msg)
}

// Unwrap maps wire codes back to the sentinel errors callers test with
// errors.Is, so a cluster run fails the same way a local run would.
func (e *RemoteError) Unwrap() error {
	switch e.Code {
	case "unknown-dataset":
		return core.ErrUnknownDataset
	case "cancelled":
		return context.Canceled
	case "refused":
		return ErrAppendRefused
	default:
		return nil
	}
}

// RouterOptions tunes the router's fault handling. The zero value
// selects production defaults; tests shrink the retry timings so fault
// matrices run in milliseconds.
type RouterOptions struct {
	// DialTimeout bounds each connection attempt (default 5s).
	DialTimeout time.Duration
	// AckTimeout bounds waiting for an append ack, probe echo, or
	// seq-state reply, and each frame write on a peer connection
	// (default 10s).
	AckTimeout time.Duration
	// ReadAttempts is how many times one replica is tried on the read
	// path before failing over to the next (default 2): transient
	// transport faults should not burn a replica.
	ReadAttempts int
	// AppendAttempts is how many times one replica is tried per append
	// batch before it is quarantined as stale (default 3).
	AppendAttempts int
	// RetryBase is the first retry's backoff; each further attempt
	// doubles it up to RetryMax, and every sleep is jittered to half
	// its nominal value plus a uniform random half (defaults 5ms/250ms).
	RetryBase time.Duration
	RetryMax  time.Duration
	// MaxLogBytes caps each partition's append log (the encoded frames
	// retained for catch-up replay). When a quarantined replica pins
	// more than this many bytes, the oldest fully-acked-elsewhere
	// records are dropped and the replica is repaired by snapshot
	// resync instead of replay. 0 selects the 64 MiB default; negative
	// disables the cap (the log then grows until every replica acks).
	MaxLogBytes int64
}

func (o RouterOptions) withDefaults() RouterOptions {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.AckTimeout <= 0 {
		o.AckTimeout = 10 * time.Second
	}
	if o.ReadAttempts <= 0 {
		o.ReadAttempts = 2
	}
	if o.AppendAttempts <= 0 {
		o.AppendAttempts = 3
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 5 * time.Millisecond
	}
	if o.RetryMax <= 0 {
		o.RetryMax = 250 * time.Millisecond
	}
	if o.MaxLogBytes == 0 {
		o.MaxLogBytes = 64 << 20
	}
	return o
}

// Router scatter-gathers requests across a topology over one
// multiplexed connection per peer (peer.go), tracks every peer's
// health, and owns the replicated write path (append.go) plus the
// catch-up protocol that re-admits quarantined replicas (catchup.go).
// The zero value is not usable; construct with NewRouter or
// NewRouterWith, and Close it to release its connections.
type Router struct {
	topo   Topology
	opt    RouterOptions
	health *healthTracker
	place  *placer
	peers  map[string]*peer // one per topology node, fixed at construction

	// ing is the append-side state: per-dataset ingest cursors and the
	// client-token dedup table (append.go).
	ing routerIngest

	// stats counts resync and recovery events (resync.go).
	stats routerResyncStats

	loopMu   sync.Mutex
	loopStop chan struct{}
	loopDone chan struct{}
}

// NewRouter returns a router over the topology with default options.
func NewRouter(topo Topology) *Router {
	return NewRouterWith(topo, RouterOptions{})
}

// NewRouterWith returns a router with explicit fault-handling options.
func NewRouterWith(topo Topology, opt RouterOptions) *Router {
	r := &Router{topo: topo, opt: opt.withDefaults(), health: newHealthTracker(), place: newPlacer(topo)}
	r.peers = make(map[string]*peer, len(topo.Nodes))
	for _, addr := range topo.Nodes {
		r.peers[addr] = &peer{r: r, addr: addr}
	}
	r.ing.sets = make(map[string]*dsIngest)
	r.ing.tokens = make(map[string]*tokenEntry)
	return r
}

// PeerHealth reports every topology peer's health state (peers with no
// recorded evidence are healthy).
func (r *Router) PeerHealth() map[string]HealthState {
	out := r.health.snapshot()
	for _, addr := range r.topo.Nodes {
		if _, ok := out[addr]; !ok {
			out[addr] = Healthy
		}
	}
	return out
}

// backoff sleeps the jittered exponential delay for the given retry
// attempt (1-based), honoring ctx.
func (r *Router) backoff(ctx context.Context, attempt int) error {
	d := r.opt.RetryBase << (attempt - 1)
	if d > r.opt.RetryMax {
		d = r.opt.RetryMax
	}
	// Jitter to [d/2, d): concurrent retries against a recovering node
	// must not arrive in lockstep.
	d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// dataKindOf maps a query family to the archive family it scans,
// mirroring the engine's dataset tables.
func dataKindOf(q core.Query) (DataKind, error) {
	switch q.(type) {
	case core.LinearQuery:
		return KindTuples, nil
	case core.SceneQuery, core.KnowledgeQuery:
		return KindScene, nil
	case core.FSMQuery, core.FSMDistanceQuery:
		return KindSeries, nil
	case core.GeologyQuery:
		return KindWells, nil
	default:
		return 0, fmt.Errorf("%w: %T", core.ErrUnencodableQuery, q)
	}
}

// Run executes one request across the cluster and returns a result
// bit-identical (IDs and scores) to a single-node Engine.Run over the
// union of the partitions. req.Dataset is the dataset's cluster-wide
// name, and the query must be encodable (core.ErrUnencodableQuery).
//
// A read goes to the fewest servable nodes that hold the dataset's
// partitions (cover), each sent one 'Q' listing the partitions it
// serves; at replication = node count that is one node, one hop. A
// one-node cover runs on the caller's goroutine. When a covering node
// fails at the transport level its partitions are covered again on
// their other replicas; deterministic remote errors surface as typed
// errors. ctx cancellation aborts the whole read, including remote
// execution.
func (r *Router) Run(ctx context.Context, req core.Request) (core.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	if req.Query == nil {
		return core.Result{}, errors.New("cluster: request needs a Query")
	}
	if req.K == 0 {
		req.K = core.DefaultK
	}
	if req.K < 1 {
		return core.Result{}, fmt.Errorf("cluster: request K %d: %w", req.K, topk.ErrBadCapacity)
	}
	if req.MinScore != nil && math.IsNaN(*req.MinScore) {
		return core.Result{}, errors.New("cluster: NaN request MinScore")
	}
	// Workers does not reach the nodes, so it is checked here as a
	// local engine would.
	if req.Budget < 0 || req.Workers < 0 {
		return core.Result{}, errors.New("cluster: negative request Budget or Workers")
	}
	kind, err := dataKindOf(req.Query)
	if err != nil {
		return core.Result{}, err
	}
	placements := r.place.layout(req.Dataset, kind)
	if len(placements) == 0 {
		return core.Result{}, errors.New("cluster: empty topology")
	}
	body, err := core.AppendRequest(nil, req)
	if err != nil {
		return core.Result{}, err
	}
	reqHash := hash64(body)

	// Each round covers the partitions still unanswered, avoiding the
	// nodes earlier rounds lost to transport faults. The floor carried
	// into a later round is the best a finished partial proved: a
	// partial arrives best-first, so a full one's K-th item scores it.
	// The request's own MinScore needs no carrying, since every node
	// applies it from the request.
	want := make([]int, len(placements))
	for i := range want {
		want[i] = i
	}
	floor := math.Inf(-1)
	partials := make([]Partial, 0, 1)
	var lost map[string]error
	for len(want) > 0 {
		covers, err := r.cover(req.Dataset, placements, want, reqHash, lost)
		if err != nil {
			return core.Result{}, err
		}
		outs := r.scatter(ctx, req, body, covers, floor)
		// Deterministic error selection: context first (it is what the
		// caller acted on), then the first typed error in cover order;
		// only transport faults are covered again.
		if err := ctx.Err(); err != nil {
			return core.Result{}, err
		}
		for _, o := range outs {
			if o.err != nil && !o.transport {
				return core.Result{}, o.err
			}
		}
		want = want[:0]
		for i, o := range outs {
			if o.err != nil {
				if lost == nil {
					lost = make(map[string]error)
				}
				lost[covers[i].addr] = o.err
				want = append(want, covers[i].parts...)
				continue
			}
			partials = append(partials, o.p)
			if len(o.p.Items) >= req.K && o.p.Items[req.K-1].Score > floor {
				floor = o.p.Items[req.K-1].Score
			}
		}
		sort.Ints(want)
	}

	// A partial arrives best-first (a node orders its own answer), so a
	// one-node read passes it through. Several partials merge as
	// unordered sets: the pooled heap's one ordering pass is the
	// router's only sort.
	var st core.QueryStats
	st.Kind = req.Query.Kind()
	for _, p := range partials {
		st.Evaluations += p.Stats.Evaluations
		st.Examined += p.Stats.Examined
		st.Pruned += p.Stats.Pruned
		st.Shards += p.Stats.Shards
		st.Truncated = st.Truncated || p.Stats.Truncated
	}
	var items []topk.Item
	if len(partials) == 1 && len(partials[0].Items) <= req.K {
		items = partials[0].Items
	} else {
		h, err := topk.GetHeap(req.K)
		if err != nil {
			return core.Result{}, fmt.Errorf("cluster: %w", err)
		}
		defer topk.PutHeap(h)
		for _, p := range partials {
			topk.MergeItems(h, p.Items)
		}
		items = h.Results()
	}
	st.Wall = time.Since(start)
	return core.Result{Items: items, Stats: st}, nil
}

// RunBatch executes the requests concurrently, one scatter-gather per
// slot. Results and errors are positional.
func (r *Router) RunBatch(ctx context.Context, reqs []core.Request) []core.BatchResult {
	out := make([]core.BatchResult, len(reqs))
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i].Result, out[i].Err = r.Run(ctx, reqs[i])
		}(i)
	}
	wg.Wait()
	return out
}

// coverSet is one node's share of a read: the partitions (indices into
// the dataset's layout, ascending) it serves with one 'Q'.
type coverSet struct {
	addr  string
	parts []int
}

// cover picks the fewest servable nodes that hold the wanted
// partitions, greedily: the node holding the most still-uncovered
// partitions first. Ties go to the rendezvous winner on the request's
// hash, so a repeated request lands on the same replica (whose cache
// has its answer) while distinct requests spread over the replicas.
// Quarantined (stale) and down replicas are skipped outright — a stale
// replica could answer from missing rows, so it is never served from —
// and so are the nodes this read lost, mapped to the fault that lost
// them. A partition no remaining replica holds is
// ErrPartitionUnavailable.
func (r *Router) cover(dataset string, pls []Placement, want []int, reqHash uint64, lost map[string]error) ([]coverSet, error) {
	left := append([]int(nil), want...)
	var covers []coverSet
	for len(left) > 0 {
		best, bestN, bestW := "", 0, uint64(0)
		for _, p := range left {
			for _, addr := range pls[p].Nodes {
				if _, gone := lost[addr]; gone || !r.health.servable(addr) {
					continue
				}
				n := 0
				for _, q := range left {
					if slices.Contains(pls[q].Nodes, addr) {
						n++
					}
				}
				if w := mix64(reqHash ^ r.place.weight[addr]); n > bestN || n == bestN && w > bestW {
					best, bestN, bestW = addr, n, w
				}
			}
		}
		if bestN == 0 {
			return nil, r.unavailable(dataset, pls[left[0]], lost)
		}
		cs := coverSet{addr: best, parts: make([]int, 0, bestN)}
		rest := left[:0]
		for _, p := range left {
			if slices.Contains(pls[p].Nodes, best) {
				cs.parts = append(cs.parts, pls[p].Part)
			} else {
				rest = append(rest, p)
			}
		}
		left = rest
		covers = append(covers, cs)
	}
	return covers, nil
}

// unavailable is the error for a partition no replica can serve: the
// last transport fault a replica of it failed with, or the health
// states that ruled every replica out.
func (r *Router) unavailable(dataset string, pl Placement, lost map[string]error) error {
	for _, addr := range pl.Nodes {
		if err, ok := lost[addr]; ok {
			return fmt.Errorf("%w: %q part %d: %v", ErrPartitionUnavailable, dataset, pl.Part, err)
		}
	}
	return fmt.Errorf("%w: %q part %d: every replica quarantined or down",
		ErrPartitionUnavailable, dataset, pl.Part)
}

// nodeOutcome is one covering node's answer, or how it failed.
type nodeOutcome struct {
	p         Partial
	err       error
	transport bool
}

// scatter sends each cover set its 'Q', all under the same send-time
// floor, and waits for every answer: the first node on the caller's
// goroutine, each other on its own.
func (r *Router) scatter(ctx context.Context, req core.Request, body []byte, covers []coverSet, floor float64) []nodeOutcome {
	out := make([]nodeOutcome, len(covers))
	var wg sync.WaitGroup
	for i := 1; i < len(covers); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i].p, out[i].err, out[i].transport = r.runNode(ctx, req, body, covers[i], floor)
		}(i)
	}
	out[0].p, out[0].err, out[0].transport = r.runNode(ctx, req, body, covers[0], floor)
	wg.Wait()
	return out
}

// runNode serves one cover set on its node. The node gets ReadAttempts
// tries with jittered exponential backoff (transient faults should not
// burn a replica); a typed error from a live node is final, and a
// transport fault that outlasts the attempts is returned with
// transport set, for the caller to cover the partitions again
// elsewhere.
func (r *Router) runNode(ctx context.Context, req core.Request, body []byte, cs coverSet, floor float64) (Partial, error, bool) {
	var lastErr error
	for attempt := 1; attempt <= r.opt.ReadAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return Partial{}, err, false
		}
		if attempt > 1 {
			if err := r.backoff(ctx, attempt-1); err != nil {
				return Partial{}, err, false
			}
		}
		p, err, transport := r.attempt(ctx, req, body, cs, floor)
		if err == nil {
			r.health.ok(cs.addr)
			return p, nil, false
		}
		if !transport {
			return Partial{}, err, false
		}
		lastErr = err
	}
	return Partial{}, lastErr, true
}

// attempt runs one cover set on its node, as one stream on the node's
// connection. transport reports whether the failure was a
// connection-level fault (eligible for failover) rather than a
// node-reported error or a local cancellation.
func (r *Router) attempt(ctx context.Context, req core.Request, body []byte, cs coverSet, floor float64) (_ Partial, err error, transport bool) {
	payload := encodeQuery(nodeQuery{Parts: cs.parts, Req: req, Floor: floor}, body)
	rep, err, transport := r.roundTrip(ctx, cs.addr, frameQuery, payload, 0)
	if err != nil {
		return Partial{}, err, transport
	}
	switch rep.typ {
	case frameResult:
		p, err := decodePartial(rep.payload)
		return p, err, false
	case frameError:
		return Partial{}, remoteError(cs.addr, rep.payload), false
	default:
		return Partial{}, fmt.Errorf("%w: unexpected frame %q", ErrFrame, rep.typ), false
	}
}
