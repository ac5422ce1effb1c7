// The unified query surface: "a query is a model" (the paper's central
// abstraction) made literal in the API. Every model family — linear
// over tuples, linear over rasters, finite-state over series, knowledge
// over composite objects or tiles — is a Query value executed through
// one entry point, Engine.Run(ctx, Request), returning one Result shape
// with one normalized QueryStats. The paper's progressive screening
// (zone-mapped tuple blocks, pyramid levels, metadata prefilters,
// floored DPs) runs inside that one execution path; RunBatch schedules
// many requests on a shared pool through the same compiled plans.

package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"modelir/internal/bayes"
	"modelir/internal/colstore"
	"modelir/internal/fsm"
	"modelir/internal/linear"
	"modelir/internal/parallel"
	"modelir/internal/progressive"
	"modelir/internal/pyramid"
	"modelir/internal/sproc"
	"modelir/internal/topk"
)

// DefaultK is the result count used when Request.K is zero.
const DefaultK = 10

// Request describes one retrieval: which dataset, which model-query,
// and per-request execution options. The zero values of the options are
// sensible defaults (K=DefaultK, no budget, no score floor).
type Request struct {
	// Dataset names a registered archive of the kind the query expects
	// (tuples for LinearQuery, a scene for SceneQuery and
	// KnowledgeQuery, series for FSM queries, wells for GeologyQuery).
	Dataset string
	// Query is the model to retrieve with. Construct one of the
	// family-specific query types (LinearQuery, SceneQuery, FSMQuery,
	// FSMDistanceQuery, GeologyQuery, KnowledgeQuery); the interface is
	// sealed to this package.
	Query Query
	// K is the number of results wanted; 0 means DefaultK.
	K int
	// Workers is accepted and ignored: every request runs on its
	// caller's goroutine alone. It is kept so existing callers compile,
	// and a negative value is still refused.
	Workers int
	// Budget caps the work the query may spend, measured in the
	// family's evaluation unit (see QueryStats.Evaluations); 0 means
	// unlimited. A query that exhausts its budget stops early and
	// returns the exact top-K of everything evaluated so far with
	// Stats.Truncated set — a best-effort answer, not an error.
	Budget int
	// MinScore, when non-nil, is an inclusive score floor: only results
	// scoring >= *MinScore are returned, and execution may use the
	// floor to prune work early. Nil means no floor (note that 0 is a
	// meaningful floor for some families, hence the pointer).
	MinScore *float64
}

// QueryStats is the normalized work report every family returns: what a
// caller needs for observability without knowing which model family
// ran.
type QueryStats struct {
	// Kind is the model family that executed.
	Kind ModelKind
	// Evaluations counts the family's primary work unit: points scored
	// (linear over tuples), term evaluations (scenes), days scanned
	// (finite-state), unary+pair grades (geology), rule evaluations
	// (knowledge tiles).
	Evaluations int
	// Examined counts candidates actually inspected (points, pixels and
	// cells, regions, wells, tiles). Units run best-first, so it is the
	// work done before the screening floor passed every unit left. Like
	// Evaluations and Pruned, it is the same on every run of a request
	// over the same segments and floor.
	Examined int
	// Pruned counts candidates the screening machinery ruled out
	// without evaluating them (index pruning, metadata prefilters,
	// pyramid descent). Candidates left unscanned by budget exhaustion
	// are not counted — in Truncated runs, Examined + Pruned can fall
	// short of the dataset size by the budget-skipped remainder.
	// (Scene queries are the one approximation: their unvisited-pixel
	// count cannot split descent pruning from budget truncation.)
	Pruned int
	// Shards counts the segments the plan's units came from: the
	// dataset's base shards plus its live deltas (1 for scene queries,
	// whose one descent covers the whole scene, and for tile queries).
	Shards int
	// Wall is the end-to-end execution time of the request.
	Wall time.Duration
	// Truncated reports that Request.Budget ran out before the scan
	// finished: Items are the exact top-K of what was evaluated, which
	// may differ from the true top-K.
	Truncated bool
	// Cache reports the result cache's involvement in this request:
	// whether it was served from cache, plus a sample of the
	// engine-wide hit/miss/eviction/invalidation counters taken as the
	// request completed. Every field except Wall and Cache is
	// bit-identical between a cache hit and the cold run that populated
	// it.
	Cache CacheInfo
}

// Result is the uniform response of Engine.Run: ranked items plus the
// normalized stats. Item IDs are family-specific (tuple index, y*W+x
// pixel location, region id, well id, tile index); GeologyQuery items
// carry the matched strata indices in Payload.
type Result struct {
	Items []topk.Item
	Stats QueryStats

	cached *cachedResult // the cache entry a hit was served from, for AppendItems
}

// Query is one executable model query — the paper's "query is a model"
// as a type. It is implemented by the family query types in this
// package and sealed (the plan method is unexported): external packages
// compose queries from LinearQuery, SceneQuery, FSMQuery,
// FSMDistanceQuery, GeologyQuery and KnowledgeQuery.
type Query interface {
	// Kind reports the model family.
	Kind() ModelKind
	// plan compiles the query against the engine's datasets named by
	// parts into one single-use unit queue.
	plan(ctx context.Context, e *Engine, req Request, parts []Part) (queryPlan, error)
}

// Part is one registered dataset a read drains, and the offset its
// item IDs are lifted by: a cluster node answers a read over several
// of its partitions as one drain over their segments (see RunParts).
// Only tuple IDs are positional; the other families refuse a non-zero
// offset.
type Part struct {
	Dataset string
	Offset  int64
}

// eachPart resolves every part's dataset in sets under one read lock
// and hands it to fn, in list order.
func eachPart[V any](e *Engine, sets map[string]*V, parts []Part, fn func(Part, *V) error) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	for _, p := range parts {
		v, ok := sets[p.Dataset]
		if !ok {
			return fmt.Errorf("%w: %q", ErrUnknownDataset, p.Dataset)
		}
		if err := fn(p, v); err != nil {
			return err
		}
	}
	return nil
}

// intrinsicSegments concatenates the parts' scan lists in list order.
// Region and well IDs are intrinsic to the rows, so an offset is
// refused.
func intrinsicSegments[S rowShard[R], R any](e *Engine, sets map[string]*set[S, R], parts []Part) ([]S, error) {
	var segs []S
	err := eachPart(e, sets, parts, func(p Part, s *set[S, R]) error {
		if p.Offset != 0 {
			return fmt.Errorf("core: dataset %q: offset %d on intrinsic IDs", p.Dataset, p.Offset)
		}
		if segs == nil {
			segs = s.scan[:len(s.scan):len(s.scan)] // appends below copy
		} else {
			segs = append(segs, s.scan...)
		}
		return nil
	})
	return segs, err
}

// sceneOf resolves the one part a scene or tile read takes.
func (e *Engine) sceneOf(parts []Part) (*sceneSet, error) {
	if len(parts) != 1 || parts[0].Offset != 0 {
		return nil, errors.New("core: a scene read takes exactly one part, at offset 0")
	}
	e.mu.RLock()
	ss, ok := e.scenes[parts[0].Dataset]
	e.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDataset, parts[0].Dataset)
	}
	return ss, nil
}

// queryPlan is one compiled request: a queue of units, each with an
// upper bound, that Run drains on the caller's goroutine and RunBatch
// runs as one unit of its pool. Plans are single-use — the queue
// carries the per-execution accounting state (budget meter, counters).
type queryPlan struct {
	// floor seeds the screening bound (-Inf for none).
	floor float64
	q     parallel.Queue
	// finish turns the top-K into the caller-visible items and
	// normalized stats (score shifts, the queue's counters).
	finish func(items []topk.Item) ([]topk.Item, QueryStats, error)
}

// bareCtxErr surfaces cancellation as the bare ctx.Err() the caller
// acted on, not wrapped in annotations.
func bareCtxErr(ctx context.Context, err error) error {
	if ce := ctx.Err(); ce != nil && errors.Is(err, ce) {
		return ce
	}
	return err
}

// Run executes one request: resolve the dataset, compile the query into
// a queue of units, drain it best-first into one top-K heap under the
// request's screening floor, honor ctx cancellation and the request's
// budget, and return the exact top-K. All model families flow through
// this entry point.
//
// Serving behavior: cacheable requests (see DESIGN.md §6) are answered
// from the result cache when a live entry exists — bit-identical to a
// cold run, with only Stats.Wall and Stats.Cache reflecting the hit —
// and admission control bounds the requests in flight: a request waits
// for the one unit its caller runs on, which changes scheduling only,
// never results.
//
// Cancellation is cooperative and prompt: ctx is checked before every
// unit (a tuple block, a run of regions, wells or tiles) and inside the
// scene descent per frontier pop, so a cancelled or timed-out request
// stops burning CPU and returns ctx.Err().
func (e *Engine) Run(ctx context.Context, req Request) (Result, error) {
	return RunParts(ctx, e, req, ownParts(req))
}

// ownParts is the one part a plain request reads: its own dataset.
func ownParts(req Request) []Part { return []Part{{Dataset: req.Dataset}} }

// RunParts is Engine.Run over the datasets parts names instead of
// req.Dataset, drained as one queue into one top-K: a cluster node
// answers a read over several of its partitions with it. Linear reads
// queue the blocks of every part, their IDs lifted by the part's
// offset; the series and well families scan the parts' segments in
// list order; scene and knowledge reads take exactly one part. The
// result is cached under the request and the part list, stamped with
// the parts' generations, and req.Budget meters the whole drain.
func RunParts(ctx context.Context, e *Engine, req Request, parts []Part) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := validateRequest(&req); err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	start := time.Now()

	// Result cache probe.
	var key *[]byte
	var gen uint64
	if e.cache != nil {
		key = cacheKey(req, parts)
	}
	if key != nil {
		defer releaseKey(key)
		// The parts' generations are sampled before the plan resolves
		// their segment lists, so an append racing this request either
		// lands before the sample (the entry is stored under — and
		// valid for — the new generation) or after it (the entry is
		// stamped stale the moment it is written). Other datasets'
		// generations are untouched, so their entries stay live.
		gen = e.generationOf(req, parts)
		if res, ok := e.cacheGet(*key, gen, start); ok {
			return res, nil
		}
	}

	p, err := req.Query.plan(ctx, e, req, parts)
	if err != nil {
		return Result{}, bareCtxErr(ctx, err)
	}
	_, release, err := e.admit(ctx, 1)
	if err != nil {
		return Result{}, err
	}
	defer release()
	bound := topk.NewBound()
	bound.Raise(p.floor)
	items, err := parallel.TopK(ctx, p.q, req.K, bound)
	if err != nil {
		return Result{}, bareCtxErr(ctx, err)
	}
	items, st, err := p.finish(items)
	if err != nil {
		return Result{}, bareCtxErr(ctx, err)
	}
	if req.MinScore != nil {
		items = filterMinScore(items, *req.MinScore)
	}
	st.Kind = req.Query.Kind()
	if key != nil {
		e.cachePut(*key, gen, items, st)
	}
	st.Wall = time.Since(start)
	st.Cache = e.cacheInfo(false)
	return Result{Items: items, Stats: st}, nil
}

// validateRequest normalizes defaults and rejects malformed requests.
func validateRequest(req *Request) error {
	if req.Query == nil {
		return errors.New("core: request needs a Query")
	}
	if req.K == 0 {
		req.K = DefaultK
	}
	if req.K < 1 {
		return fmt.Errorf("core: request K %d: %w", req.K, topk.ErrBadCapacity)
	}
	if req.Budget < 0 {
		return errors.New("core: negative request Budget")
	}
	if req.Workers < 0 {
		return errors.New("core: negative request Workers")
	}
	if req.MinScore != nil && math.IsNaN(*req.MinScore) {
		return errors.New("core: NaN request MinScore")
	}
	// Family checks that need no dataset run here, before the cache.
	if v, ok := req.Query.(interface{ validate() error }); ok {
		return v.validate()
	}
	return nil
}

func filterMinScore(items []topk.Item, min float64) []topk.Item {
	out := items[:0]
	for _, it := range items {
		if it.Score >= min {
			out = append(out, it)
		}
	}
	return out
}

// floorOf translates the request's MinScore into a screening-bound seed
// (shift adjusts for score transforms applied after scanning, like the
// linear model's intercept).
func floorOf(req Request, shift float64) float64 {
	if req.MinScore == nil {
		return math.Inf(-1)
	}
	return screenFloor(*req.MinScore, shift)
}

// screenFloor translates a result-scale floor min into the scale a plan
// screens on, where finish adds shift to every score: it is the least f
// whose f+shift rounds to at least min. A row screened out below it ends
// below min; every row at or above it is kept. min-shift alone rounds
// and can land above that: with shift 2^53-1 and min 2^53 it is 1, yet
// 0.5+shift rounds to 2^53. Rounding is monotone in f, so the least f is
// found by bisecting the float64 order, which the exact common case
// skips.
func screenFloor(min, shift float64) float64 {
	f := min - shift
	if shift == 0 || math.IsInf(min, -1) || math.IsNaN(shift) || math.IsInf(shift, 0) {
		return f // exact, no floor, or every shifted score is non-finite
	}
	reaches := func(f float64) bool { return f+shift >= min }
	if reaches(f) && !reaches(math.Nextafter(f, math.Inf(-1))) {
		return f
	}
	// -Inf never reaches a min above -Inf; +Inf always does.
	lo, hi := floatKey(math.Inf(-1)), floatKey(math.Inf(1))
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if reaches(keyFloat(mid)) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return keyFloat(hi)
}

// floatKey maps a non-NaN float64 to a uint64 that orders the same way;
// keyFloat inverts it.
func floatKey(f float64) uint64 {
	u := math.Float64bits(f)
	if u>>63 == 1 {
		return ^u
	}
	return u | 1<<63
}

func keyFloat(k uint64) float64 {
	if k>>63 == 1 {
		return math.Float64frombits(k &^ (1 << 63))
	}
	return math.Float64frombits(^k)
}

// ---- Linear models over tuple archives ----

// LinearQuery retrieves the top-K tuples maximizing a linear model over
// a tuple archive (Section 3.2) by a blocked scan of each shard's
// norm-ordered columnar store: a block whose zone-map bound falls
// strictly below the shared screening floor is skipped unscored.
// Item IDs index the registered tuple slice; scores include the
// model's intercept. To minimize the model, negate its coefficients.
type LinearQuery struct {
	Model *linear.Model
}

// Kind reports the linear model family.
func (LinearQuery) Kind() ModelKind { return KindLinear }

func (q LinearQuery) plan(ctx context.Context, e *Engine, req Request, parts []Part) (queryPlan, error) {
	if q.Model == nil {
		return queryPlan{}, errors.New("core: LinearQuery needs a model")
	}
	m := q.Model
	meter := topk.NewMeter(req.Budget)
	// The units are the blocks of every segment of every part — base
	// shards plus any live deltas — in one queue ordered by zone bound.
	// Stores number rows locally; each segment's offset, plus its
	// part's, lifts its IDs into the global tuple index space.
	bq := colstore.GetBlockQueue(m.Coeffs, colstore.WeightNorm(m.Coeffs), meter)
	segs := 0
	err := eachPart(e, e.tuples, parts, func(p Part, ts *tupleSet) error {
		for _, sh := range ts.scan {
			if len(m.Coeffs) != sh.store.Dim() {
				return fmt.Errorf("core: model has %d coefficients, tuples have %d attributes", len(m.Coeffs), sh.store.Dim())
			}
			bq.Add(sh.store, int64(sh.offset)+p.Offset)
		}
		segs += len(ts.scan)
		return nil
	})
	if err != nil {
		bq.Release()
		return queryPlan{}, err
	}
	return queryPlan{
		// The shared bound screens pre-intercept scores, so the
		// MinScore floor is shifted into that scale.
		floor: floorOf(req, m.Intercept),
		q:     bq,
		finish: func(items []topk.Item) ([]topk.Item, QueryStats, error) {
			// The model's intercept shifts every score identically; add
			// it so returned scores equal model values.
			if m.Intercept != 0 {
				for i := range items {
					items[i].Score += m.Intercept
				}
			}
			st := bq.Stats()
			bq.Release()
			return items, QueryStats{
				Evaluations: st.RowsScored,
				Examined:    st.RowsScored,
				Pruned:      st.RowsZonePruned,
				Shards:      segs,
				Truncated:   meter.Exhausted(),
			}, nil
		},
	}, nil
}

// ---- Linear models over raster archives ----

// SceneQuery retrieves the top-K locations of a progressive linear risk
// model over a raster archive by combined progressive execution
// (Section 3.1): branch-and-bound pyramid descent with sub-model
// screening at the pixels. Item IDs encode locations as y*W + x.
type SceneQuery struct {
	Model *linear.ProgressiveModel
}

// Kind reports the linear model family.
func (SceneQuery) Kind() ModelKind { return KindLinear }

func (q SceneQuery) plan(ctx context.Context, e *Engine, req Request, parts []Part) (queryPlan, error) {
	if q.Model == nil {
		return queryPlan{}, errors.New("core: SceneQuery needs a progressive model")
	}
	ss, err := e.sceneOf(parts)
	if err != nil {
		return queryPlan{}, err
	}
	u := &sceneUnit{pm: q.Model, pyr: ss.scene.Pyramid(), ctx: ctx, meter: topk.NewMeter(req.Budget)}
	return queryPlan{
		floor: floorOf(req, 0),
		q:     u,
		finish: func(items []topk.Item) ([]topk.Item, QueryStats, error) {
			return items, QueryStats{
				Evaluations: u.st.Work(),
				Examined:    u.st.PixelsVisited + u.st.CellsVisited,
				Pruned:      ss.scene.W*ss.scene.H - u.st.PixelsVisited,
				Shards:      1,
				Truncated:   u.meter.Exhausted(),
			}, nil
		},
	}, nil
}

// sceneUnit is a scene plan's queue: one unit, the branch-and-bound
// descent over every root cell from one frontier, which orders its own
// work best-first and stops at the floor itself.
type sceneUnit struct {
	taken bool
	pm    *linear.ProgressiveModel
	pyr   *pyramid.MultibandPyramid
	ctx   context.Context
	meter *topk.Meter
	st    progressive.Stats
}

func (u *sceneUnit) Pop(float64) (int, bool) {
	if u.taken {
		return 0, false
	}
	u.taken = true
	return 0, true
}

func (u *sceneUnit) Run(_ int, h *topk.Heap, sb *topk.Bound) error {
	var err error
	u.st, err = progressive.CombinedInto(u.pm, u.pyr, h, progressive.DescendOpts{Ctx: u.ctx, Bound: sb, Meter: u.meter})
	return err
}

// ---- Finite-state models over series archives ----

// chunkSize is how many candidates one unit of a scan-shaped family
// (series regions, wells, tiles) holds: enough to amortize a pop and a
// context check, few enough that a cancelled request stops within a
// handful of candidates.
const chunkSize = 8

// scanPlan builds the queue of a scan-shaped family (series regions,
// wells, tiles): fixed-size chunks of candidates in ID order, segment
// by segment. These families have no per-chunk bound, so no chunk is
// dropped by the floor; the scan hook may screen single candidates
// against the shared bound with the one floor rule,
// topk.Floor(h, sb.Get()), and counts its evaluations, examined and
// pruned candidates into c. The budget gate runs before every
// candidate. The scan hook owns the meter: a family whose candidate
// cost is known up front (series days, rule count) charges it before
// scoring, and one whose cost is emergent (geology's DP work depends on
// pruning) charges as soon as the evaluator reports it. Either way the
// gate before a candidate sees the previous candidate's charge, so the
// truncation point is the same.
func scanPlan(req Request, nSegs int, meter *topk.Meter,
	segSize func(si int) int,
	scan func(si, i int, h *topk.Heap, sb *topk.Bound, c *scanCounts) error,
) queryPlan {
	q := &chunkQueue{meter: meter, segSize: segSize, scan: scan}
	for si := 0; si < nSegs; si++ {
		q.units += (segSize(si) + chunkSize - 1) / chunkSize
	}
	return queryPlan{
		floor: floorOf(req, 0),
		q:     q,
		finish: func(items []topk.Item) ([]topk.Item, QueryStats, error) {
			return items, QueryStats{
				Evaluations: q.counts.evals,
				Examined:    q.counts.examined,
				Pruned:      q.counts.pruned,
				Shards:      nSegs,
				Truncated:   meter.Exhausted(),
			}, nil
		},
	}
}

// scanCounts is a scan-shaped family's work report (see scanPlan):
// evaluation units spent, candidates examined, candidates screened out.
type scanCounts struct{ evals, examined, pruned int }

// chunkQueue is scanPlan's queue: unit u is the u-th chunk of
// candidates, counting chunk by chunk through every segment in order.
type chunkQueue struct {
	next    int
	units   int
	meter   *topk.Meter
	segSize func(si int) int
	scan    func(si, i int, h *topk.Heap, sb *topk.Bound, c *scanCounts) error
	counts  scanCounts
}

func (q *chunkQueue) Pop(float64) (int, bool) {
	if q.meter.Exhausted() || q.next == q.units {
		return 0, false
	}
	q.next++
	return q.next - 1, true
}

func (q *chunkQueue) Run(u int, h *topk.Heap, sb *topk.Bound) error {
	si, n := 0, q.segSize(0)
	for u >= (n+chunkSize-1)/chunkSize {
		u -= (n + chunkSize - 1) / chunkSize
		si++
		n = q.segSize(si)
	}
	for i := u * chunkSize; i < min(n, (u+1)*chunkSize); i++ {
		if q.meter.Exhausted() {
			break // budget exhausted: keep what the heap has
		}
		if err := q.scan(si, i, h, sb, &q.counts); err != nil {
			return err
		}
	}
	return nil
}

// FSMQuery ranks regions of a series archive by fsm.FlyScore under the
// machine (Section 2.2). A nil Prefilter scans every region; a sound
// prefilter skips regions whose metadata proves a zero score. Item IDs
// are region ids.
type FSMQuery struct {
	Machine   *fsm.Machine
	Prefilter FSMPrefilter
}

// Kind reports the finite-state model family.
func (FSMQuery) Kind() ModelKind { return KindFiniteState }

func (q FSMQuery) plan(ctx context.Context, e *Engine, req Request, parts []Part) (queryPlan, error) {
	if q.Machine == nil {
		return queryPlan{}, errors.New("core: FSMQuery needs a machine")
	}
	segs, err := intrinsicSegments(e, e.series, parts)
	if err != nil {
		return queryPlan{}, err
	}
	meter := topk.NewMeter(req.Budget)
	// One step table per request, read by every unit.
	tab := fsm.NewTable(q.Machine, packedBytes(segs))
	return scanPlan(req, len(segs), meter,
		func(si int) int { return len(segs[si].regions) },
		func(si, i int, h *topk.Heap, _ *topk.Bound, c *scanCounts) error {
			sh := segs[si]
			if q.Prefilter != nil && !q.Prefilter(sh.sums[i]) {
				c.pruned++
				return nil
			}
			// The packed event plane replaces per-query
			// re-classification; the day count is known up front, so
			// the budget is charged before the machine runs.
			events, days := sh.eventsOf(i)
			meter.Charge(days)
			c.evals += days
			c.examined++
			score, err := tab.FlyScore(events, days)
			if err != nil {
				return err
			}
			if score > 0 {
				h.OfferScore(int64(sh.regions[i].Region), score)
			}
			return nil
		}), nil
}

// MaxFSMHorizon is the largest FSMDistanceQuery.Horizon a request may
// carry. One distance costs Horizon steps of the product automaton and
// checks no context, so the horizon is bounded before any work starts.
const MaxFSMHorizon = 4096

// FSMDistanceQuery ranks regions by behavioral closeness between the
// target machine and the machine their data exhibits (Section 3's FSM
// similarity): scores are 1-distance over strings up to Horizon. Item
// IDs are region ids.
type FSMDistanceQuery struct {
	Target *fsm.Machine
	// Horizon bounds the string length of the exact behavioral
	// distance: 1..MaxFSMHorizon, checked before the cache and the
	// scan.
	Horizon int
}

// Kind reports the finite-state model family.
func (FSMDistanceQuery) Kind() ModelKind { return KindFiniteState }

// validate refuses a horizon outside 1..MaxFSMHorizon.
func (q FSMDistanceQuery) validate() error {
	if q.Horizon < 1 || q.Horizon > MaxFSMHorizon {
		return fmt.Errorf("core: FSMDistanceQuery horizon %d outside 1..%d", q.Horizon, MaxFSMHorizon)
	}
	return nil
}

func (q FSMDistanceQuery) plan(ctx context.Context, e *Engine, req Request, parts []Part) (queryPlan, error) {
	if q.Target == nil {
		return queryPlan{}, errors.New("core: FSMDistanceQuery needs a target machine")
	}
	segs, err := intrinsicSegments(e, e.series, parts)
	if err != nil {
		return queryPlan{}, err
	}
	meter := topk.NewMeter(req.Budget)
	// One step table and one distance memo per request. A plan drains
	// on one goroutine, so its units share them and one scratch.
	tab := fsm.NewExtractTable(q.Target, packedBytes(segs))
	memo := fsm.NewDistanceMemo(q.Target, q.Horizon)
	sc := fsmScratchPool.Get().(*fsm.Scratch)
	p := scanPlan(req, len(segs), meter,
		func(si int) int { return len(segs[si].regions) },
		func(si, i int, h *topk.Heap, _ *topk.Bound, c *scanCounts) error {
			sh := segs[si]
			events, days := sh.eventsOf(i)
			meter.Charge(days)
			c.evals += days
			c.examined++
			extracted, err := tab.Extract(events, days, sc)
			if err != nil {
				return err
			}
			d, err := memo.Distance(extracted, sc)
			if err != nil {
				return err
			}
			h.OfferScore(int64(sh.regions[i].Region), 1-d)
			return nil
		})
	finish := p.finish
	p.finish = func(items []topk.Item) ([]topk.Item, QueryStats, error) {
		fsmScratchPool.Put(sc)
		return finish(items)
	}
	return p, nil
}

// ---- Knowledge models over composite objects (geology wells) ----

// Kind reports the knowledge model family.
func (GeologyQuery) Kind() ModelKind { return KindKnowledge }

func (q GeologyQuery) plan(ctx context.Context, e *Engine, req Request, parts []Part) (queryPlan, error) {
	if err := q.Validate(); err != nil {
		return queryPlan{}, err
	}
	method := q.Method
	if method == 0 {
		method = GeoDP
	}
	switch method {
	case GeoBruteForce, GeoDP, GeoPruned:
	default:
		return queryPlan{}, fmt.Errorf("core: unknown geology method %d", method)
	}
	segs, err := intrinsicSegments(e, e.wells, parts)
	if err != nil {
		return queryPlan{}, err
	}
	meter := topk.NewMeter(req.Budget)
	// One columnar scanner per segment: the grade closures bind once and
	// walk the segment's flat strata planes; per well only the base
	// offset moves.
	scanners := make([]*geoShardScanner, len(segs))
	for si, sh := range segs {
		scanners[si] = newGeoShardScanner(sh, q)
	}
	return scanPlan(req, len(segs), meter,
		func(si int) int { return len(segs[si].wells) },
		func(si, i int, h *topk.Heap, sb *topk.Bound, c *scanCounts) error {
			g := scanners[si]
			n := g.setWell(i)
			var (
				best     sproc.Match
				ok       bool
				rejected bool
				wst      sproc.Stats
				err      error
			)
			if method == GeoBruteForce {
				// The oracle: every tuple of every well, unfloored.
				var matches []sproc.Match
				matches, wst, err = sproc.BruteForceCtx(ctx, n, g.sq, 1)
				if err == nil && len(matches) > 0 && matches[0].Score > 0 {
					best, ok = matches[0], true
				}
			} else {
				// GeoDP and GeoPruned: the floored top-1 DP, which
				// reports only a match that can still enter the merged
				// top-K (positive and not strictly below the floor) and
				// rejects a well with an empty slot before its pair DP.
				// The match aliases the scratch, so it is copied.
				sc := sprocScratchPool.Get().(*sproc.Scratch)
				best, ok, wst, err = sproc.DP1FloorCtx(ctx, n, g.sq, topk.Floor(h, sb.Get()), sc)
				if ok {
					best.Items = append([]int(nil), best.Items...)
				}
				sprocScratchPool.Put(sc)
				rejected = !ok && wst.PairEvals == 0
			}
			if err != nil {
				return err
			}
			// The DP's work is emergent (it depends on the floor), so
			// the meter is charged as soon as the evaluator reports it.
			meter.Charge(wst.UnaryEvals + wst.PairEvals)
			c.evals += wst.UnaryEvals + wst.PairEvals
			if rejected {
				c.pruned++
			} else {
				c.examined++
			}
			if ok {
				h.Offer(topk.Item{
					ID:      int64(g.sh.wells[i].Well),
					Score:   best.Score,
					Payload: best.Items,
				})
			}
			return nil
		}), nil
}

// ---- Knowledge models over scene tiles ----

// KnowledgeQuery ranks a scene's tiles by fuzzy rule-set score over the
// archive's feature abstraction level (Section 2.3) — no raw pixels are
// read. Item IDs are tile indices into the archive's Tiles slice.
type KnowledgeQuery struct {
	Rules *bayes.RuleSet
}

// Kind reports the knowledge model family.
func (KnowledgeQuery) Kind() ModelKind { return KindKnowledge }

func (q KnowledgeQuery) plan(ctx context.Context, e *Engine, req Request, parts []Part) (queryPlan, error) {
	if q.Rules == nil || q.Rules.Len() == 0 {
		return queryPlan{}, errors.New("core: empty rule set")
	}
	ss, err := e.sceneOf(parts)
	if err != nil {
		return queryPlan{}, err
	}
	sc := ss.scene
	// Compile the rule set against the scene's feature-matrix columns
	// once: the per-tile scan is then a flat-row pass with no map
	// construction and no string hashing (scoring is bit-identical to
	// the map path; unknown features grade 0 either way). Weight
	// validation moves from mid-scan to plan time with it.
	comp, err := q.Rules.Compile(ss.featCols)
	if err != nil {
		return queryPlan{}, fmt.Errorf("core: %w", err)
	}
	meter := topk.NewMeter(req.Budget)
	cost := q.Rules.Len()
	// The tile table is one un-sharded list; scanPlan with a single
	// segment still supplies the scan scaffold (chunks, budget gate).
	// Tile scoring has no screening stage, so Pruned stays 0: every
	// tile not examined was budget-skipped.
	return scanPlan(req, 1, meter,
		func(int) int { return len(sc.Tiles) },
		func(_, ti int, h *topk.Heap, _ *topk.Bound, c *scanCounts) error {
			// Rule-evaluation cost is fixed per tile: charge before
			// scoring.
			meter.Charge(cost)
			c.evals += cost
			c.examined++
			score := comp.ScoreRow(ss.featRow(ti))
			if score > 0 {
				h.OfferScore(int64(ti), score)
			}
			return nil
		}), nil
}
