// Package core is the model-based information retrieval engine — the
// paper's primary contribution (Section 3). It unifies the three model
// families of Section 2 behind one retrieval surface:
//
//   - linear models over tuple archives   → norm-ordered zone-mapped
//     column blocks (the Onion index [11] reproduces the paper's claim
//     in experiment E1);
//   - linear models over raster archives  → progressive model execution
//     on progressive data representations (Section 3.1);
//   - finite-state models over series     → metadata-pruned DFA runs
//     with FSM-distance ranking (Section 2.2);
//   - knowledge models over composite     → SPROC dynamic-programming
//     objects (well logs, …)                pruning [15,16].
//
// The engine owns the archives and builds the model-specific layouts at
// ingest, so every query runs over indexed data — the paper's premise
// that "indexing techniques specialized for the model" pay off at
// archive scale.
//
// Archives are sharded at ingest (Options.Shards partitions, default
// GOMAXPROCS). A query compiles to one queue of units — tuple blocks
// of every shard and delta ordered by zone bound, one scene descent,
// chunks of regions, wells or tiles — that parallel.TopK drains
// best-first into one top-K heap on the caller's goroutine. Sharding
// changes wall-clock time only: results are identical to a single-shard
// scan (see DESIGN.md §2).
package core

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"

	"modelir/internal/archive"
	"modelir/internal/canon"
	"modelir/internal/colstore"
	"modelir/internal/fsm"
	"modelir/internal/parallel"
	"modelir/internal/qcache"
	"modelir/internal/sproc"
	"modelir/internal/synth"
	"modelir/internal/topk"
)

// ModelKind enumerates the paper's model families.
type ModelKind int

// Model families (Section 2).
const (
	KindLinear ModelKind = iota + 1
	KindFiniteState
	KindKnowledge
)

// String names the model kind.
func (k ModelKind) String() string {
	switch k {
	case KindLinear:
		return "linear"
	case KindFiniteState:
		return "finite-state"
	case KindKnowledge:
		return "knowledge"
	default:
		return "unknown"
	}
}

// Options tunes engine construction.
type Options struct {
	// Shards is the number of partitions each dataset is split into at
	// ingest. 0 means GOMAXPROCS. 1 reproduces the sequential engine
	// exactly.
	Shards int
	// CacheEntries caps the result cache (see DESIGN.md §6): 0 means
	// qcache.DefaultEntries, negative disables caching entirely.
	CacheEntries int
	// MaxWorkers is the admission-control budget: the units in flight
	// across all concurrent requests, one per Run and one per RunBatch
	// pool worker. 0 means DefaultMaxWorkers(); negative disables
	// admission control.
	MaxWorkers int
}

// Engine is the retrieval front end. Registration, appends and queries
// may be interleaved freely from any number of goroutines: the dataset
// tables are guarded by an RWMutex, and each registered set value is
// immutable — appends swap in a new set value sharing the base shards
// plus one more delta segment — so the query hot path runs lock-free
// over a consistent shard list. The serving layer rides on top: a
// result cache keyed by canonical request bytes (invalidated
// per dataset by generation counters) and a weighted admission
// semaphore bounding the workers in flight.
type Engine struct {
	shards int

	// cache is the result cache (nil = disabled).
	cache *qcache.Cache
	// adm is the admission semaphore (nil = unbounded).
	adm *parallel.Weighted

	mu     sync.RWMutex
	tuples map[string]*tupleSet
	scenes map[string]*sceneSet
	series map[string]*seriesSet
	wells  map[string]*wellSet
	// pending reserves names whose registration is still building its
	// sharded set outside the lock: invisible to queries and snapshots,
	// but taken for duplicate-registration purposes, so a concurrent
	// duplicate fails fast instead of paying a full build and
	// discarding it at the map-insert check.
	pending map[dsName]struct{}
	// compacting marks datasets with a background compaction in
	// flight (one per dataset at a time; see ingest.go).
	compacting map[dsName]bool
	// compactWG tracks background compactor goroutines so Close can
	// wait them out.
	compactWG sync.WaitGroup
	// onIndex, when set (tests only, before any append), observes the
	// row count of every tuple store build the write path runs.
	onIndex func(rows int)

	// closers release resources a snapshot restore attached to the
	// engine (mmap'd segment files in Map mode); see Close.
	closers []func() error
}

// dsKind discriminates the per-kind dataset namespaces (names are
// scoped per kind, as in the seed).
type dsKind uint8

const (
	dsTuples dsKind = iota
	dsScenes
	dsSeries
	dsWells
)

// dsName keys per-dataset bookkeeping (reservations, compaction).
type dsName struct {
	kind dsKind
	name string
}

// NewEngine returns an empty engine with default options.
func NewEngine() *Engine { return NewEngineWith(Options{}) }

// NewEngineWith returns an empty engine with the given options.
func NewEngineWith(opt Options) *Engine {
	shards := opt.Shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		shards:     shards,
		tuples:     make(map[string]*tupleSet),
		scenes:     make(map[string]*sceneSet),
		series:     make(map[string]*seriesSet),
		wells:      make(map[string]*wellSet),
		pending:    make(map[dsName]struct{}),
		compacting: make(map[dsName]bool),
	}
	if opt.CacheEntries >= 0 {
		e.cache = qcache.New(qcache.Options{Entries: opt.CacheEntries})
	}
	if opt.MaxWorkers >= 0 {
		limit := opt.MaxWorkers
		if limit == 0 {
			limit = DefaultMaxWorkers()
		}
		w, err := parallel.NewWeighted(limit)
		if err != nil {
			// limit >= 1 by construction.
			panic(err)
		}
		e.adm = w
	}
	return e
}

// NumShards reports how many partitions each dataset is split into.
func (e *Engine) NumShards() int { return e.shards }

// Registration errors.
var (
	ErrDuplicateDataset = errors.New("core: dataset name already registered")
	ErrUnknownDataset   = errors.New("core: unknown dataset")
)

// takenLocked reports whether name is registered under kind. Caller
// holds e.mu (either mode).
func (e *Engine) takenLocked(k dsKind, name string) bool {
	switch k {
	case dsTuples:
		_, ok := e.tuples[name]
		return ok
	case dsScenes:
		_, ok := e.scenes[name]
		return ok
	case dsSeries:
		_, ok := e.series[name]
		return ok
	default:
		_, ok := e.wells[name]
		return ok
	}
}

// reserve claims a dataset name before its sharded set is built, so
// the (possibly expensive) build runs outside the engine lock exactly
// once: a concurrent duplicate registration fails here — through the
// one ErrDuplicateDataset path — instead of building a full set and
// discarding it at the map-insert check. The reservation is invisible
// to queries and snapshots (they read only the kind tables).
func (e *Engine) reserve(k dsKind, name string) error {
	key := dsName{k, name}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, building := e.pending[key]; building || e.takenLocked(k, name) {
		return fmt.Errorf("%w: %q", ErrDuplicateDataset, name)
	}
	e.pending[key] = struct{}{}
	return nil
}

// commit installs a built set under its reservation (the set carries
// its own cache generation).
func (e *Engine) commit(k dsKind, name string, install func()) {
	e.mu.Lock()
	delete(e.pending, dsName{k, name})
	install()
	e.mu.Unlock()
}

// addSet registers raw under name as a freshly sharded set: reserve the
// name, build every base shard outside the lock, then install it — or,
// when a shard build fails, release the name and register nothing.
func addSet[S rowShard[R], R any](e *Engine, k dsKind, sets map[string]*set[S, R], name string, raw []R, mk func([]R) (S, error)) error {
	if err := e.reserve(k, name); err != nil {
		return err
	}
	s, err := newSet(raw, e.shards, mk)
	e.commit(k, name, func() {
		if err == nil {
			sets[name] = s
		}
	})
	if err != nil {
		return fmt.Errorf("core: register %q: %w", name, err)
	}
	return nil
}

// AddTuples registers a tuple archive (rows of attribute vectors),
// partitioning it into the engine's shard count and building every
// shard's columnar store. Rows a store cannot hold — ragged, zero-width
// or non-finite, checked over the whole set (colstore.Check) so the
// refusal does not depend on the shard count — fail the registration,
// which then registers nothing. The rows are not copied; the caller
// must not mutate them afterwards.
func (e *Engine) AddTuples(name string, points [][]float64) error {
	if len(points) == 0 {
		return errors.New("core: empty tuple set")
	}
	if err := colstore.Check(points); err != nil {
		return fmt.Errorf("core: register %q: %w", name, err)
	}
	return addSet(e, dsTuples, e.tuples, name, points, e.newTupleShard)
}

// AddScene registers a raster archive. Scenes are not partitioned: a
// scene query is one descent over the whole pyramid.
func (e *Engine) AddScene(name string, sc *archive.Scene) error {
	if sc == nil {
		return errors.New("core: nil scene")
	}
	if err := validateSceneFeatures(sc); err != nil {
		return err
	}
	if err := e.reserve(dsScenes, name); err != nil {
		return err
	}
	ss := newSceneSet(sc)
	e.commit(dsScenes, name, func() { e.scenes[name] = ss })
	return nil
}

// AddSeries registers a weather/event series archive, sharded, with the
// metadata-level summaries used for pruning precomputed per shard.
func (e *Engine) AddSeries(name string, rs []synth.RegionSeries) error {
	if len(rs) == 0 {
		return errors.New("core: empty series archive")
	}
	return addSet(e, dsSeries, e.series, name, rs, newSeriesShard)
}

// AddWells registers a well-log archive, sharded.
func (e *Engine) AddWells(name string, ws []synth.WellLog) error {
	if len(ws) == 0 {
		return errors.New("core: empty well archive")
	}
	return addSet(e, dsWells, e.wells, name, ws, newWellShard)
}

// FSMPrefilter decides, from metadata alone, whether a region can
// possibly satisfy the machine. Returning false skips the full scan.
type FSMPrefilter func(synth.DrySpellStats) bool

// FireAntsPrefilter is the sound metadata filter for the Fig. 1 machine:
// flying needs a >= 3-day dry spell containing a hot (>= 25°C) day at
// position >= 3.
func FireAntsPrefilter(s synth.DrySpellStats) bool {
	return s.MaxDrySpell >= 3 && s.MaxTempAfterDry3 >= fsm.FlyTempC
}

// prefilterName maps the registered FSM prefilters to the names the
// request encoding carries; ok is false for any other function. A func
// value has no content to encode, so identity is by function pointer,
// which is stable for the package-level funcs registered here.
func prefilterName(f FSMPrefilter) (name string, ok bool) {
	switch {
	case f == nil:
		return "", true
	case reflect.ValueOf(f).Pointer() == reflect.ValueOf(FireAntsPrefilter).Pointer():
		return "fireants", true
	}
	return "", false
}

// prefilterByName inverts prefilterName.
func prefilterByName(name string) (FSMPrefilter, error) {
	switch name {
	case "":
		return nil, nil
	case "fireants":
		return FireAntsPrefilter, nil
	}
	return nil, fmt.Errorf("%w: unknown prefilter %q", canon.ErrCorrupt, name)
}

// GeologyQuery is the Fig. 4 knowledge model: an ordered lithology
// sequence with adjacency and gamma-ray constraints, retrieved over a
// well archive with the chosen SPROC evaluator. It implements Query
// directly (item Payloads carry the matched strata indices).
type GeologyQuery struct {
	// Sequence is the top-down lithology pattern (e.g. shale, sandstone,
	// siltstone).
	Sequence []synth.Lithology
	// MaxGapFt bounds the gap between consecutive strata ("adjacent
	// < 10 ft" in Fig. 4).
	MaxGapFt float64
	// MinGamma is the gamma-ray floor ("higher than 45").
	MinGamma float64
	// GammaRampAPI softens the gamma threshold: grades ramp from 0 at
	// MinGamma-GammaRamp to 1 at MinGamma+GammaRamp. Zero = crisp.
	GammaRampAPI float64
	// Method selects the SPROC evaluator; zero means GeoDP.
	Method GeologyMethod
}

// Validate checks the query.
func (q GeologyQuery) Validate() error {
	if len(q.Sequence) == 0 {
		return errors.New("core: empty lithology sequence")
	}
	if q.MaxGapFt < 0 {
		return errors.New("core: negative adjacency gap")
	}
	return nil
}

// WellMatch is one retrieved well.
type WellMatch struct {
	Well  int
	Score float64
	// Strata are the matched layer indices, one per query slot.
	Strata []int
}

// GeologyMethod selects the SPROC evaluator.
type GeologyMethod int

// Evaluator choices for GeologyQuery. GeoDP and GeoPruned are served by
// one evaluator, the floored top-1 DP (sproc.DP1FloorCtx): every well
// is screened against the merged top-K floor before its pair DP, so
// both return the same answer at the same cost. GeoBruteForce
// enumerates every tuple of every well, unfloored: the oracle.
const (
	GeoBruteForce GeologyMethod = iota + 1
	GeoDP
	GeoPruned
)

// WellMatches converts GeologyQuery result items (well IDs with strata
// payloads) into WellMatch values.
func WellMatches(items []topk.Item) ([]WellMatch, error) {
	var out []WellMatch
	for _, it := range items {
		strata, ok := it.Payload.([]int)
		if !ok {
			return nil, errors.New("core: geology item without strata payload")
		}
		out = append(out, WellMatch{Well: int(it.ID), Score: it.Score, Strata: strata})
	}
	return out, nil
}

// geoShardScanner compiles the Fig. 4 model against one well shard's
// columnar strata planes. One scanner (and one pair of grade closures)
// is built per shard per request; advancing to the next well is a base
// offset update, so the per-well cost is zero allocations instead of a
// query struct and two closures. The grade formulas are identical to
// geologySprocQuery's; only the storage they read is columnar.
type geoShardScanner struct {
	sh   *wellShard
	q    GeologyQuery
	base int
	sq   sproc.Query
}

func newGeoShardScanner(sh *wellShard, q GeologyQuery) *geoShardScanner {
	g := &geoShardScanner{sh: sh, q: q}
	g.sq = sproc.Query{
		M:     len(q.Sequence),
		Unary: g.unary,
		Pair:  g.pair,
	}
	return g
}

// setWell points the scanner at well i of its shard and returns the
// well's stratum count.
func (g *geoShardScanner) setWell(i int) int {
	g.base = g.sh.off[i]
	return g.sh.strataLen(i)
}

func (g *geoShardScanner) gammaGrade(gv float64) float64 {
	if g.q.GammaRampAPI <= 0 {
		if gv > g.q.MinGamma {
			return 1
		}
		return 0
	}
	lo := g.q.MinGamma - g.q.GammaRampAPI
	hi := g.q.MinGamma + g.q.GammaRampAPI
	switch {
	case gv <= lo:
		return 0
	case gv >= hi:
		return 1
	default:
		return (gv - lo) / (hi - lo)
	}
}

func (g *geoShardScanner) unary(m, item int) float64 {
	s := g.base + item
	if g.sh.lith[s] != g.q.Sequence[m] {
		return 0
	}
	return g.gammaGrade(g.sh.gamma[s])
}

func (g *geoShardScanner) pair(m, prev, cur int) float64 {
	a, b := g.base+prev, g.base+cur
	aTop, bTop := g.sh.topFt[a], g.sh.topFt[b]
	// The sequence is top-down: cur must start below prev's top,
	// within the adjacency gap of prev's bottom.
	if bTop <= aTop {
		return 0
	}
	gap := bTop - (aTop + g.sh.thickFt[a])
	if gap < 0 {
		gap = 0
	}
	if gap > g.q.MaxGapFt {
		return 0
	}
	return 1
}

// geologySprocQuery compiles the Fig. 4 model into a SPROC query over
// one well's strata.
func geologySprocQuery(w synth.WellLog, q GeologyQuery) sproc.Query {
	strata := w.Strata
	gammaGrade := func(g float64) float64 {
		if q.GammaRampAPI <= 0 {
			if g > q.MinGamma {
				return 1
			}
			return 0
		}
		lo := q.MinGamma - q.GammaRampAPI
		hi := q.MinGamma + q.GammaRampAPI
		switch {
		case g <= lo:
			return 0
		case g >= hi:
			return 1
		default:
			return (g - lo) / (hi - lo)
		}
	}
	return sproc.Query{
		M: len(q.Sequence),
		Unary: func(m, item int) float64 {
			s := strata[item]
			if s.Lith != q.Sequence[m] {
				return 0
			}
			return gammaGrade(s.GammaAPI)
		},
		Pair: func(m, prev, cur int) float64 {
			a, b := strata[prev], strata[cur]
			// The sequence is top-down: cur must start below prev's top,
			// within the adjacency gap of prev's bottom.
			if b.TopFt <= a.TopFt {
				return 0
			}
			gap := b.TopFt - (a.TopFt + a.ThickFt)
			if gap < 0 {
				gap = 0
			}
			if gap > q.MaxGapFt {
				return 0
			}
			return 1
		},
	}
}
