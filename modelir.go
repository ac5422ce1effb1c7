// Package modelir is the public API of the model-based multi-modal
// information retrieval library — a from-scratch reproduction of
// Li, Chang, Bergman & Smith, "Model-Based Multi-modal Information
// Retrieval from Large Archives" (ICDCS 2000).
//
// Instead of retrieving by similarity to a template, queries here are
// *models* — linear, finite-state, or knowledge (fuzzy rule sets) — and
// the system returns the top-K data subsets that maximize or satisfy the
// model. Scaling to large archives comes from three mechanisms, all
// implemented in this module:
//
//   - progressive model decomposition (coarse sub-models screen first);
//   - progressive data representations (resolution pyramids + feature /
//     semantic / metadata abstraction levels);
//   - model-specific indexes (norm-ordered zone-mapped column blocks
//     for linear optimization, SPROC dynamic programming for fuzzy
//     composite queries).
//
// The Onion convex-layer index the paper cites for linear queries [11]
// lives in internal/onion, where experiment E1 reproduces its claim.
//
// Every query family flows through one entry point — "a query is a
// model" made literal: build a Request around a family-specific Query
// value and execute it with Engine.Run, which honors context
// cancellation and deadlines, per-request tuning (K, Budget, MinScore),
// and returns one normalized Result/QueryStats shape.
// Engine.RunBatch runs many requests on one shared worker pool.
//
// Quick start:
//
//	engine := modelir.NewEngine()
//	_ = engine.AddTuples("credit", rows)
//	model, _ := modelir.NewLinearModel(attrs, weights, 0)
//	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
//	defer cancel()
//	res, _ := engine.Run(ctx, modelir.Request{
//		Dataset: "credit",
//		Query:   modelir.LinearQuery{Model: model},
//		K:       10,
//	})
//	// res.Items is the exact top-10; res.Stats the normalized work report.
//
// See examples/ for end-to-end scenarios (epidemiology, fire ants,
// geology, credit scoring) and DESIGN.md for the system inventory.
package modelir

import (
	"modelir/internal/archive"
	"modelir/internal/bayes"
	"modelir/internal/cluster"
	"modelir/internal/core"
	"modelir/internal/fsm"
	"modelir/internal/linear"
	"modelir/internal/metrics"
	"modelir/internal/raster"
	"modelir/internal/segment"
	"modelir/internal/sproc"
	"modelir/internal/synth"
	"modelir/internal/topk"
)

// Engine is the retrieval engine: register archives, then query them
// with models. Archives are sharded at ingest and queries execute in
// parallel across shards; the engine is safe for concurrent
// registration and querying. See core.Engine for method documentation.
type Engine = core.Engine

// EngineOptions tunes engine construction; the zero value shards each
// dataset GOMAXPROCS ways. Shards=1 reproduces a sequential engine.
type EngineOptions = core.Options

// NewEngine returns an empty retrieval engine with default options.
func NewEngine() *Engine { return core.NewEngine() }

// NewEngineWithOptions returns an empty retrieval engine with the given
// shard count, cache size and admission budget.
func NewEngineWithOptions(opt EngineOptions) *Engine { return core.NewEngineWith(opt) }

// Engine registration errors, for errors.Is against Run/RunBatch and
// the Add* methods.
var (
	// ErrUnknownDataset reports a query against an unregistered name.
	ErrUnknownDataset = core.ErrUnknownDataset
	// ErrDuplicateDataset reports a re-registration of a taken name.
	ErrDuplicateDataset = core.ErrDuplicateDataset
)

// Retrieval plumbing.
type (
	// Item is one scored retrieval result.
	Item = topk.Item
	// ModelKind enumerates the paper's model families.
	ModelKind = core.ModelKind
)

// Model family tags.
const (
	KindLinear      = core.KindLinear
	KindFiniteState = core.KindFiniteState
	KindKnowledge   = core.KindKnowledge
)

// The unified query surface: one Request/Result shape for every model
// family, executed via Engine.Run / Engine.RunBatch.
type (
	// Request describes one retrieval: dataset, query, and per-request
	// options (K, Workers, Budget, MinScore).
	Request = core.Request
	// Result is Run's uniform response: ranked items plus normalized
	// stats.
	Result = core.Result
	// QueryStats is the normalized work report shared by all families.
	QueryStats = core.QueryStats
	// BatchResult is one request's outcome within Engine.RunBatch.
	BatchResult = core.BatchResult
	// CacheInfo reports the result cache's involvement in one request
	// (QueryStats.Cache).
	CacheInfo = core.CacheInfo
	// Query is an executable model query (sealed; use the family query
	// types below).
	Query = core.Query

	// LinearQuery runs a linear model over a tuple archive (blocked
	// scan of norm-ordered column stores).
	LinearQuery = core.LinearQuery
	// SceneQuery runs a progressive linear model over a raster archive
	// (combined progressive execution).
	SceneQuery = core.SceneQuery
	// FSMQuery ranks series regions by finite-state model score.
	FSMQuery = core.FSMQuery
	// FSMDistanceQuery ranks series regions by machine distance.
	FSMDistanceQuery = core.FSMDistanceQuery
	// KnowledgeQuery ranks scene tiles by fuzzy rule-set score.
	KnowledgeQuery = core.KnowledgeQuery

	// FSMPrefilter screens series regions from metadata alone.
	FSMPrefilter = core.FSMPrefilter
	// GeologyMethod selects the SPROC evaluator for GeologyQuery.
	GeologyMethod = core.GeologyMethod
)

// DefaultK is the result count used when Request.K is zero.
const DefaultK = core.DefaultK

// FireAntsPrefilter is the sound metadata prefilter for the Fig. 1
// fire-ants machine, usable as FSMQuery.Prefilter. It is the same
// function value as the core's, so the cluster wire codec recognizes
// it as the named "fireants" prefilter.
var FireAntsPrefilter FSMPrefilter = core.FireAntsPrefilter

// WellMatches converts GeologyQuery result items (well IDs with strata
// payloads) into WellMatch values.
func WellMatches(items []Item) ([]WellMatch, error) { return core.WellMatches(items) }

// Linear models (Section 2.1).
type (
	// LinearModel is Y = a1·X1 + … + an·Xn (+ intercept).
	LinearModel = linear.Model
	// ProgressiveLinearModel is a linear model decomposed into
	// coarse-to-fine levels with sound residual bounds (Section 3.1).
	ProgressiveLinearModel = linear.ProgressiveModel
)

// NewLinearModel builds a linear model over named attributes.
func NewLinearModel(attrs []string, coeffs []float64, intercept float64) (*LinearModel, error) {
	return linear.New(attrs, coeffs, intercept)
}

// DecomposeLinear orders terms by contribution over the given attribute
// ranges and produces the progressive model with the requested per-level
// term counts (ascending, last = all terms).
func DecomposeLinear(m *LinearModel, attrLo, attrHi []float64, levelTerms ...int) (*ProgressiveLinearModel, error) {
	return linear.Decompose(m, attrLo, attrHi, levelTerms...)
}

// HPSRiskModel returns the paper's Hantavirus risk model
// R = 0.443·b4 + 0.222·b5 + 0.153·b7 + 0.183·elev.
func HPSRiskModel() *LinearModel { return linear.HPSRisk() }

// CreditScoreModel returns the FICO-style surrogate scoring model
// (score = 900 − Σ wᵢXᵢ, range 300-900).
func CreditScoreModel() *LinearModel { return linear.CreditScore() }

// ForeclosureProbability maps a credit score to the calibrated
// foreclosure probability (<2% above 680, ~8% at 620).
func ForeclosureProbability(score float64) float64 {
	return linear.ForeclosureProbability(score)
}

// Finite-state models (Section 2.2).
type (
	// Machine is a complete DFA over a multi-modal event alphabet.
	Machine = fsm.Machine
	// MachineBuilder assembles machines.
	MachineBuilder = fsm.Builder
	// Event is a symbol index into a machine's alphabet.
	Event = fsm.Event
)

// NewMachineBuilder starts a machine over the given event alphabet.
func NewMachineBuilder(alphabet []string) *MachineBuilder { return fsm.NewBuilder(alphabet) }

// FireAntsModel returns the Fig. 1 machine (rain, then >= 3 dry days,
// then temperature >= 25°C => fire ants fly).
func FireAntsModel() *Machine { return fsm.FireAnts() }

// MachineDistance is the exact behavioral distance between two machines
// over strings up to maxLen (Section 3's FSM similarity).
func MachineDistance(a, b *Machine, maxLen int) (float64, error) {
	return fsm.Distance(a, b, maxLen)
}

// Knowledge models (Section 2.3).
type (
	// RuleSet is a fuzzy-AND rule set for knowledge models.
	RuleSet = bayes.RuleSet
	// Membership grades a scalar into [0,1].
	Membership = bayes.Membership
	// GeologyQuery is the Fig. 4 strata-sequence knowledge model.
	GeologyQuery = core.GeologyQuery
	// WellMatch is a retrieved well with its matching strata.
	WellMatch = core.WellMatch
)

// HPSTileRules compiles the Fig. 3 model into a feature-level rule set
// for KnowledgeQuery on Landsat-like archives.
func HPSTileRules() *RuleSet { return core.HPSTileRules() }

// Geology evaluator choices.
const (
	GeoBruteForce = core.GeoBruteForce
	GeoDP         = core.GeoDP
	GeoPruned     = core.GeoPruned
)

// Raster / archive substrate.
type (
	// Grid is a dense 2-D raster.
	Grid = raster.Grid
	// Multiband is a co-registered band stack.
	Multiband = raster.Multiband
	// Rect is a half-open integer rectangle.
	Rect = raster.Rect
	// SceneArchive is the progressive data representation of a scene.
	SceneArchive = archive.Scene
	// ArchiveOptions controls archive construction.
	ArchiveOptions = archive.Options
)

// BuildSceneArchive constructs the progressive representation (tiles,
// features, pyramid) of a multiband scene.
func BuildSceneArchive(name string, m *Multiband, opt ArchiveOptions) (*SceneArchive, error) {
	return archive.BuildScene(name, m, opt)
}

// LoadSceneArchive reads an archive file written by SceneArchive.Save.
func LoadSceneArchive(path string) (*SceneArchive, error) { return archive.Load(path) }

// SprocQuery is a fuzzy Cartesian composite-object query [15,16].
type SprocQuery = sproc.Query

// Accuracy metrics (Section 4.1).
type (
	// Costs holds the miss / false-alarm costs cm, cf.
	Costs = metrics.Costs
	// SweepPoint is one row of a threshold sweep.
	SweepPoint = metrics.SweepPoint
)

// SweepThresholds evaluates Pm, Pf and CT across thresholds.
func SweepThresholds(risk, occurrence, weights *Grid, costs Costs, steps int) ([]SweepPoint, error) {
	return metrics.Sweep(risk, occurrence, weights, costs, steps)
}

// PrecisionRecallAtK scores top-K risk locations against an occurrence
// ground truth.
func PrecisionRecallAtK(risk, occurrence *Grid, ks []int) (map[int][2]float64, error) {
	return metrics.PRAtK(risk, occurrence, ks)
}

// Workflow is the Fig. 5 hypothesize → calibrate → retrieve → revise →
// apply loop for linear models.
type Workflow = core.Workflow

// NewWorkflow starts a Fig. 5 workflow over the given attributes.
func NewWorkflow(attrs []string) (*Workflow, error) { return core.NewWorkflow(attrs) }

// Synthetic archives (substitutes for the paper's proprietary data; see
// DESIGN.md §4).
type (
	// SceneConfig parameterizes synthetic Landsat-like scenes.
	SceneConfig = synth.SceneConfig
	// WeatherConfig parameterizes synthetic weather archives.
	WeatherConfig = synth.WeatherConfig
	// WellConfig parameterizes synthetic well-log archives.
	WellConfig = synth.WellConfig
	// Lithology is a rock class in well logs.
	Lithology = synth.Lithology
	// RegionSeries is one region's daily weather series.
	RegionSeries = synth.RegionSeries
	// WellLog is one well's strata log.
	WellLog = synth.WellLog
)

// Lithology classes.
const (
	Shale     = synth.Shale
	Sandstone = synth.Sandstone
	Siltstone = synth.Siltstone
	Limestone = synth.Limestone
	Dolomite  = synth.Dolomite
)

// GenerateScene synthesizes a Landsat-TM-like multiband scene.
func GenerateScene(cfg SceneConfig) (*synth.Scene, error) { return synth.LandsatScene(cfg) }

// GenerateWeather synthesizes a multi-region daily weather archive.
func GenerateWeather(cfg WeatherConfig) ([]RegionSeries, error) {
	return synth.WeatherArchive(cfg)
}

// GenerateWells synthesizes a well-log archive; the second return lists
// wells with a planted riverbed signature (ground truth).
func GenerateWells(cfg WellConfig) ([]WellLog, []int, error) {
	return synth.WellArchive(cfg)
}

// GenerateTuples synthesizes n i.i.d. d-dimensional Gaussian tuples (the
// Onion evaluation workload).
func GenerateTuples(seed int64, n, d int) ([][]float64, error) {
	return synth.GaussianTuples(seed, n, d)
}

// Live ingest (DESIGN.md §11): registered tuple, series and well
// datasets grow under traffic via Engine.AppendTuples / AppendSeries /
// AppendWells. New rows land in immutable in-memory delta segments,
// indexed before they are published, that every query family scans
// alongside the base shards — answers are bit-identical to
// re-registering the grown dataset from scratch — and a background
// compactor merges adjacent deltas by size tier, so their number stays
// logarithmic in the rows appended (DatasetInfo.Deltas, Compactions).
// Each dataset carries its own cache generation (DatasetInfo.Gen), so
// appends to one dataset never evict another's cached results.
// Engine.Compact folds every delta away synchronously.
type (
	// Appender coalesces concurrent appends by group commit: a caller
	// with no flush running applies its rows at once, and callers that
	// arrive during a flush land together as one delta segment when it
	// ends. An append error means none of the caller's rows landed.
	Appender = core.Appender
	// AppenderOptions is empty: group commit has nothing to tune.
	AppenderOptions = core.AppenderOptions
)

// ErrAppenderClosed reports an append after Appender.Close.
var ErrAppenderClosed = core.ErrAppenderClosed

// NewAppender returns a group-commit appender over e.
func NewAppender(e *Engine, opt AppenderOptions) *Appender { return core.NewAppender(e, opt) }

// Multi-node serving (DESIGN.md §9): datasets partitioned across shard
// servers by consistent hashing, queries scatter-gathered by a router,
// answers bit-identical to a single-node engine.
type (
	// ClusterTopology names the node set and per-dataset replication.
	ClusterTopology = cluster.Topology
	// ClusterNode is one shard server: a private engine plus a TCP
	// listener serving its partitions.
	ClusterNode = cluster.Node
	// ClusterNodeOptions configures a shard server.
	ClusterNodeOptions = cluster.NodeOptions
	// ClusterRouter fans requests out across a topology, over one
	// multiplexed connection per node, and merges the per-node top-K
	// partials exactly. Close it to release the connections.
	ClusterRouter = cluster.Router
	// ClusterRequest is the router-level request: the engine's Request,
	// with Dataset naming the dataset cluster-wide.
	ClusterRequest = core.Request
	// ClusterRouterOptions tunes the router's fault handling: dial/ack
	// timeouts and the retry/backoff schedule for reads and appends.
	ClusterRouterOptions = cluster.RouterOptions
	// ClusterAppendRequest is one replicated append: a dataset plus
	// exactly one non-empty payload, optionally carrying an idempotency
	// token.
	ClusterAppendRequest = cluster.AppendRequest
	// ClusterAppendResult reports a replicated append's outcome,
	// including any replicas it quarantined.
	ClusterAppendResult = cluster.AppendResult
	// ClusterHealthState is one peer's position in the router's health
	// machine (healthy / suspect / down / stale / resyncing).
	ClusterHealthState = cluster.HealthState
	// ClusterPeerConnStats describes the router's one connection to a
	// peer: established when, re-established how many times.
	ClusterPeerConnStats = cluster.PeerConnStats
	// ClusterResyncStats counts the router's replica-resync and crash-
	// recovery events (DESIGN.md §12): snapshot resyncs run, bytes
	// streamed, batches replayed, forced log prunes.
	ClusterResyncStats = cluster.ResyncStats
)

// ErrPartitionUnavailable reports that every replica of some partition
// failed at the transport level; the cluster never substitutes a
// partial answer.
var ErrPartitionUnavailable = cluster.ErrPartitionUnavailable

// NewClusterNode creates a shard server for self (its dial address in
// the topology). Add datasets, then Serve.
func NewClusterNode(self string, topo ClusterTopology, opt ClusterNodeOptions) *ClusterNode {
	return cluster.NewNode(self, topo, opt)
}

// NewClusterRouter returns a router over the topology.
func NewClusterRouter(topo ClusterTopology) *ClusterRouter { return cluster.NewRouter(topo) }

// NewClusterRouterWith returns a router with explicit fault-handling
// options (retry counts, backoff schedule, timeouts).
func NewClusterRouterWith(topo ClusterTopology, opt ClusterRouterOptions) *ClusterRouter {
	return cluster.NewRouterWith(topo, opt)
}

// Durable snapshots (DESIGN.md §10): Engine.Snapshot persists every
// registered dataset's built serving state — norm-ordered columnar
// planes, pyramid levels, event planes, strata columns — as
// page-aligned checksummed sections behind a SnapshotBackend, and
// OpenSnapshot restores a serving-ready engine from them without
// re-running a single index build. Restored engines answer every query
// family bit-identically to the engine that wrote the snapshot.
type (
	// SnapshotBackend is the narrow storage interface snapshots are
	// written to and restored from; NewSnapshotDir is the local-
	// directory implementation.
	SnapshotBackend = segment.Backend
	// SnapshotDir is a local-directory snapshot backend with atomic
	// tmp-file + rename writes and an fsync'd manifest.
	SnapshotDir = segment.Dir
	// RestoreMode selects how OpenSnapshot materializes columnar
	// planes: RestoreCopy or RestoreMap.
	RestoreMode = segment.RestoreMode
	// RestoreOptions tunes OpenSnapshot (mode plus the restored
	// engine's serving options; the shard count always comes from the
	// snapshot manifest).
	RestoreOptions = core.RestoreOptions
	// DatasetInfo describes one registered dataset (Engine.Datasets).
	DatasetInfo = core.DatasetInfo
)

// Restore modes.
const (
	// RestoreCopy decodes sections into freshly allocated memory
	// (portable, works everywhere).
	RestoreCopy = segment.Copy
	// RestoreMap mmaps segment files read-only and serves the planes
	// in place — archives larger than RAM work, and cold start is
	// page-fault-bounded. Close the engine to release the mappings.
	RestoreMap = segment.Map
)

// Snapshot errors, for errors.Is against OpenSnapshot and restore-time
// reads. Corruption is always refused with a typed error — a damaged
// snapshot can never produce a wrong answer.
var (
	// ErrNoSnapshot reports a backend with no snapshot on it.
	ErrNoSnapshot = segment.ErrNoSnapshot
	// ErrSnapshotCorrupt reports structural damage (bad framing,
	// missing files or sections, manifest inconsistencies).
	ErrSnapshotCorrupt = segment.ErrCorrupt
	// ErrSnapshotChecksum reports a section whose bytes do not match
	// the manifest's SHA-256.
	ErrSnapshotChecksum = segment.ErrChecksum
	// ErrSnapshotVersion reports a snapshot written by an unknown
	// format version.
	ErrSnapshotVersion = segment.ErrVersion
	// ErrMapUnsupported reports that RestoreMap cannot work here
	// (non-unix host, big-endian host, or a non-mappable backend);
	// fall back to RestoreCopy.
	ErrMapUnsupported = segment.ErrMapUnsupported
)

// NewSnapshotDir opens (creating if needed) a local snapshot
// directory.
func NewSnapshotDir(path string) (*SnapshotDir, error) { return segment.NewDir(path) }

// OpenSnapshot restores a serving-ready engine from a snapshot
// written by Engine.Snapshot.
func OpenSnapshot(b SnapshotBackend, opt RestoreOptions) (*Engine, error) {
	return core.OpenSnapshot(b, opt)
}

// RestoreClusterNode restores a shard server from a snapshot written
// by ClusterNode.Snapshot: the node's engine-level partitions plus its
// placement metadata, validated against the topology the cluster is
// booting with. Add no datasets afterwards; just Serve.
func RestoreClusterNode(self string, topo ClusterTopology, opt ClusterNodeOptions, b SnapshotBackend, mode RestoreMode) (*ClusterNode, error) {
	return cluster.RestoreNode(self, topo, opt, b, mode)
}
