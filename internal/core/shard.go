// Shard plumbing for the engine: every dataset is partitioned into N
// contiguous shards at ingest, each shard carrying its own
// model-specific layout (a norm-ordered columnar store for tuple
// archives, precomputed metadata summaries and packed event planes for
// series, flat strata planes for wells), all built when the shard is
// constructed. A query's units come from every shard and delta of the
// dataset (see queryPlan); because shard data is immutable once built,
// the whole structure is safe for concurrent queries without locks on
// the hot path.
//
// Live ingest rides on the same invariant: an append never mutates a
// set in place. It builds an immutable, already indexed delta segment
// (one more shard value of the same type) and swaps in a new set value
// that shares the base shards, extends the scan list, and advances the
// dataset's generation. In-flight queries keep the set pointer they
// resolved and see a consistent world; the next query sees base +
// deltas. A background compactor merges adjacent deltas by size tier
// (see ingest.go) without changing the generation — compaction changes
// layout, never content.

package core

import (
	"fmt"
	"math/bits"

	"modelir/internal/archive"
	"modelir/internal/colstore"
	"modelir/internal/fsm"
	"modelir/internal/segment"
	"modelir/internal/synth"
)

// partition splits n items into at most `want` contiguous non-empty
// ranges [lo, hi). Sizes differ by at most one, and the layout depends
// only on (n, want), so shard boundaries — and therefore global item
// IDs — are stable across runs.
func partition(n, want int) [][2]int {
	if n <= 0 {
		return nil
	}
	if want < 1 {
		want = 1
	}
	if want > n {
		want = n
	}
	out := make([][2]int, 0, want)
	base, rem := n/want, n%want
	lo := 0
	for s := 0; s < want; s++ {
		hi := lo + base
		if s < rem {
			hi++
		}
		out = append(out, [2]int{lo, hi})
		lo = hi
	}
	return out
}

// rowShard is what the three appendable shard kinds share: an
// immutable segment over a run of raw rows of type R (tuples, regions,
// wells), built complete by its kind's constructor (a func([]R) (S,
// error)). Pointer identity tells the compactor whether a set still
// descends from the one it captured.
type rowShard[R any] interface {
	comparable
	// rawRows is the run the segment was built over. Delta segments
	// always hold it (appends supply the rows); a snapshot-restored base
	// tuple shard does not.
	rawRows() []R
	// place sets the global row the segment's IDs start at. Only tuple
	// IDs are positional; region and well IDs are intrinsic to the rows.
	place(base int)
	// width is the row width every segment of one dataset shares: the
	// attribute count for tuples, 0 for kinds without a fixed width.
	width() int
}

// set is a registered appendable dataset, sharded at ingest. raw
// retains the registration rows (base shards alias its backing array)
// for Engine.Compact's full rebuild; it is nil on a snapshot-restored
// set, where only built state is persisted. scan — base shards followed
// by deltas — is the only shard list query plans fan out over.
type set[S rowShard[R], R any] struct {
	// rows is the logical row count including delta rows (for a pinned
	// tuple set, the row watermark).
	rows   int
	raw    []R
	shards []S
	// deltas are immutable delta segments landed by Append* after
	// registration, in append order. Tuple deltas' offsets continue the
	// global row space, so item IDs are identical to a from-scratch
	// build; series and well IDs are intrinsic to the rows.
	deltas []S
	// scan is shards + deltas (aliased when there are no deltas).
	scan []S
	// gen is the dataset's cache-invalidation generation: 1 at
	// registration, +1 per append, unchanged by compaction.
	gen uint64
	// pinned marks a tuple set holding at least one delta whose offset
	// does not continue the local row space contiguously (a cluster
	// append landed rows at an explicit global base, see
	// AppendTuplesAt). Merging would reassign those offsets — and with
	// them the result IDs the cluster contract pins — so a pinned set is
	// never compacted.
	pinned bool
	// Compaction counters since registration or install (DatasetInfo).
	compactions, mergedSegments, reindexedRows uint64
}

type (
	tupleSet  = set[*tupleShard, []float64]
	seriesSet = set[*seriesShard, synth.RegionSeries]
	wellSet   = set[*wellShard, synth.WellLog]
)

// newSet partitions raw into `shards` balanced base shards, each built
// by mk from its run and placed at the run's global row offset. A
// failed shard build fails the whole set.
func newSet[S rowShard[R], R any](raw []R, shards int, mk func(part []R) (S, error)) (*set[S, R], error) {
	s := &set[S, R]{rows: len(raw), raw: raw, gen: 1}
	for _, r := range partition(len(raw), shards) {
		sh, err := mk(raw[r[0]:r[1]])
		if err != nil {
			return nil, fmt.Errorf("rows [%d,%d): %w", r[0], r[1], err)
		}
		sh.place(r[0])
		s.shards = append(s.shards, sh)
	}
	s.scan = s.shards
	return s, nil
}

// rowsIn counts the rows living in segs.
func rowsIn[S rowShard[R], R any](segs []S) int {
	n := 0
	for _, d := range segs {
		n += len(d.rawRows())
	}
	return n
}

// withDeltaAt returns a new set value with d appended as one more
// delta segment whose rows take IDs base..base+len-1; d is built by
// the caller outside the engine lock. The receiver is untouched
// (in-flight queries keep their consistent view), base shards are
// shared and the generation advances. A base beyond s.rows leaves a
// gap in the local row space (legal — IDs are just labels to every
// scan path) but pins the set; rows becomes the row watermark.
func (s *set[S, R]) withDeltaAt(base int, d S) *set[S, R] {
	n := *s
	n.rows = max(s.rows, base+len(d.rawRows()))
	n.deltas = append(s.deltas[:len(s.deltas):len(s.deltas)], d)
	n.scan = append(s.shards[:len(s.shards):len(s.shards)], n.deltas...)
	n.gen++
	n.pinned = s.pinned || base != s.rows
	return &n
}

// sizeClass is floor(log4 n): the tier a segment of n rows sits in.
func sizeClass(n int) int { return (bits.Len(uint(n)) - 1) / 2 }

// tierRun is the one background compaction policy, shared by every
// kind: the oldest run [lo, hi) of compactDeltaSegments adjacent deltas
// whose merge lands in a higher size class than the run's first delta
// — which four deltas of one class always do, so equal appends count
// in base 4 and a row is rebuilt O(log rows) times. Once no run
// qualifies every delta is at least the class of the three after it,
// so at most compactDeltaSegments-1 deltas per class stay live (plus
// the newest three) whatever the append sizes. Only the run's first
// delta is sure to rise: with mixed sizes a large delta that absorbs
// smaller older ones ([1,300,300,300]) is rebuilt in its own class.
// lo == hi means nothing is due.
func (s *set[S, R]) tierRun() (lo, hi int) {
	if s == nil || s.pinned {
		return 0, 0
	}
	for i := 0; i+compactDeltaSegments <= len(s.deltas); i++ {
		run := s.deltas[i : i+compactDeltaSegments]
		if sizeClass(rowsIn[S, R](run)) > sizeClass(len(run[0].rawRows())) {
			return i, i + compactDeltaSegments
		}
	}
	return 0, 0
}

// tupleShard is one partition of a tuple archive: a norm-ordered
// colstore.Store built when the shard is constructed — at registration,
// append, compaction, restore and resync install alike — so no query
// ever builds one. The store numbers rows locally; result IDs are
// shifted by offset into the global index space.
type tupleShard struct {
	offset int
	// points is the run the store was built over; nil on a
	// snapshot-restored shard, which persists only the store.
	points [][]float64
	store  *colstore.Store
}

func (s *tupleShard) rawRows() [][]float64 { return s.points }
func (s *tupleShard) place(base int)       { s.offset = base }
func (s *tupleShard) width() int           { return s.store.Dim() }

// newTupleShard builds the shard's store over part. Rows the store
// cannot hold (empty, zero-width, ragged or non-finite) fail the build.
func (e *Engine) newTupleShard(part [][]float64) (*tupleShard, error) {
	if e.onIndex != nil {
		e.onIndex(len(part))
	}
	st, err := colstore.Build(part, colstore.Options{BlockRows: shardBlockRows(len(part))})
	if err != nil {
		return nil, err
	}
	return &tupleShard{points: part, store: st}, nil
}

// shardBlockRows sizes a tuple segment's zone-map blocks from its row
// count: a 32nd of the rows, between 32 and colstore.DefaultBlockRows.
// A scan prunes whole blocks only, so a small shard or delta held in
// one or two default-sized blocks would score every row under any
// floor; at 32 blocks it prunes its norm-ordered tail like a large one.
func shardBlockRows(n int) int {
	return min(colstore.DefaultBlockRows, max(32, (n+31)/32))
}

// restoredTupleSet assembles a tuple set from restored shards. raw
// stays nil: the registration rows were never persisted, so Compact
// merges a restored set's deltas instead of rebuilding its base shards.
func restoredTupleSet(rows int, shards []*tupleShard) *tupleSet {
	return &tupleSet{rows: rows, shards: shards, scan: shards, gen: 1}
}

// seriesShard is one partition of a series archive with its
// metadata-level summaries (the prefilter index) built at ingest, plus
// the packed event plane: every region's day-classified FSM events
// base 3, five days per byte, in ONE flat allocation, so a query steps
// a compiled machine over contiguous bytes instead of re-classifying
// raw weather structs per query per region. Classification is
// deterministic, so precomputing it at ingest changes results by
// exactly nothing.
type seriesShard struct {
	regions []synth.RegionSeries
	sums    []synth.DrySpellStats
	// events is the packed plane; region i's days[i] events occupy
	// events[evOff[i]:evOff[i+1]], its last byte holding the
	// days[i]%5 tail days.
	events []byte
	evOff  []int
	days   []int
}

// eventsOf returns region i's packed event run and its day count.
func (s *seriesShard) eventsOf(i int) ([]byte, int) {
	return s.events[s.evOff[i]:s.evOff[i+1]:s.evOff[i+1]], s.days[i]
}

func (s *seriesShard) rawRows() []synth.RegionSeries { return s.regions }
func (s *seriesShard) place(int)                     {}
func (s *seriesShard) width() int                    { return 0 }

// newSeriesShard builds one shard over part: metadata summaries plus
// the packed day-classified event plane. This is the only constructor —
// base shards at registration, delta segments at append, merged deltas
// at compaction — so every segment is bit-identical to the shard a
// from-scratch build would hold. It never fails; the error completes
// the constructor shape every appendable kind shares.
func newSeriesShard(part []synth.RegionSeries) (*seriesShard, error) {
	sums := make([]synth.DrySpellStats, len(part))
	days := make([]int, len(part))
	total := 0
	for i, reg := range part {
		sums[i] = synth.SummarizeSeries(reg)
		days[i] = len(reg.Days)
		total += fsm.PackedLen(len(reg.Days))
	}
	events := make([]byte, 0, total)
	evOff := make([]int, 1, len(part)+1)
	for _, reg := range part {
		events = fsm.AppendPackedSeries(events, reg.Days)
		evOff = append(evOff, len(events))
	}
	return &seriesShard{regions: part, sums: sums, events: events, evOff: evOff, days: days}, nil
}

// restoredSeriesSet assembles a series set from snapshot planes: the
// region table (IDs only — raw days are not persisted), precomputed
// summaries, and the global packed event plane with per-region day
// counts. The plane is adopted, not copied (it may be mmap-backed),
// after every region's run passes fsm.CheckPacked. Shard boundaries
// re-derive from partition(n, shards), which is the same deterministic
// layout newSeriesSet used at snapshot time, so per-shard state is
// identical to the built engine's. Every error wraps segment.ErrCorrupt.
func restoredSeriesSet(ids []int, sums []synth.DrySpellStats, events []byte, days []int, shards int) (*seriesSet, error) {
	n := len(ids)
	if len(sums) != n || len(days) != n {
		return nil, fmt.Errorf("%w: series planes: %d ids, %d sums, %d day counts", segment.ErrCorrupt, n, len(sums), len(days))
	}
	// gOff[i] is region i's byte offset in the global packed plane.
	gOff := make([]int, n+1)
	for i, d := range days {
		// d/5 bounds d before PackedLen rounds it up.
		if d < 0 || d/5 > len(events) || fsm.PackedLen(d) > len(events)-gOff[i] {
			return nil, fmt.Errorf("%w: series planes: region %d has %d days", segment.ErrCorrupt, i, d)
		}
		gOff[i+1] = gOff[i] + fsm.PackedLen(d)
		if err := fsm.CheckPacked(events[gOff[i]:gOff[i+1]], d); err != nil {
			return nil, fmt.Errorf("%w: series region %d: %v", segment.ErrCorrupt, i, err)
		}
	}
	if gOff[n] != len(events) {
		return nil, fmt.Errorf("%w: series planes: %d event bytes for %d packed", segment.ErrCorrupt, len(events), gOff[n])
	}
	regions := make([]synth.RegionSeries, n)
	for i, id := range ids {
		regions[i] = synth.RegionSeries{Region: id}
	}
	ss := &seriesSet{rows: n, gen: 1}
	for _, r := range partition(n, shards) {
		lo, hi := r[0], r[1]
		evOff := make([]int, hi-lo+1)
		for i := lo; i <= hi; i++ {
			evOff[i-lo] = gOff[i] - gOff[lo]
		}
		ss.shards = append(ss.shards, &seriesShard{
			regions: regions[lo:hi],
			sums:    sums[lo:hi],
			events:  events[gOff[lo]:gOff[hi]:gOff[hi]],
			evOff:   evOff,
			days:    days[lo:hi],
		})
	}
	ss.scan = ss.shards
	return ss, nil
}

// packedBytes is the size of the packed event planes of segs: the scan
// an FSM request's step table serves.
func packedBytes(segs []*seriesShard) int {
	n := 0
	for _, sh := range segs {
		n += len(sh.events)
	}
	return n
}

// wellShard is one partition of a well-log archive with its strata
// flattened into struct-of-arrays planes: one contiguous column per
// stratum field, all wells back to back, so SPROC's unary/pair grades
// index flat float64 runs instead of chasing a []Stratum slice header
// per well. Values are copied verbatim; grades are bit-identical.
type wellShard struct {
	wells []synth.WellLog
	// Columnar strata planes; stratum j of well i sits at off[i]+j.
	lith    []synth.Lithology
	topFt   []float64
	thickFt []float64
	gamma   []float64
	off     []int
}

// strataLen returns well i's stratum count.
func (s *wellShard) strataLen(i int) int { return s.off[i+1] - s.off[i] }

func (s *wellShard) rawRows() []synth.WellLog { return s.wells }
func (s *wellShard) place(int)                {}
func (s *wellShard) width() int               { return 0 }

// newWellShard flattens part's strata into the columnar planes — the
// one constructor base shards, delta segments and merged deltas share.
// Like newSeriesShard it never fails.
func newWellShard(part []synth.WellLog) (*wellShard, error) {
	total := 0
	for _, w := range part {
		total += len(w.Strata)
	}
	sh := &wellShard{
		wells:   part,
		lith:    make([]synth.Lithology, 0, total),
		topFt:   make([]float64, 0, total),
		thickFt: make([]float64, 0, total),
		gamma:   make([]float64, 0, total),
		off:     make([]int, 1, len(part)+1),
	}
	for _, w := range part {
		for _, st := range w.Strata {
			sh.lith = append(sh.lith, st.Lith)
			sh.topFt = append(sh.topFt, st.TopFt)
			sh.thickFt = append(sh.thickFt, st.ThickFt)
			sh.gamma = append(sh.gamma, st.GammaAPI)
		}
		sh.off = append(sh.off, len(sh.lith))
	}
	return sh, nil
}

// restoredWellSet assembles a well set from snapshot planes: well IDs,
// per-well stratum counts, and the four global strata columns. The
// float columns are adopted (they may be mmap-backed); shard views
// slice into them without copying. As with series, partition(n,
// shards) reproduces the snapshot-time layout exactly.
func restoredWellSet(ids []int, counts []int, lith []synth.Lithology, topFt, thickFt, gamma []float64, shards int) (*wellSet, error) {
	n := len(ids)
	if len(counts) != n {
		return nil, fmt.Errorf("core: well planes: %d ids, %d counts", n, len(counts))
	}
	gOff := make([]int, n+1)
	for i, c := range counts {
		if c < 0 {
			return nil, fmt.Errorf("core: well planes: well %d has %d strata", i, c)
		}
		gOff[i+1] = gOff[i] + c
	}
	total := gOff[n]
	if len(lith) != total || len(topFt) != total || len(thickFt) != total || len(gamma) != total {
		return nil, fmt.Errorf("core: well planes: columns %d/%d/%d/%d for %d strata",
			len(lith), len(topFt), len(thickFt), len(gamma), total)
	}
	wells := make([]synth.WellLog, n)
	for i, id := range ids {
		wells[i] = synth.WellLog{Well: id}
	}
	s := &wellSet{rows: n, gen: 1}
	for _, r := range partition(n, shards) {
		lo, hi := r[0], r[1]
		off := make([]int, hi-lo+1)
		for i := lo; i <= hi; i++ {
			off[i-lo] = gOff[i] - gOff[lo]
		}
		s.shards = append(s.shards, &wellShard{
			wells:   wells[lo:hi],
			lith:    lith[gOff[lo]:gOff[hi]],
			topFt:   topFt[gOff[lo]:gOff[hi]],
			thickFt: thickFt[gOff[lo]:gOff[hi]],
			gamma:   gamma[gOff[lo]:gOff[hi]],
			off:     off,
		})
	}
	s.scan = s.shards
	return s, nil
}

// sceneSet is a registered raster archive. The scene's pyramid (built
// by archive.BuildScene) is read-only; a scene query is one
// branch-and-bound descent over every root cell from one frontier, so
// nothing is partitioned. The tile
// feature matrix is the knowledge family's columnar plane: one flat
// row of per-band statistics per tile, with a fixed column-name table
// the query's rule set is compiled against once per request — no
// per-tile map construction, no string hashing on the scan path.
type sceneSet struct {
	scene *archive.Scene
	// featCols names the feature matrix's columns ("<band>.mean",
	// ".std", ".min", ".max" per band, band-major).
	featCols []string
	// feat is the flat matrix: tile ti's row is
	// feat[ti*len(featCols) : (ti+1)*len(featCols)].
	feat []float64
	// gen is the dataset's cache-invalidation generation. Scenes are
	// not appendable (a raster pyramid has no meaningful row append),
	// so it stays 1 for the dataset's lifetime — carried anyway so
	// every dataset kind speaks the same invalidation protocol.
	gen uint64
}

// featRow returns tile ti's feature row.
func (ss *sceneSet) featRow(ti int) []float64 {
	w := len(ss.featCols)
	return ss.feat[ti*w : (ti+1)*w : (ti+1)*w]
}

// validateSceneFeatures rejects a scene whose feature table does not
// line up with its band and tile tables (possible for archives decoded
// from a corrupt or truncated stream) BEFORE newSceneSet walks it — a
// malformed archive must fail registration, not panic it.
func validateSceneFeatures(sc *archive.Scene) error {
	if len(sc.TileFeatures) != sc.NumBands() {
		return fmt.Errorf("core: scene has %d feature bands for %d bands", len(sc.TileFeatures), sc.NumBands())
	}
	for b, feats := range sc.TileFeatures {
		if len(feats) != len(sc.Tiles) {
			return fmt.Errorf("core: scene band %d has %d tile features for %d tiles", b, len(feats), len(sc.Tiles))
		}
	}
	return nil
}

func newSceneSet(sc *archive.Scene) *sceneSet {
	ss := &sceneSet{scene: sc, gen: 1}
	nb := sc.NumBands()
	ss.featCols = featColumns(sc)
	ss.feat = make([]float64, len(sc.Tiles)*len(ss.featCols))
	for b := 0; b < nb; b++ {
		for ti := range sc.Tiles {
			st := sc.TileFeatures[b][ti].Stats
			row := ss.feat[ti*len(ss.featCols):]
			row[b*4] = st.Mean
			row[b*4+1] = st.Std
			row[b*4+2] = st.Min
			row[b*4+3] = st.Max
		}
	}
	return ss
}

// featColumns derives the fixed column-name table from the band list —
// deterministic, so built and restored engines compile rules against
// identical schemas.
func featColumns(sc *archive.Scene) []string {
	cols := make([]string, 0, sc.NumBands()*4)
	for _, name := range sc.BandNames {
		cols = append(cols, name+".mean", name+".std", name+".min", name+".max")
	}
	return cols
}

// restoredSceneSet assembles a scene set around a restored archive and
// the persisted feature matrix (adopted, possibly mmap-backed). Column
// names are recomputed — cheap and deterministic — while the matrix
// itself is served from the snapshot.
func restoredSceneSet(sc *archive.Scene, feat []float64) (*sceneSet, error) {
	ss := &sceneSet{scene: sc, featCols: featColumns(sc), gen: 1}
	if len(feat) != len(sc.Tiles)*len(ss.featCols) {
		return nil, fmt.Errorf("core: scene planes: feature matrix len %d for %d tiles × %d cols",
			len(feat), len(sc.Tiles), len(ss.featCols))
	}
	ss.feat = feat
	return ss, nil
}
