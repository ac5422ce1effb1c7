// Live ingest: registered datasets stay appendable under traffic.
// AppendTuples/AppendSeries/AppendWells land new rows as immutable
// in-memory delta segments — one more shard value of the dataset's
// existing columnar type — and swap in a new set value that shares the
// base shards. Queries scan base + deltas through the set's scan list.
//
// Invariant: every segment is complete when it is constructed — for
// tuples a norm-ordered columnar store, whose local IDs do not depend
// on the offset. A delta is built OUTSIDE the engine lock, which is
// held only to assign the offset and swap the pointer; the compactor
// builds its replacement segments the same way (sorting its rows
// again) while readers go on using the old set. No read ever waits on
// a build, and no query path builds anything.
//
// A background compactor keeps the delta list short by size tier: when
// compactDeltaSegments adjacent deltas merge into a higher size class,
// just those are merged (set.tierRun), on raw-row and snapshot-restored
// engines alike, and base shards are never touched. Adjacent-only
// merges keep tuple IDs: the merged delta starts at its first member's
// offset and covers the same contiguous row range. Compaction changes
// layout, never content — answers and the dataset's cache generation
// are unchanged, so live cache entries stay valid across it.
//
// Equivalence contract (pinned by TestDeltaEquivalenceAllFamilies):
// a dataset holding any mix of base and delta segments answers every
// query family bit-identically to a fresh engine rebuilt from the
// same rows, at any shard count. Tuple IDs are global row offsets and
// deltas continue the row space; series and well IDs are intrinsic.

package core

import (
	"errors"
	"fmt"
	"slices"

	"modelir/internal/synth"
)

// ErrWidthMismatch reports an append whose rows are not as wide as the
// dataset's: a linear model could then fit no segment and every read of
// the dataset would fail.
var ErrWidthMismatch = errors.New("core: appended rows differ in width from the dataset")

// compactDeltaSegments is the tier fan-in: how many adjacent deltas one
// background merge takes (set.tierRun).
const compactDeltaSegments = 4

// appendDelta is the write path every kind shares: build the delta
// outside the lock, then take the lock to place it at base — the
// current row count when base is negative — and swap the new set value
// in.
func appendDelta[S rowShard[R], R any](e *Engine, k dsKind, sets map[string]*set[S, R], name string, base int, rows []R, mk func([]R) (S, error)) error {
	if len(rows) == 0 {
		return errors.New("core: empty append")
	}
	if !e.hasDataset(k, name) {
		return fmt.Errorf("%w: %q", ErrUnknownDataset, name)
	}
	d, err := mk(rows)
	if err != nil {
		return fmt.Errorf("core: append to %q: %w", name, err)
	}
	e.mu.Lock()
	s, ok := sets[name]
	switch {
	case !ok:
		e.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownDataset, name)
	case base >= 0 && base < s.rows:
		e.mu.Unlock()
		return fmt.Errorf("core: append base %d overlaps rows [0,%d) of %q", base, s.rows, name)
	case len(s.scan) > 0 && d.width() != s.scan[0].width():
		e.mu.Unlock()
		return fmt.Errorf("%w: %q rows have %d attributes, the appended rows %d",
			ErrWidthMismatch, name, s.scan[0].width(), d.width())
	case base < 0:
		base = s.rows
	}
	d.place(base)
	sets[name] = s.withDeltaAt(base, d)
	start := e.claimCompactorLocked(k, name)
	e.mu.Unlock()
	if start {
		go e.runCompactor(k, name)
	}
	return nil
}

// AppendTuples appends rows to a registered tuple dataset as one
// immutable delta segment with its own norm-ordered columnar store.
// New rows take IDs continuing the dataset's global row space (exactly
// the IDs they would have had in a single registration); queries
// observe either the pre- or post-append world, never a partial one,
// and the dataset's cache generation advances so no stale cached
// result is ever served. Rows the store cannot hold (ragged,
// zero-width or non-finite) and rows whose width differs from the
// dataset's (ErrWidthMismatch) are refused and leave the dataset
// untouched. The rows are not copied; the caller
// must not mutate them afterwards.
func (e *Engine) AppendTuples(name string, points [][]float64) error {
	return appendDelta(e, dsTuples, e.tuples, name, -1, points, e.newTupleShard)
}

// AppendTuplesAt is AppendTuples with an explicit global row base: the
// appended rows take IDs base..base+len(points)-1 instead of continuing
// the dataset's local row space. This is the cluster landing path — a
// router assigns each replicated batch a contiguous ID range from the
// dataset's global row counter, and every replica of the owning
// partition lands it at the same base, so cluster answers stay
// bit-identical to a single-node engine that appended the same batches
// in ID order. base must not overlap existing rows; a base beyond the
// current row watermark leaves a gap in the local ID space, which pins
// the dataset against compaction (offsets must survive verbatim).
func (e *Engine) AppendTuplesAt(name string, base int64, points [][]float64) error {
	if base < 0 {
		return fmt.Errorf("core: negative append base %d", base)
	}
	return appendDelta(e, dsTuples, e.tuples, name, int(base), points, e.newTupleShard)
}

// AppendSeries appends regions to a registered series dataset as one
// immutable delta segment (summaries and the packed event plane
// precomputed). See AppendTuples for the visibility and generation
// contract.
func (e *Engine) AppendSeries(name string, rs []synth.RegionSeries) error {
	return appendDelta(e, dsSeries, e.series, name, -1, rs, newSeriesShard)
}

// AppendWells appends wells to a registered well-log dataset as one
// immutable delta segment (columnar strata planes flattened). See
// AppendTuples for the visibility and generation contract.
func (e *Engine) AppendWells(name string, ws []synth.WellLog) error {
	return appendDelta(e, dsWells, e.wells, name, -1, ws, newWellShard)
}

// hasDataset is the cheap pre-build existence probe of the append path.
func (e *Engine) hasDataset(k dsKind, name string) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.takenLocked(k, name)
}

// mergeDueLocked reports whether the tier rule has a run to merge.
// Caller holds e.mu.
func (e *Engine) mergeDueLocked(k dsKind, name string) bool {
	var lo, hi int
	switch k {
	case dsTuples:
		lo, hi = e.tuples[name].tierRun()
	case dsSeries:
		lo, hi = e.series[name].tierRun()
	case dsWells:
		lo, hi = e.wells[name].tierRun()
	}
	return hi > lo
}

// claimCompactorLocked marks the dataset's background compactor as
// running when a merge is due and none is in flight, and reports
// whether the caller must start it. One goroutine per dataset at a
// time. Caller holds e.mu for writing.
func (e *Engine) claimCompactorLocked(k dsKind, name string) bool {
	key := dsName{k, name}
	if e.compacting[key] || !e.mergeDueLocked(k, name) {
		return false
	}
	e.compacting[key] = true
	e.compactWG.Add(1)
	return true
}

// runCompactor merges until the tier rule is satisfied. It re-evaluates
// the rule under the same lock that clears its in-flight mark, so
// deltas landed while it was building are never left waiting for an
// append that may not come.
func (e *Engine) runCompactor(k dsKind, name string) {
	defer e.compactWG.Done()
	for {
		merged := e.compactOne(k, name, false)
		e.mu.Lock()
		if !merged || !e.mergeDueLocked(k, name) {
			delete(e.compacting, dsName{k, name})
			e.mu.Unlock()
			return
		}
		e.mu.Unlock()
	}
}

// compactOne runs one compaction of a dataset: the tier rule's run, or
// with fold every delta. It reports whether a replacement was swapped
// in; false means nothing was due or the build failed.
func (e *Engine) compactOne(k dsKind, name string, fold bool) bool {
	switch k {
	case dsTuples:
		return compactSet(e, e.tuples, name, fold, e.newTupleShard)
	case dsSeries:
		return compactSet(e, e.series, name, fold, newSeriesShard)
	case dsWells:
		return compactSet(e, e.wells, name, fold, newWellShard)
	}
	return false
}

// compactSet is capture -> build -> swap for every kind. It captures
// the set, builds the replacement segments outside the lock — the run
// deltas[lo:hi] merged into one delta, or, folding a set that still
// holds its registration rows, the whole dataset as balanced base
// shards — and swaps them in. Appends and merges racing
// the build only ever change deltas past the captured ones, so when the
// captured deltas are still a prefix of the current list the set
// descends from the capture and that suffix carries over verbatim (for
// tuples its offsets already continue the row space the replacement
// covers). Otherwise the dataset was compacted or installed meanwhile:
// the build is dropped and the compaction starts over from the current
// set, so neither a background merge nor Compact() is lost to the other.
// A build error (a merge over deltas of mixed dimension, which already
// fail every query) leaves the set as it is.
func compactSet[S rowShard[R], R any](e *Engine, sets map[string]*set[S, R], name string, fold bool, mk func([]R) (S, error)) bool {
	for {
		e.mu.RLock()
		old := sets[name]
		e.mu.RUnlock()
		lo, hi := old.tierRun()
		if fold && old != nil && !old.pinned {
			lo, hi = 0, len(old.deltas)
		}
		rebase := fold && hi > 0 && old.raw != nil
		if hi-lo < 2 && !rebase {
			return false
		}

		var rows []R
		if rebase {
			rows = append(make([]R, 0, old.rows), old.raw...)
		}
		for _, d := range old.deltas[lo:hi] {
			rows = append(rows, d.rawRows()...)
		}
		var built []S // the new base shards when rebasing, else the one merged delta
		if rebase {
			ns, err := newSet(rows, e.shards, mk)
			if err != nil {
				return false
			}
			built = ns.shards
		} else {
			d, err := mk(rows)
			if err != nil {
				return false
			}
			d.place(old.rows - rowsIn[S, R](old.deltas[lo:]))
			built = []S{d}
		}

		e.mu.Lock()
		cur := sets[name]
		if cur == nil || len(cur.deltas) < len(old.deltas) || !slices.Equal(cur.deltas[:len(old.deltas)], old.deltas) {
			e.mu.Unlock()
			continue
		}
		n := *cur
		if rebase {
			n.raw, n.shards, built = rows, built, nil
		}
		n.deltas = append(append(old.deltas[:lo:lo], built...), cur.deltas[hi:]...)
		n.scan = append(n.shards[:len(n.shards):len(n.shards)], n.deltas...)
		n.compactions++
		n.mergedSegments += uint64(hi - lo)
		n.reindexedRows += uint64(len(rows))
		sets[name] = &n
		e.mu.Unlock()
		return true
	}
}

// Compact synchronously folds every dataset's delta segments away: a
// full rebuild into balanced base shards where the registration rows
// are at hand, one merged delta on restored bases — built complete
// before they are published, like everything else the write path
// builds.
// Answers before and after are bit-identical and dataset generations
// are unchanged, so live cache entries stay valid across the call.
// Appends may proceed concurrently; deltas landed mid-compaction simply
// survive it.
func (e *Engine) Compact() {
	e.mu.RLock()
	var targets []dsName
	for name := range e.tuples {
		targets = append(targets, dsName{dsTuples, name})
	}
	for name := range e.series {
		targets = append(targets, dsName{dsSeries, name})
	}
	for name := range e.wells {
		targets = append(targets, dsName{dsWells, name})
	}
	e.mu.RUnlock()
	for _, t := range targets {
		e.compactOne(t.kind, t.name, true)
	}
}
