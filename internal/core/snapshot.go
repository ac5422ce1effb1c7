// Snapshot/restore wiring between the engine and internal/segment.
// What is persisted is the *built* serving state — per-shard
// norm-ordered colstore planes, flat pyramid planes, precomputed
// series summaries and event planes, columnar well strata, the scene
// feature matrix — so OpenSnapshot reaches serving-ready without
// re-running a single index build, sort, or classification pass.
// Restored engines answer every query family bit-identically to the
// engine that wrote the snapshot: everything a query reads is either
// persisted verbatim or recomputed by a deterministic function of
// persisted state (root partitioning, feature column names).
//
// Per-kind section layout (canonical metadata uses internal/canon
// framing, tags "TS"/"PY"/"SS"/"WS"):
//
//	tuples  meta("TS": per-shard offset/rows/dim) +
//	        s<k>.{ids,flat,blockstart,zonelo,zonehi,zonenorm,
//	               segstart,segblock}
//	scenes  meta(gob scene metadata) + pyr("PY": band names, level
//	        geometry) + pyr<l> planes (level 0: one value per band and
//	        cell; coarser: a min/max pair) + feat matrix
//	series  meta("SS": region id/summary/day-count) + events (the
//	        packed plane, raw: each region's PackedLen(days) base-3
//	        bytes back to back, so its byte offset is the sum of the
//	        runs before it)
//	wells   meta("WS": well id/stratum-count) + lith/topft/thickft/gamma
package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"

	"modelir/internal/archive"
	"modelir/internal/canon"
	"modelir/internal/colstore"
	"modelir/internal/pyramid"
	"modelir/internal/segment"
	"modelir/internal/synth"
)

// Manifest kind tags.
const (
	kindTuples = "tuples"
	kindScenes = "scenes"
	kindSeries = "series"
	kindWells  = "wells"
)

// DatasetInfo describes one registered dataset.
type DatasetInfo struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	Rows int    `json:"rows"`
	// Width is a tuple dataset's attribute count (0 for other kinds).
	Width int `json:"width,omitempty"`
	// Gen is the dataset's cache-invalidation generation: 1 at
	// registration, +1 per append (cache.go).
	Gen uint64 `json:"gen"`
	// Deltas counts the dataset's live delta segments (always 0 for
	// scenes, which are not appendable). The tier rule keeps it
	// O(log rows).
	Deltas int `json:"deltas"`
	// Compactions, MergedSegments and ReindexedRows count, since the
	// dataset was registered or installed, the compactions swapped in,
	// the delta segments they consumed and the rows they rebuilt
	// segments over.
	Compactions    uint64 `json:"compactions"`
	MergedSegments uint64 `json:"merged_segments"`
	ReindexedRows  uint64 `json:"reindexed_rows"`
}

func (s *set[S, R]) info(name, kind string) DatasetInfo {
	var width int
	if len(s.scan) > 0 {
		width = s.scan[0].width()
	}
	return DatasetInfo{
		Name: name, Kind: kind, Rows: s.rows, Width: width, Gen: s.gen, Deltas: len(s.deltas),
		Compactions: s.compactions, MergedSegments: s.mergedSegments, ReindexedRows: s.reindexedRows,
	}
}

// Datasets lists every registered dataset sorted by name (then kind —
// names are scoped per kind, so the same name may carry two kinds).
func (e *Engine) Datasets() []DatasetInfo {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.datasetsLocked()
}

func (e *Engine) datasetsLocked() []DatasetInfo {
	out := make([]DatasetInfo, 0, len(e.tuples)+len(e.scenes)+len(e.series)+len(e.wells))
	for name, ts := range e.tuples {
		out = append(out, ts.info(name, kindTuples))
	}
	for name, ss := range e.scenes {
		out = append(out, DatasetInfo{Name: name, Kind: kindScenes, Rows: len(ss.scene.Tiles), Gen: ss.gen})
	}
	for name, ss := range e.series {
		out = append(out, ss.info(name, kindSeries))
	}
	for name, ws := range e.wells {
		out = append(out, ws.info(name, kindWells))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// Snapshot persists every registered dataset's built serving state to
// b: every shard is complete from construction, so the snapshot only
// writes planes out. Registrations, appends and compactions block for
// the duration
// (Snapshot holds the read lock end to end, and all of those need the
// write lock to swap state in); queries do not. A snapshot racing a
// concurrent Add* or Append* therefore captures a consistent pre- or
// post-change world, never a torn one. Delta segments are persisted
// as additional shards: tuple deltas as further contiguous shard
// entries, series/well deltas folded into the global planes — either
// way the restored engine answers bit-identically.
func (e *Engine) Snapshot(ctx context.Context, b segment.Backend) error {
	return e.snapshot(ctx, b, "")
}

// SnapshotDataset persists only the named dataset to b — the donor
// side of cluster resync, where a replica streams a consistent
// snapshot of one partition a stale peer owes. Selection is by name
// across every kind (engine-local cluster names are unique); a name
// matching nothing is an error, because a donor must actually hold
// what it offered. Like Snapshot it holds the read lock end to end.
func (e *Engine) SnapshotDataset(ctx context.Context, b segment.Backend, name string) error {
	if name == "" {
		return fmt.Errorf("%w: empty name", ErrUnknownDataset)
	}
	return e.snapshot(ctx, b, name)
}

// snapshot writes every dataset, or only the one named only.
func (e *Engine) snapshot(ctx context.Context, b segment.Backend, only string) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	w, err := segment.NewWriter(b, e.shards)
	if err != nil {
		return err
	}
	found := false
	for _, info := range e.datasetsLocked() {
		if err := ctx.Err(); err != nil {
			return err
		}
		if only != "" && info.Name != only {
			continue
		}
		found = true
		switch info.Kind {
		case kindTuples:
			err = snapTuples(w, info, e.tuples[info.Name])
		case kindScenes:
			err = snapScene(w, info, e.scenes[info.Name])
		case kindSeries:
			err = snapSeries(w, info, e.series[info.Name])
		case kindWells:
			err = snapWells(w, info, e.wells[info.Name])
		}
		if err != nil {
			return fmt.Errorf("core: snapshot %s %q: %w", info.Kind, info.Name, err)
		}
	}
	if only != "" && !found {
		return fmt.Errorf("%w: %q", ErrUnknownDataset, only)
	}
	return w.Finish()
}

// InstallDataset replaces (or creates) the named dataset from a
// snapshot on b — the receiver side of cluster resync. The restore
// runs in Copy mode (the backend is transient) with every section
// checksum verified during decode, all outside the engine lock. A
// restored set whose logical row count is not rows is refused before
// anything is swapped in. The swap itself happens under the write lock,
// and the installed dataset's generation is bumped strictly past the
// replaced one so cached results over the old state invalidate. Other
// snapshot datasets are ignored; the named one missing is an error. An
// in-flight compaction of the replaced dataset drops its build at the
// swap (the installed set does not hold the deltas it captured, so it
// does not descend from the capture).
func (e *Engine) InstallDataset(b segment.Backend, name string, rows int) error {
	snap, err := segment.Open(b, segment.Copy)
	if err != nil {
		return err
	}
	defer snap.Close()
	for _, ds := range snap.Manifest().Datasets {
		if ds.Name != name {
			continue
		}
		st, err := e.restoreSet(snap, ds)
		if err != nil {
			return err
		}
		if st.rows != rows {
			return fmt.Errorf("%w: install %q restored %d rows, want %d", segment.ErrCorrupt, name, st.rows, rows)
		}
		e.mu.Lock()
		defer e.mu.Unlock()
		e.adoptLocked(name, st)
		return nil
	}
	return fmt.Errorf("core: install: %w: %q not in snapshot", ErrUnknownDataset, name)
}

// restoredSet is one dataset decoded from a snapshot, not yet served:
// exactly one of the sets is non-nil, and rows is its logical row count
// (tiles for a scene).
type restoredSet struct {
	rows int
	ts   *tupleSet
	sc   *sceneSet
	se   *seriesSet
	ws   *wellSet
}

// restoreSet decodes one manifest dataset from snap.
func (e *Engine) restoreSet(snap *segment.Snapshot, ds segment.Dataset) (restoredSet, error) {
	var st restoredSet
	dr, err := snap.Dataset(ds.Kind, ds.Name)
	if err != nil {
		return st, err
	}
	switch ds.Kind {
	case kindTuples:
		if st.ts, err = restoreTuples(dr, ds.Rows); err == nil {
			st.rows = st.ts.rows
		}
	case kindScenes:
		if st.sc, err = restoreScene(dr); err == nil {
			st.rows = len(st.sc.scene.Tiles)
		}
	case kindSeries:
		if st.se, err = restoreSeries(dr, e.shards); err == nil {
			st.rows = st.se.rows
		}
	case kindWells:
		if st.ws, err = restoreWells(dr, e.shards); err == nil {
			st.rows = st.ws.rows
		}
	default:
		return st, fmt.Errorf("%w: dataset %q has unknown kind %q", segment.ErrCorrupt, ds.Name, ds.Kind)
	}
	if err != nil {
		return st, fmt.Errorf("core: restore %s %q: %w", ds.Kind, ds.Name, err)
	}
	return st, nil
}

// adoptLocked serves a restored set under name, its generation one past
// the set it replaces (if any). Caller holds e.mu for writing, or owns
// an engine no one else can reach yet.
func (e *Engine) adoptLocked(name string, st restoredSet) {
	switch {
	case st.ts != nil:
		if old := e.tuples[name]; old != nil {
			st.ts.gen = old.gen + 1
		}
		e.tuples[name] = st.ts
	case st.sc != nil:
		if old := e.scenes[name]; old != nil {
			st.sc.gen = old.gen + 1
		}
		e.scenes[name] = st.sc
	case st.se != nil:
		if old := e.series[name]; old != nil {
			st.se.gen = old.gen + 1
		}
		e.series[name] = st.se
	default:
		if old := e.wells[name]; old != nil {
			st.ws.gen = old.gen + 1
		}
		e.wells[name] = st.ws
	}
}

// RestoreOptions tunes OpenSnapshot.
type RestoreOptions struct {
	// Mode selects Copy (portable) or Map (zero-copy mmap) restore.
	Mode segment.RestoreMode
	// Options configures the restored engine's serving layer (cache,
	// admission control).
	// Shards is ignored: the manifest's shard count is authoritative,
	// because persisted per-shard state must match the partition
	// layout the engine serves with.
	Options Options
}

// OpenSnapshot restores an engine from a snapshot on b. In Map mode
// the engine's columnar planes alias read-only mappings owned by the
// snapshot; Close the engine to release them.
func OpenSnapshot(b segment.Backend, opt RestoreOptions) (*Engine, error) {
	snap, err := segment.Open(b, opt.Mode)
	if err != nil {
		return nil, err
	}
	eopt := opt.Options
	eopt.Shards = snap.Manifest().Shards
	e := NewEngineWith(eopt)
	if err := e.restoreFrom(snap); err != nil {
		snap.Close()
		return nil, err
	}
	if opt.Mode == segment.Map {
		// Mapped planes live inside the snapshot's mappings; tie their
		// lifetime to the engine.
		e.closers = append(e.closers, snap.Close)
	} else {
		snap.Close()
	}
	return e, nil
}

// Close releases resources a restored engine holds (mmap'd segment
// files) after waiting out any background delta compactions in flight.
// Idempotent; a built engine's Close is a no-op. Do not append
// concurrently with Close. After Close a Map-restored engine must not
// be queried.
func (e *Engine) Close() error {
	e.compactWG.Wait()
	e.mu.Lock()
	closers := e.closers
	e.closers = nil
	e.mu.Unlock()
	var first error
	for _, c := range closers {
		if err := c(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (e *Engine) restoreFrom(snap *segment.Snapshot) error {
	for _, ds := range snap.Manifest().Datasets {
		st, err := e.restoreSet(snap, ds)
		if err != nil {
			return err
		}
		e.adoptLocked(ds.Name, st)
	}
	return nil
}

// ---- tuples ----

func snapTuples(w *segment.Writer, info DatasetInfo, ts *tupleSet) error {
	dw, err := w.Dataset(info.Name, kindTuples, info.Rows)
	if err != nil {
		return err
	}
	meta := []byte("TS")
	meta = canon.AppendUint(meta, uint64(len(ts.scan)))
	for k, sh := range ts.scan {
		sp := sh.store.Planes()
		meta = canon.AppendUint(meta, uint64(sh.offset))
		meta = canon.AppendUint(meta, uint64(sp.Rows))
		meta = canon.AppendUint(meta, uint64(sp.Dim))
		pre := func(s string) string { return fmt.Sprintf("s%d.%s", k, s) }
		if err := firstErr(
			dw.Ints(pre("ids"), sp.IDs),
			dw.Floats(pre("flat"), sp.Flat),
			dw.Ints(pre("blockstart"), intsToI64(sp.BlockStart)),
			dw.Floats(pre("zonelo"), sp.ZoneLo),
			dw.Floats(pre("zonehi"), sp.ZoneHi),
			dw.Floats(pre("zonenorm"), sp.ZoneNorm),
			dw.Ints(pre("segstart"), intsToI64(sp.SegStart)),
			dw.Ints(pre("segblock"), intsToI64(sp.SegBlock)),
		); err != nil {
			return err
		}
	}
	if err := dw.Raw("meta", meta); err != nil {
		return err
	}
	return dw.Close()
}

func restoreTuples(dr *segment.DatasetReader, rows int) (*tupleSet, error) {
	meta, err := dr.Raw("meta")
	if err != nil {
		return nil, err
	}
	r := canon.NewReader(meta)
	if err := r.Expect("TS"); err != nil {
		return nil, fmt.Errorf("%w: tuple meta tag", segment.ErrCorrupt)
	}
	nshards, err := r.Count(24) // 3 uints per shard
	if err != nil || nshards < 1 {
		return nil, fmt.Errorf("%w: tuple meta shard count", segment.ErrCorrupt)
	}
	shards := make([]*tupleShard, 0, nshards)
	next := 0
	for k := 0; k < nshards; k++ {
		offset, err1 := r.Uint()
		shRows, err2 := r.Uint()
		dim, err3 := r.Uint()
		if err := firstErr(err1, err2, err3); err != nil {
			return nil, fmt.Errorf("%w: tuple meta shard %d", segment.ErrCorrupt, k)
		}
		// Shards tile the row space in monotone order. Gaps are legal:
		// a cluster partition holds only its own global ID ranges
		// (AppendTuplesAt lands batches at explicit bases), so a snapshot
		// of such a dataset has delta shards starting past the previous
		// shard's end. Overlap is never legal — IDs would collide.
		if int(offset) < next {
			return nil, fmt.Errorf("%w: tuple shard %d offset %d overlaps previous end %d", segment.ErrCorrupt, k, offset, next)
		}
		next = int(offset) + int(shRows)
		pre := func(s string) string { return fmt.Sprintf("s%d.%s", k, s) }
		sp := colstore.Planes{Dim: int(dim), Rows: int(shRows)}
		var ids, blockStart, segStart, segBlock []int64
		if err := firstErr(
			readI64(dr, pre("ids"), &ids),
			readF64(dr, pre("flat"), &sp.Flat),
			readI64(dr, pre("blockstart"), &blockStart),
			readF64(dr, pre("zonelo"), &sp.ZoneLo),
			readF64(dr, pre("zonehi"), &sp.ZoneHi),
			readF64(dr, pre("zonenorm"), &sp.ZoneNorm),
			readI64(dr, pre("segstart"), &segStart),
			readI64(dr, pre("segblock"), &segBlock),
		); err != nil {
			return nil, err
		}
		sp.IDs = ids
		sp.BlockStart = i64ToInts(blockStart)
		sp.SegStart = i64ToInts(segStart)
		sp.SegBlock = i64ToInts(segBlock)
		store, err := colstore.FromPlanes(sp)
		if err != nil {
			return nil, fmt.Errorf("%w: shard %d: %v", segment.ErrCorrupt, k, err)
		}
		shards = append(shards, &tupleShard{offset: int(offset), store: store})
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("%w: trailing tuple meta", segment.ErrCorrupt)
	}
	if next != rows {
		return nil, fmt.Errorf("%w: tuple shards cover %d rows, manifest says %d", segment.ErrCorrupt, next, rows)
	}
	return restoredTupleSet(rows, shards), nil
}

// ---- scenes ----

func snapScene(w *segment.Writer, info DatasetInfo, ss *sceneSet) error {
	dw, err := w.Dataset(info.Name, kindScenes, info.Rows)
	if err != nil {
		return err
	}
	var metaBuf bytes.Buffer
	if err := ss.scene.EncodeMeta(&metaBuf); err != nil {
		return err
	}
	if err := dw.Raw("meta", metaBuf.Bytes()); err != nil {
		return err
	}
	mp := ss.scene.Pyramid()
	pt := []byte("PY")
	pt = canon.AppendUint(pt, uint64(mp.NumBands()))
	for b := 0; b < mp.NumBands(); b++ {
		pt = canon.AppendString(pt, mp.BandName(b))
	}
	pt = canon.AppendUint(pt, uint64(mp.NumLevels()))
	for l := 0; l < mp.NumLevels(); l++ {
		fl := mp.Flat(l)
		pt = canon.AppendUint(pt, uint64(fl.W))
		pt = canon.AppendUint(pt, uint64(fl.H))
		pt = canon.AppendUint(pt, uint64(fl.Scale))
		pt = canon.AppendUint(pt, uint64(fl.Bands))
		if err := dw.Floats(fmt.Sprintf("pyr%d", l), fl.Vals()); err != nil {
			return err
		}
	}
	if err := dw.Raw("pyr", pt); err != nil {
		return err
	}
	if err := dw.Floats("feat", ss.feat); err != nil {
		return err
	}
	return dw.Close()
}

func restoreScene(dr *segment.DatasetReader) (*sceneSet, error) {
	pt, err := dr.Raw("pyr")
	if err != nil {
		return nil, err
	}
	r := canon.NewReader(pt)
	if err := r.Expect("PY"); err != nil {
		return nil, fmt.Errorf("%w: pyramid table tag", segment.ErrCorrupt)
	}
	nbands, err := r.Count(8)
	if err != nil || nbands < 1 {
		return nil, fmt.Errorf("%w: pyramid band count", segment.ErrCorrupt)
	}
	names := make([]string, nbands)
	for b := range names {
		if names[b], err = r.String(); err != nil {
			return nil, fmt.Errorf("%w: pyramid band name %d", segment.ErrCorrupt, b)
		}
	}
	nlevels, err := r.Count(32) // 4 uints per level
	if err != nil || nlevels < 1 {
		return nil, fmt.Errorf("%w: pyramid level count", segment.ErrCorrupt)
	}
	levels := make([]pyramid.FlatLevel, nlevels)
	for l := 0; l < nlevels; l++ {
		wd, err1 := r.Uint()
		ht, err2 := r.Uint()
		scale, err3 := r.Uint()
		bands, err4 := r.Uint()
		if err := firstErr(err1, err2, err3, err4); err != nil {
			return nil, fmt.Errorf("%w: pyramid level %d geometry", segment.ErrCorrupt, l)
		}
		vals, err := dr.Floats(fmt.Sprintf("pyr%d", l))
		if err != nil {
			return nil, err
		}
		fl, err := pyramid.FlatFromVals(int(wd), int(ht), int(scale), int(bands), vals)
		if err != nil {
			return nil, fmt.Errorf("%w: level %d: %v", segment.ErrCorrupt, l, err)
		}
		levels[l] = fl
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("%w: trailing pyramid table", segment.ErrCorrupt)
	}
	mp, err := pyramid.FromFlat(names, levels)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", segment.ErrCorrupt, err)
	}
	meta, err := dr.Raw("meta")
	if err != nil {
		return nil, err
	}
	sc, err := archive.SceneFromParts(bytes.NewReader(meta), mp)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", segment.ErrCorrupt, err)
	}
	if len(sc.Tiles) != dr.Rows() {
		return nil, fmt.Errorf("%w: scene has %d tiles, manifest says %d rows", segment.ErrCorrupt, len(sc.Tiles), dr.Rows())
	}
	feat, err := dr.Floats("feat")
	if err != nil {
		return nil, err
	}
	ss, err := restoredSceneSet(sc, feat)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", segment.ErrCorrupt, err)
	}
	return ss, nil
}

// ---- series ----

func snapSeries(w *segment.Writer, info DatasetInfo, ss *seriesSet) error {
	dw, err := w.Dataset(info.Name, kindSeries, info.Rows)
	if err != nil {
		return err
	}
	meta := []byte("SS")
	meta = canon.AppendUint(meta, uint64(info.Rows))
	var events []byte
	for _, sh := range ss.scan {
		for i := range sh.regions {
			meta = canon.AppendUint(meta, uint64(int64(sh.regions[i].Region)))
			meta = canon.AppendUint(meta, uint64(sh.sums[i].MaxDrySpell))
			meta = canon.AppendUint(meta, uint64(sh.sums[i].RainDays))
			meta = canon.AppendFloat(meta, sh.sums[i].MaxTempAfterDry3)
			p, days := sh.eventsOf(i)
			meta = canon.AppendUint(meta, uint64(days))
			events = append(events, p...)
		}
	}
	if err := firstErr(
		dw.Raw("meta", meta),
		dw.Raw("events", events),
	); err != nil {
		return err
	}
	return dw.Close()
}

func restoreSeries(dr *segment.DatasetReader, shards int) (*seriesSet, error) {
	meta, err := dr.Raw("meta")
	if err != nil {
		return nil, err
	}
	r := canon.NewReader(meta)
	if err := r.Expect("SS"); err != nil {
		return nil, fmt.Errorf("%w: series meta tag", segment.ErrCorrupt)
	}
	n, err := r.Count(40) // 4 uints + 1 float per region
	if err != nil {
		return nil, fmt.Errorf("%w: series region count", segment.ErrCorrupt)
	}
	if n != dr.Rows() {
		return nil, fmt.Errorf("%w: series meta has %d regions, manifest says %d", segment.ErrCorrupt, n, dr.Rows())
	}
	ids := make([]int, n)
	sums := make([]synth.DrySpellStats, n)
	days := make([]int, n)
	for i := 0; i < n; i++ {
		id, err1 := r.Uint()
		maxDry, err2 := r.Uint()
		rainDays, err3 := r.Uint()
		maxTemp, err4 := r.Float()
		d, err5 := r.Uint()
		if err := firstErr(err1, err2, err3, err4, err5); err != nil {
			return nil, fmt.Errorf("%w: series meta region %d", segment.ErrCorrupt, i)
		}
		ids[i] = int(int64(id))
		sums[i] = synth.DrySpellStats{
			MaxDrySpell:      int(maxDry),
			RainDays:         int(rainDays),
			MaxTempAfterDry3: maxTemp,
		}
		days[i] = int(d)
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("%w: trailing series meta", segment.ErrCorrupt)
	}
	events, err := dr.Raw("events")
	if err != nil {
		return nil, err
	}
	return restoredSeriesSet(ids, sums, events, days, shards)
}

// ---- wells ----

func snapWells(w *segment.Writer, info DatasetInfo, ws *wellSet) error {
	dw, err := w.Dataset(info.Name, kindWells, info.Rows)
	if err != nil {
		return err
	}
	meta := []byte("WS")
	meta = canon.AppendUint(meta, uint64(info.Rows))
	var lith []int64
	var topFt, thickFt, gamma []float64
	for _, sh := range ws.scan {
		for i := range sh.wells {
			meta = canon.AppendUint(meta, uint64(int64(sh.wells[i].Well)))
			meta = canon.AppendUint(meta, uint64(sh.strataLen(i)))
		}
		for _, l := range sh.lith {
			lith = append(lith, int64(l))
		}
		topFt = append(topFt, sh.topFt...)
		thickFt = append(thickFt, sh.thickFt...)
		gamma = append(gamma, sh.gamma...)
	}
	if err := firstErr(
		dw.Raw("meta", meta),
		dw.Ints("lith", lith),
		dw.Floats("topft", topFt),
		dw.Floats("thickft", thickFt),
		dw.Floats("gamma", gamma),
	); err != nil {
		return err
	}
	return dw.Close()
}

func restoreWells(dr *segment.DatasetReader, shards int) (*wellSet, error) {
	meta, err := dr.Raw("meta")
	if err != nil {
		return nil, err
	}
	r := canon.NewReader(meta)
	if err := r.Expect("WS"); err != nil {
		return nil, fmt.Errorf("%w: well meta tag", segment.ErrCorrupt)
	}
	n, err := r.Count(16) // 2 uints per well
	if err != nil {
		return nil, fmt.Errorf("%w: well count", segment.ErrCorrupt)
	}
	if n != dr.Rows() {
		return nil, fmt.Errorf("%w: well meta has %d wells, manifest says %d", segment.ErrCorrupt, n, dr.Rows())
	}
	ids := make([]int, n)
	counts := make([]int, n)
	for i := 0; i < n; i++ {
		id, err1 := r.Uint()
		c, err2 := r.Uint()
		if err := firstErr(err1, err2); err != nil {
			return nil, fmt.Errorf("%w: well meta %d", segment.ErrCorrupt, i)
		}
		ids[i] = int(int64(id))
		counts[i] = int(c)
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("%w: trailing well meta", segment.ErrCorrupt)
	}
	lithCol, err := dr.Ints("lith")
	if err != nil {
		return nil, err
	}
	lith := make([]synth.Lithology, len(lithCol))
	for i, v := range lithCol {
		lith[i] = synth.Lithology(v)
	}
	var topFt, thickFt, gamma []float64
	if err := firstErr(
		readF64(dr, "topft", &topFt),
		readF64(dr, "thickft", &thickFt),
		readF64(dr, "gamma", &gamma),
	); err != nil {
		return nil, err
	}
	ws, err := restoredWellSet(ids, counts, lith, topFt, thickFt, gamma, shards)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", segment.ErrCorrupt, err)
	}
	return ws, nil
}

// ---- small helpers ----

func firstErr(errs ...error) error {
	return errors.Join(errs...)
}

func intsToI64(s []int) []int64 {
	out := make([]int64, len(s))
	for i, v := range s {
		out[i] = int64(v)
	}
	return out
}

func i64ToInts(s []int64) []int {
	out := make([]int, len(s))
	for i, v := range s {
		out[i] = int(v)
	}
	return out
}

func readF64(dr *segment.DatasetReader, name string, dst *[]float64) error {
	v, err := dr.Floats(name)
	if err != nil {
		return err
	}
	*dst = v
	return nil
}

func readI64(dr *segment.DatasetReader, name string, dst *[]int64) error {
	v, err := dr.Ints(name)
	if err != nil {
		return err
	}
	*dst = v
	return nil
}
