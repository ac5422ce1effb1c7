// The replicated write path. Router.Append routes each batch to one
// owning partition (whole batches round-robin across partitions so
// every delta segment stays a contiguous global ID range; the replica
// set per partition comes from the consistent-hash placement), assigns
// it the partition's next monotone sequence number, and fans it out to
// every replica, requiring an ack from each. A replica that fails its
// ack after bounded retries with exponential backoff + jitter — or that
// was already unreachable when the batch landed — is quarantined as
// stale: it is missing the batch, so it must not serve reads until the
// catch-up exchange (catchup.go) replays its misses from the per-
// partition append log kept here. The log is pruned to the lowest
// sequence number every replica has acked, so a quarantined replica
// pins exactly the batches it still needs.
//
// Write-all rather than quorum: reads are served by a single replica
// of each partition (scatter-gather picks one), so correctness needs
// every *servable* replica to hold every batch. Instead of read-time
// quorum reconciliation, a replica is either fully caught up or not
// servable at all — the append succeeds once any replica acked, and
// the others are quarantined until catch-up proves them whole.

package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"modelir/internal/colstore"
	"modelir/internal/core"
	"modelir/internal/synth"
)

// ErrNotAppendable reports an append to a dataset kind that cannot
// grow (scenes are raster-global).
var ErrNotAppendable = errors.New("cluster: dataset kind not appendable")

// maxAppendTokens bounds the client-token dedup table (FIFO eviction).
const maxAppendTokens = 4096

// AppendRequest is one router-level append: a dataset plus exactly one
// non-empty payload. Token, when non-empty, makes the append
// idempotent at this router: a retry carrying the same token returns
// the recorded outcome instead of appending twice.
type AppendRequest struct {
	Dataset string
	Tuples  [][]float64
	Series  []synth.RegionSeries
	Wells   []synth.WellLog
	Token   string
}

// AppendResult reports one append's outcome.
type AppendResult struct {
	// Rows is the batch's row count.
	Rows int
	// Part is the owning partition and Seq the batch's sequence number
	// within it.
	Part int
	Seq  uint64
	// Gen is the highest dataset generation any replica reported after
	// applying the batch.
	Gen uint64
	// Duplicate reports a Token replay: the recorded outcome was
	// returned and nothing was appended.
	Duplicate bool
	// Quarantined lists replicas this append newly marked stale.
	Quarantined []string
}

// routerIngest is the router's append-side state.
type routerIngest struct {
	mu     sync.Mutex
	sets   map[string]*dsIngest
	tokens map[string]*tokenEntry
	order  []string // token FIFO for eviction
}

type tokenEntry struct {
	done chan struct{}
	res  AppendResult
	err  error
}

// dsIngest is one dataset's write-side cursor: the global tuple row
// watermark IDs are assigned from, the tuple width batches must have,
// the round-robin batch counter, and the per-partition sequencing
// state. It is built on the first append by syncing seq state from the
// partitions' replicas, so a restarted router resumes exactly where the
// cluster left off.
type dsIngest struct {
	kind DataKind

	mu    sync.Mutex
	rows  int64 // next free global tuple row ID
	width int   // tuple width; 0 until a partition reports rows or a batch claims it
	rr    uint64
	parts []*partIngestState
}

// partIngestState sequences one partition's appends. Its lock is held
// across the whole assign-log-fanout-ack cycle, so batches reach every
// replica in sequence order; different partitions append in parallel.
type partIngestState struct {
	part  int
	nodes []string

	mu      sync.Mutex
	nextSeq uint64
	log     []appendRecord
	acked   map[string]uint64
}

// appendRecord retains one batch's encoded 'A' payload for catch-up
// replay until every replica has acked it.
type appendRecord struct {
	seq     uint64
	rows    int
	payload []byte
}

// appendKindOf classifies the request payload.
func appendKindOf(req AppendRequest) (DataKind, int, error) {
	kinds := 0
	for _, nonEmpty := range []bool{len(req.Tuples) > 0, len(req.Series) > 0, len(req.Wells) > 0} {
		if nonEmpty {
			kinds++
		}
	}
	if kinds != 1 {
		return 0, 0, fmt.Errorf("cluster: append needs exactly one non-empty payload, have %d", kinds)
	}
	switch {
	case len(req.Tuples) > 0:
		return KindTuples, len(req.Tuples), nil
	case len(req.Series) > 0:
		return KindSeries, len(req.Series), nil
	default:
		return KindWells, len(req.Wells), nil
	}
}

// Append routes one batch to its owning partition and replicates it to
// every replica. It returns once at least one replica acked; replicas
// that failed are quarantined (see package comment). If no replica
// acks, the error wraps ErrPartitionUnavailable — the batch stays in
// the append log, so it may still apply later through catch-up; a
// caller retrying should carry a Token to stay idempotent. A batch no
// replica acked and at least one refused fails with ErrAppendRefused
// (core.ErrUnknownDataset when no node holds the dataset, or holds it
// as another kind) and leaves no trace: no sequence number, no log
// record, no quarantine.
func (r *Router) Append(ctx context.Context, req AppendRequest) (AppendResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	kind, rows, err := appendKindOf(req)
	if err != nil {
		return AppendResult{}, err
	}

	if req.Token != "" {
		te, replay := r.claimToken(req.Token)
		if replay {
			select {
			case <-te.done:
			case <-ctx.Done():
				return AppendResult{}, ctx.Err()
			}
			res := te.res
			res.Duplicate = true
			return res, te.err
		}
		defer close(te.done)
		res, err := r.appendOnceRouted(ctx, req, kind, rows)
		te.res, te.err = res, err
		return res, err
	}
	return r.appendOnceRouted(ctx, req, kind, rows)
}

// claimToken returns the dedup entry for token and whether it already
// existed (replay). A fresh claim must be completed by the caller
// (fill res/err, close done).
func (r *Router) claimToken(token string) (*tokenEntry, bool) {
	r.ing.mu.Lock()
	defer r.ing.mu.Unlock()
	if te, ok := r.ing.tokens[token]; ok {
		return te, true
	}
	te := &tokenEntry{done: make(chan struct{})}
	r.ing.tokens[token] = te
	r.ing.order = append(r.ing.order, token)
	for len(r.ing.order) > maxAppendTokens {
		delete(r.ing.tokens, r.ing.order[0])
		r.ing.order = r.ing.order[1:]
	}
	return te, false
}

func (r *Router) appendOnceRouted(ctx context.Context, req AppendRequest, kind DataKind, rows int) (AppendResult, error) {
	ds, err := r.ensureIngest(ctx, req.Dataset, kind)
	if err != nil {
		return AppendResult{}, err
	}
	if kind == KindTuples {
		if err := colstore.Check(req.Tuples); err != nil {
			return AppendResult{Rows: rows}, fmt.Errorf("%w: %q: %w", ErrAppendRefused, req.Dataset, err)
		}
	}

	// Check a tuple batch's width against the dataset's, then assign the
	// batch's owning partition and (for tuples) its global ID base. A
	// batch every replica would refuse is refused here, before it takes
	// IDs a later batch could take IDs past, and before it can set the
	// width of an empty partition it lands in; the first batch into a
	// dataset no partition holds rows of claims the width. The IDs are
	// consumed even if the fan-out fails: the batch stays in the log and
	// may still apply through catch-up.
	ds.mu.Lock()
	claimed := false
	if kind == KindTuples {
		width := len(req.Tuples[0])
		if ds.width == 0 {
			ds.width, claimed = width, true
		}
		if width != ds.width {
			ds.mu.Unlock()
			return AppendResult{Rows: rows}, fmt.Errorf("%w: %q rows have width %d, the dataset %d",
				ErrAppendRefused, req.Dataset, width, ds.width)
		}
	}
	pa := ds.parts[ds.rr%uint64(len(ds.parts))]
	ds.rr++
	base := ds.rows
	if kind == KindTuples {
		ds.rows += int64(rows)
	}
	ds.mu.Unlock()

	batch := AppendBatch{
		Dataset: req.Dataset, Part: pa.part, Base: base,
		Tuples: req.Tuples, Series: req.Series, Wells: req.Wells,
	}
	res, err := r.replicate(ctx, pa, batch)
	if claimed && refused(err) {
		// The replicas took none of it: give the width claim back.
		ds.mu.Lock()
		ds.width = 0
		ds.mu.Unlock()
	}
	return res, err
}

// refused reports a batch a node would not take and applied nothing of:
// ErrAppendRefused, or core.ErrUnknownDataset from a node that does not
// hold the partition.
func refused(err error) bool {
	return errors.Is(err, ErrAppendRefused) || errors.Is(err, core.ErrUnknownDataset)
}

// replicate assigns the batch its sequence number, logs it, and fans
// it out to the partition's replicas, all under the partition lock. A
// batch no replica acked and at least one refused is held by none:
// replicas at the same cursor validate a batch identically, so a
// replica that failed by transport would have refused it too. It gives its sequence number back, stays out of the log and
// quarantines no one, so bad input cannot stall the partition or take
// its nodes out of service, and catch-up never replays a batch every
// replica refuses.
func (r *Router) replicate(ctx context.Context, pa *partIngestState, batch AppendBatch) (AppendResult, error) {
	pa.mu.Lock()
	defer pa.mu.Unlock()

	batch.Seq = pa.nextSeq
	payload, err := encodeAppend(batch)
	if err != nil {
		return AppendResult{}, err
	}
	rec := appendRecord{seq: batch.Seq, rows: batch.Rows(), payload: payload}

	type outcome struct {
		addr string
		ack  appendAck
		err  error
	}
	var targets, missed []string
	for _, addr := range pa.nodes {
		if r.health.servable(addr) {
			targets = append(targets, addr)
		} else {
			missed = append(missed, addr)
		}
	}
	outcomes := make([]outcome, len(targets))
	var wg sync.WaitGroup
	for i, addr := range targets {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			ack, err := r.sendAppend(ctx, addr, rec.seq, payload)
			outcomes[i] = outcome{addr: addr, ack: ack, err: err}
		}(i, addr)
	}
	wg.Wait()

	acked, refusal := false, error(nil)
	for _, o := range outcomes {
		switch {
		case o.err == nil:
			acked = true
		case refusal == nil && refused(o.err):
			refusal = o.err
		}
	}
	if !acked && refusal != nil {
		return AppendResult{Rows: rec.rows, Part: pa.part}, fmt.Errorf("cluster: append %q part %d: %w",
			batch.Dataset, pa.part, refusal)
	}
	pa.nextSeq++
	pa.log = append(pa.log, rec)

	res := AppendResult{Rows: rec.rows, Part: pa.part, Seq: rec.seq}
	// Unreachable or already-stale replicas miss this batch by
	// construction; (re)quarantine so catch-up replays it.
	for _, addr := range missed {
		r.health.missedAppend(addr)
		res.Quarantined = append(res.Quarantined, addr)
	}
	acks := 0
	for _, o := range outcomes {
		if o.err == nil {
			acks++
			pa.acked[o.addr] = rec.seq
			if o.ack.Gen > res.Gen {
				res.Gen = o.ack.Gen
			}
		} else {
			r.health.missedAppend(o.addr)
			res.Quarantined = append(res.Quarantined, o.addr)
		}
	}
	pa.prune()
	if dropped := pa.enforceCap(r.opt.MaxLogBytes); dropped > 0 {
		r.stats.forcedPrunes.Add(int64(dropped))
	}
	if acks == 0 {
		return res, fmt.Errorf("%w: append %q part %d seq %d: no replica acked",
			ErrPartitionUnavailable, batch.Dataset, pa.part, rec.seq)
	}
	return res, nil
}

// prune drops log records every replica has acked. A replica with no
// acked entry (unreachable at sync, health unresolved) reads as floor
// 0, so nothing it might still need is pruned. Must hold pa.mu.
func (pa *partIngestState) prune() {
	floor := pa.nextSeq - 1
	for _, addr := range pa.nodes {
		if a := pa.acked[addr]; a < floor {
			floor = a
		}
	}
	i := 0
	for i < len(pa.log) && pa.log[i].seq <= floor {
		i++
	}
	if i > 0 {
		pa.log = append([]appendRecord(nil), pa.log[i:]...)
	}
}

// enforceCap drops the oldest log records while the log holds more
// than limit bytes of encoded frames. Only records some replica has
// acked are droppable — an acked record's rows live in that replica's
// engine state, so a snapshot resync can still repair whoever missed
// it; a record no replica holds is never dropped, whatever the cap.
// Returns the number of records dropped (each one forces a lagging
// replica down the resync path instead of log replay). Must hold pa.mu.
func (pa *partIngestState) enforceCap(limit int64) int {
	if limit <= 0 || len(pa.log) == 0 {
		return 0
	}
	var total int64
	for _, rec := range pa.log {
		total += int64(len(rec.payload))
	}
	var ackedHigh uint64
	for _, a := range pa.acked {
		if a > ackedHigh {
			ackedHigh = a
		}
	}
	dropped := 0
	for total > limit && dropped < len(pa.log) && pa.log[dropped].seq <= ackedHigh {
		total -= int64(len(pa.log[dropped].payload))
		dropped++
	}
	if dropped > 0 {
		pa.log = append([]appendRecord(nil), pa.log[dropped:]...)
	}
	return dropped
}

// sendAppend delivers one sequenced batch to one replica with bounded
// retries: transport faults back off and retry, a node-reported error
// (sequence gap, refused batch) is final.
func (r *Router) sendAppend(ctx context.Context, addr string, seq uint64, payload []byte) (appendAck, error) {
	var lastErr error
	for attempt := 1; attempt <= r.opt.AppendAttempts; attempt++ {
		if attempt > 1 {
			if err := r.backoff(ctx, attempt-1); err != nil {
				return appendAck{}, err
			}
		}
		if err := ctx.Err(); err != nil {
			return appendAck{}, err
		}
		ack, err, transport := r.appendOnce(ctx, addr, seq, payload)
		if err == nil {
			r.health.ok(addr)
			return ack, nil
		}
		if !transport {
			return appendAck{}, err
		}
		lastErr = err
	}
	return appendAck{}, fmt.Errorf("cluster: append to %s failed after %d attempts: %w",
		addr, r.opt.AppendAttempts, lastErr)
}

// appendOnce is one delivery attempt: an 'A' stream on the replica's
// connection, its ack awaited on a per-call AckTimeout timer. transport
// reports whether the failure was connection-level (retryable) rather
// than node-reported.
func (r *Router) appendOnce(ctx context.Context, addr string, seq uint64, payload []byte) (_ appendAck, err error, transport bool) {
	rep, err, transport := r.roundTrip(ctx, addr, frameAppend, payload, r.opt.AckTimeout)
	if err != nil {
		return appendAck{}, err, transport
	}
	ack, err := parseAppendAck(addr, rep.typ, rep.payload, seq)
	return ack, err, false
}

// parseAppendAck reads the reply to an 'A' frame carrying seq.
func parseAppendAck(addr string, typ byte, payload []byte, seq uint64) (appendAck, error) {
	switch typ {
	case frameAppendAck:
		ack, err := decodeAppendAck(payload)
		if err == nil && ack.Seq != seq {
			err = fmt.Errorf("%w: ack for seq %d, want %d", ErrFrame, ack.Seq, seq)
		}
		return ack, err
	case frameError:
		return appendAck{}, remoteError(addr, payload)
	default:
		return appendAck{}, fmt.Errorf("%w: unexpected frame %q", ErrFrame, typ)
	}
}

// ensureIngest returns the dataset's write-side state, syncing it from
// the cluster on first use (syncIngest). A dataset no node reports, or
// a batch of another kind than the one the nodes report, is
// core.ErrUnknownDataset, refused before the batch takes a sequence
// number or a log record, and nothing about it is kept: a dataset
// registered later is found by the next append. Two first appends may
// sync at once; the first to finish is kept, and no batch was
// sequenced against the other.
func (r *Router) ensureIngest(ctx context.Context, dataset string, kind DataKind) (*dsIngest, error) {
	if kind == KindScene {
		return nil, fmt.Errorf("%w: scenes", ErrNotAppendable)
	}
	r.ing.mu.Lock()
	ds := r.ing.sets[dataset]
	r.ing.mu.Unlock()
	if ds == nil {
		synced, err := r.syncIngest(ctx, dataset, kind)
		if err != nil {
			return nil, err
		}
		r.ing.mu.Lock()
		if ds = r.ing.sets[dataset]; ds == nil {
			ds = synced
			r.ing.sets[dataset] = ds
		}
		r.ing.mu.Unlock()
	}
	if ds.kind != kind {
		return nil, fmt.Errorf("%w: %q holds %v, the append is %v", core.ErrUnknownDataset, dataset, ds.kind, kind)
	}
	return ds, nil
}

// syncIngest builds a dataset's write-side state from the cluster: each
// partition's replicas report their append cursor and row watermark
// over 'U' frames, the highest cursor seeds the sequence counter, the
// highest watermark across partitions seeds the global tuple row
// counter, and any partition holding rows gives the dataset's kind and
// tuple width. Only once the dataset is known to be one the batch can
// land in are replicas already behind the highest cursor, or
// unreachable, quarantined.
func (r *Router) syncIngest(ctx context.Context, dataset string, kind DataKind) (*dsIngest, error) {
	placements := r.place.layout(dataset, kind)
	if len(placements) == 0 {
		return nil, errors.New("cluster: empty topology")
	}
	type report struct {
		lastSeq   uint64
		watermark int64
	}
	ds := &dsIngest{kind: kind}
	reported, held := false, DataKind(0)
	reports := make([]map[string]report, len(placements))
	for i, pl := range placements {
		reports[i] = make(map[string]report, len(pl.Nodes))
		for _, addr := range pl.Nodes {
			entries, err := r.seqStateOf(ctx, addr, dataset)
			if err != nil {
				continue
			}
			r.health.ok(addr)
			rep := report{}
			for _, e := range entries {
				if e.Dataset != dataset {
					continue
				}
				reported = true
				held = max(held, e.Kind)
				ds.width = max(ds.width, e.Width)
				if e.Part == pl.Part {
					rep = report{lastSeq: e.LastSeq, watermark: e.Watermark}
				}
			}
			reports[i][addr] = rep
		}
		if len(reports[i]) == 0 {
			return nil, fmt.Errorf("%w: %q part %d: no replica reachable for ingest sync",
				ErrPartitionUnavailable, dataset, pl.Part)
		}
	}
	switch {
	case !reported:
		return nil, fmt.Errorf("%w: %q: no node holds it", core.ErrUnknownDataset, dataset)
	case held != 0 && held != kind:
		// held is 0 while every partition is empty: the first batch
		// that lands gives the dataset its kind.
		return nil, fmt.Errorf("%w: %q holds %v, the append is %v", core.ErrUnknownDataset, dataset, held, kind)
	}
	for i, pl := range placements {
		var last uint64
		for _, rep := range reports[i] {
			last = max(last, rep.lastSeq)
			ds.rows = max(ds.rows, rep.watermark)
		}
		pa := &partIngestState{part: pl.Part, nodes: pl.Nodes, nextSeq: last + 1, acked: make(map[string]uint64)}
		for _, addr := range pl.Nodes {
			rep, ok := reports[i][addr]
			if !ok {
				// Unreachable at sync: quarantine until catch-up proves it
				// current, and record no acked floor — a missing entry
				// reads as 0 in prune, so nothing this replica might still
				// need is dropped before its health resolves. (Assuming
				// currency here is exactly the restart bug: a router
				// rebooting mid-outage would prune batches the replica
				// still owes, then serve it as healthy.)
				r.health.missedAppend(addr)
				continue
			}
			pa.acked[addr] = rep.lastSeq
			if rep.lastSeq < last {
				// Provably behind this router's log start: quarantine.
				// Catch-up replays the gap if the log still covers it and
				// escalates to snapshot resync if not (see catchup.go).
				r.health.missedAppend(addr)
			}
		}
		ds.parts = append(ds.parts, pa)
	}
	sort.Slice(ds.parts, func(i, j int) bool { return ds.parts[i].part < ds.parts[j].part })
	return ds, nil
}

// SyncIngest discovers every appendable dataset the cluster already
// holds (a 'U' "" sweep of every topology node — SeqEntry.Kind carries
// each dataset's kind) and syncs its write-side state through
// ensureIngest. This is the router's crash-recovery boot step: a
// restarted router re-learns per-partition sequence cursors, per-
// replica acked floors, and the global tuple row watermark before it
// accepts new appends, so it never reuses a global ID range and never
// prunes a batch an unreachable replica still needs. Errors if no node
// is reachable; a partially-reachable cluster syncs what it can see
// and quarantines the rest.
func (r *Router) SyncIngest(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	kinds := make(map[string]DataKind)
	reached := 0
	for _, addr := range r.topo.Nodes {
		entries, err := r.seqStateOf(ctx, addr, "")
		if err != nil {
			continue
		}
		r.health.ok(addr)
		reached++
		for _, e := range entries {
			if e.Kind == 0 || e.Kind == KindScene {
				continue
			}
			kinds[e.Dataset] = e.Kind
		}
	}
	if reached == 0 {
		return fmt.Errorf("%w: no node reachable for ingest sync", ErrPartitionUnavailable)
	}
	names := make([]string, 0, len(kinds))
	for name := range kinds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, err := r.ensureIngest(ctx, name, kinds[name]); err != nil {
			return fmt.Errorf("cluster: ingest sync %q: %w", name, err)
		}
	}
	return nil
}

// AppendSeqs reports each dataset partition's last assigned sequence
// number, for /stats.
func (r *Router) AppendSeqs() map[string]map[int]uint64 {
	r.ing.mu.Lock()
	sets := make(map[string]*dsIngest, len(r.ing.sets))
	for name, ds := range r.ing.sets {
		sets[name] = ds
	}
	r.ing.mu.Unlock()
	out := make(map[string]map[int]uint64, len(sets))
	for name, ds := range sets {
		ds.mu.Lock()
		m := make(map[int]uint64, len(ds.parts))
		for _, pa := range ds.parts {
			pa.mu.Lock()
			m[pa.part] = pa.nextSeq - 1
			pa.mu.Unlock()
		}
		ds.mu.Unlock()
		out[name] = m
	}
	return out
}
