// Repair: the road out of quarantine. A stale replica missed one or
// more append batches. Every partition's appends carry monotone
// sequence numbers, and the router keeps each batch's encoded frame in
// the partition's log until every replica acked it, so the repair is
// exact and runs one partition at a time under that partition's lock:
// ask the replica for its cursor ('U'); if the log no longer covers the
// gap above it (the records were pruned, or the log cap forced them
// out), reinstall the partition from a donor's snapshot first (resync,
// the node half in resync.go), which moves the cursor to the donor's
// cut; then replay the logged batches above the cursor ('A', acked one
// by one). The node's idempotent cursor makes re-replaying an
// already-applied batch a no-op. Only when every partition the replica
// owns is provably current — and no new batch was missed while
// verifying (the quarantine generation) — does the health tracker
// re-admit it. The replica converges without operator action as long as
// one healthy donor replica exists.
//
// The same exchange doubles as the router's crash recovery: a replica
// whose cursor is *ahead* of the router's (the router restarted and
// re-learned state while this replica was unreachable) has its cursor
// and row watermark adopted, so a recovered router never reuses a
// sequence number or a global tuple ID range.

package cluster

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"time"
)

// catchUpPasses bounds CatchUp's verify loop: each pass repairs every
// owned partition, and a pass that ends with the quarantine generation
// unchanged lifts the quarantine. More passes are only needed when
// appends keep landing mid-verification.
const catchUpPasses = 5

// ackDeadline converts the ack timeout into an absolute connection
// deadline, honoring an earlier ctx deadline.
func ackDeadline(ctx context.Context, timeout time.Duration) time.Time {
	dl := time.Now().Add(timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(dl) {
		return d
	}
	return dl
}

// dialRepair opens a short-lived repair connection for bulk traffic that
// must stay off the shared peer connection: log replay and snapshot
// transfers. The caller owns the socket alone, so it reads replies
// inline and bounds each exchange with a deadline.
func (r *Router) dialRepair(ctx context.Context, addr string) (*fconn, error) {
	conn, err := r.dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	_ = conn.SetDeadline(ackDeadline(ctx, r.opt.AckTimeout))
	return newFconn(conn, 0), nil
}

// Probe checks liveness: one 'H' stream on the peer's connection,
// echoed back within AckTimeout. Success feeds the health tracker (ok
// can lift Down back to Healthy; it never lifts Stale — reachability is
// not consistency); a failure was already counted by the transport.
func (r *Router) Probe(ctx context.Context, addr string) error {
	rep, err, _ := r.roundTrip(ctx, addr, frameHealth, nil, r.opt.AckTimeout)
	if err != nil {
		return err
	}
	if rep.typ != frameHealth {
		r.health.fault(addr)
		return fmt.Errorf("%w: probe answered %q", ErrFrame, rep.typ)
	}
	r.health.ok(addr)
	return nil
}

// seqStateOf asks addr for its append cursors (a 'U' stream on the
// peer's connection). dataset filters to one dataset; "" asks for all.
func (r *Router) seqStateOf(ctx context.Context, addr, dataset string) ([]SeqEntry, error) {
	rep, err, _ := r.roundTrip(ctx, addr, frameSeqState, encodeSeqStateReq(dataset), r.opt.AckTimeout)
	switch {
	case err != nil:
		return nil, err
	case rep.typ == frameSeqState:
		return decodeSeqState(rep.payload)
	case rep.typ == frameError:
		return nil, remoteError(addr, rep.payload)
	default:
		return nil, fmt.Errorf("%w: unexpected frame %q", ErrFrame, rep.typ)
	}
}

// cursorOf is addr's record of one partition; a partition the node
// reports nothing for reads as never appended to.
func (r *Router) cursorOf(ctx context.Context, addr, dataset string, part int) (SeqEntry, error) {
	entries, err := r.seqStateOf(ctx, addr, dataset)
	for _, e := range entries {
		if e.Dataset == dataset && e.Part == part {
			return e, nil
		}
	}
	return SeqEntry{Dataset: dataset, Part: part}, err
}

// CatchUp brings addr current on every partition it owns and, if the
// quarantine generation did not move while verifying, re-admits it.
// Safe to call on a healthy replica (nothing replays) and idempotent on
// a stale one.
func (r *Router) CatchUp(ctx context.Context, addr string) error {
	for pass := 0; pass < catchUpPasses; pass++ {
		gen := r.health.quarantineGen(addr)
		r.ing.mu.Lock()
		sets := make(map[string]*dsIngest, len(r.ing.sets))
		for name, ds := range r.ing.sets {
			sets[name] = ds
		}
		r.ing.mu.Unlock()

		for name, ds := range sets {
			ds.mu.Lock()
			parts := ds.parts
			ds.mu.Unlock()
			var high int64
			for _, pa := range parts {
				if !slices.Contains(pa.nodes, addr) {
					continue
				}
				rec, err := r.repairPart(ctx, addr, name, pa)
				if err != nil {
					return err
				}
				high = max(high, rec.Watermark)
			}
			// Ratchet the global tuple row counter to the highest
			// watermark any owned partition reported: after a router
			// restart a re-appearing replica may know of rows this router
			// never sequenced, and a fresh append must not reuse their
			// IDs. (Outside pa.mu — appends nest ds.mu→pa.mu, never the
			// reverse.)
			ds.mu.Lock()
			ds.rows = max(ds.rows, high)
			ds.mu.Unlock()
		}
		if r.health.caughtUp(addr, gen) {
			return nil
		}
		// Another batch was missed mid-verification; close the new gap.
	}
	return fmt.Errorf("cluster: %s still behind after %d catch-up passes", addr, catchUpPasses)
}

// repairPart brings addr current on one partition and returns its
// record. It holds the partition lock throughout, so no new batch can
// interleave; appends to other partitions proceed. The cursor is read
// over the peer's connection; a replica behind the router gets a repair
// connection, on which a gap the log no longer covers is first closed
// by resync and the log above the cursor then replays.
func (r *Router) repairPart(ctx context.Context, addr, dataset string, pa *partIngestState) (SeqEntry, error) {
	pa.mu.Lock()
	defer pa.mu.Unlock()

	rec, err := r.cursorOf(ctx, addr, dataset, pa.part)
	if err != nil {
		return rec, err
	}
	if rec.LastSeq < pa.nextSeq-1 {
		fc, err := r.dialRepair(ctx, addr)
		if err != nil {
			r.health.fault(addr)
			return rec, err
		}
		defer fc.c.Close()
		if len(pa.log) == 0 || pa.log[0].seq > rec.LastSeq+1 {
			r.health.startResync(addr)
			if rec, err = r.resync(ctx, fc, addr, pa, rec); err != nil {
				r.stats.failures.Add(1)
				return rec, fmt.Errorf("cluster: resync %s %q part %d: %w", addr, dataset, pa.part, err)
			}
		}
		replayed, err := r.replayLog(ctx, fc, addr, pa, rec.LastSeq)
		r.stats.replayed.Add(int64(replayed))
		if err != nil {
			return rec, err
		}
	}
	// The replica now holds every batch this router sequenced. One whose
	// cursor is ahead holds batches a previous router incarnation
	// sequenced while this one was syncing: adopt its cursor so new
	// appends continue above it.
	pa.nextSeq = max(pa.nextSeq, rec.LastSeq+1)
	pa.acked[addr] = pa.nextSeq - 1
	pa.prune()
	return rec, nil
}

// resync reinstalls one partition on addr from its first servable
// replica in placement order, the donor. The donor cuts the partition
// and streams its snapshot as 'D' chunks, which go out verbatim on
// addr's repair connection sc (the router never materializes the
// snapshot); the donor's closing 'Y' record, forwarded as is, commits
// the install, and addr echoes the record it installed. The caller
// holds pa.mu. It returns the installed record.
func (r *Router) resync(ctx context.Context, sc *fconn, addr string, pa *partIngestState, stale SeqEntry) (SeqEntry, error) {
	donor := ""
	for _, cand := range pa.nodes {
		if cand != addr && r.health.servable(cand) {
			donor = cand
			break
		}
	}
	if donor == "" {
		return stale, fmt.Errorf("%w: no healthy donor", ErrPartitionUnavailable)
	}
	dc, err := r.dialRepair(ctx, donor)
	if err != nil {
		r.health.fault(donor)
		return stale, err
	}
	defer dc.c.Close()
	ref := encodeRecord(SeqEntry{Dataset: stale.Dataset, Part: stale.Part})
	if err := dc.send(frameResyncReq, 0, ref); err != nil {
		r.health.fault(donor)
		return stale, err
	}
	if err := sc.send(frameInstall, 0, ref); err != nil {
		r.health.fault(addr)
		return stale, err
	}

	// Pump: donor chunks forward verbatim until the donor's 'Y'.
	var streamed int64
	for {
		_ = dc.c.SetDeadline(ackDeadline(ctx, r.opt.AckTimeout))
		_ = sc.c.SetDeadline(ackDeadline(ctx, r.opt.AckTimeout))
		typ, _, pl, err := readFrame(dc.br)
		if err != nil {
			r.health.fault(donor)
			return stale, err
		}
		switch typ {
		case frameResyncChunk, frameResyncState:
		case frameError:
			return stale, remoteError(donor, pl)
		default:
			return stale, fmt.Errorf("%w: unexpected frame %q from resync donor", ErrFrame, typ)
		}
		if err := sc.send(typ, 0, pl); err != nil {
			r.health.fault(addr)
			return stale, err
		}
		if typ == frameResyncChunk {
			streamed += int64(len(pl))
			continue
		}
		r.stats.bytesStreamed.Add(streamed)
		return r.installed(ctx, sc, addr, pl, stale)
	}
}

// installed reads the stale replica's answer to the forwarded cut: the
// same record echoed, or the install's error.
func (r *Router) installed(ctx context.Context, sc *fconn, addr string, cut []byte, stale SeqEntry) (SeqEntry, error) {
	_ = sc.c.SetDeadline(ackDeadline(ctx, r.opt.AckTimeout))
	typ, _, pl, err := readFrame(sc.br)
	switch {
	case err != nil:
		r.health.fault(addr)
		return stale, err
	case typ == frameError:
		return stale, remoteError(addr, pl)
	case typ != frameResyncState || !bytes.Equal(pl, cut):
		return stale, fmt.Errorf("%w: install answered %q, not the forwarded cut", ErrFrame, typ)
	}
	rec, err := decodeRecord(pl)
	if err != nil {
		return stale, err
	}
	r.stats.resyncs.Add(1)
	return rec, nil
}

// replayLog replays every logged batch above fromSeq to addr on its
// repair connection, acked one by one. Caller holds pa.mu.
func (r *Router) replayLog(ctx context.Context, fc *fconn, addr string, pa *partIngestState, fromSeq uint64) (int, error) {
	replayed := 0
	for _, rec := range pa.log {
		if rec.seq <= fromSeq {
			continue
		}
		// Refresh the deadline per batch so a long replay doesn't trip
		// the ack timeout.
		_ = fc.c.SetDeadline(ackDeadline(ctx, r.opt.AckTimeout))
		if err := fc.send(frameAppend, 0, rec.payload); err != nil {
			r.health.fault(addr)
			return replayed, err
		}
		typ, _, payload, err := readFrame(fc.br)
		if err != nil {
			r.health.fault(addr)
			return replayed, err
		}
		if _, err := parseAppendAck(addr, typ, payload, rec.seq); err != nil {
			return replayed, err
		}
		replayed++
	}
	return replayed, nil
}

// Reconcile runs one health pass over every topology peer: probe each,
// and walk any reachable quarantined replica through catch-up.
// A catch-up failure keeps the replica quarantined, counts in
// ResyncStats, and records the error against the peer for /stats. It
// returns the post-pass health map.
func (r *Router) Reconcile(ctx context.Context) map[string]HealthState {
	for _, addr := range r.topo.Nodes {
		if err := r.Probe(ctx, addr); err != nil {
			continue
		}
		if st := r.health.state(addr); st == Stale || st == Resyncing {
			if err := r.CatchUp(ctx, addr); err != nil {
				r.stats.catchUpErrors.Add(1)
				r.health.noteErr(addr, err)
			}
		}
	}
	return r.PeerHealth()
}

// StartHealthLoop runs Reconcile every interval until Close. Starting
// an already-running loop is a no-op.
func (r *Router) StartHealthLoop(interval time.Duration) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	r.loopMu.Lock()
	defer r.loopMu.Unlock()
	if r.loopStop != nil {
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	r.loopStop, r.loopDone = stop, done
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				ctx, cancel := context.WithTimeout(context.Background(), interval)
				r.Reconcile(ctx)
				cancel()
			}
		}
	}()
}

// Close stops the health loop, closes every peer connection (failing
// the calls in flight on them) and returns once the connections' reader
// goroutines have exited. A closed router refuses further calls.
func (r *Router) Close() error {
	r.loopMu.Lock()
	stop, done := r.loopStop, r.loopDone
	r.loopStop, r.loopDone = nil, nil
	r.loopMu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	for _, p := range r.peers {
		p.close()
	}
	return nil
}
