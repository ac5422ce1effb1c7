// Catch-up: the road out of quarantine. A stale replica missed one or
// more append batches; because every partition's appends carry
// monotone sequence numbers and the router keeps each unacked batch's
// encoded frame in its per-partition log, the repair is exact — ask the
// replica for its cursor ('U'), replay precisely the logged batches
// above it ('A', acked one by one), and the node's idempotent cursor
// makes re-replaying an already-applied batch a no-op. Only when every
// partition the replica owns is provably current — and no new batch was
// missed while verifying (the quarantine generation) — does the health
// tracker re-admit it.
//
// If the log no longer covers the replica's gap (the records were
// pruned, or the log cap forced them out), replay alone cannot repair
// it: CatchUp escalates to the snapshot resync path (resync.go), which
// streams the owed partitions whole from a healthy donor and then
// replays the remaining log tail. The replica always converges without
// operator action as long as one healthy donor replica exists.
//
// The same exchange doubles as the router's crash recovery: a replica
// whose cursor is *ahead* of the router's (the router restarted and
// re-learned state while this replica was unreachable) has its cursor
// and row watermark adopted, so a recovered router never reuses a
// sequence number or a global tuple ID range.

package cluster

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// catchUpPasses bounds CatchUp's verify loop: each pass replays or
// resyncs every owed partition, and a pass that ends with the
// quarantine generation unchanged lifts the quarantine. More passes
// are only needed when appends keep landing mid-verification.
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
// must stay off the shared peer connection: catch-up's log replay and
// the resync transfers. The caller owns the socket alone, so it reads
// replies inline and bounds each exchange with a deadline.
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
	rep, err, _ := r.roundTrip(ctx, addr, frameHealth, nil, nil, 0, r.opt.AckTimeout)
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
	rep, err, _ := r.roundTrip(ctx, addr, frameSeqState, encodeSeqStateReq(dataset), nil, 0, r.opt.AckTimeout)
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

// CatchUp brings addr current on every partition it owns and, if the
// quarantine generation did not move while verifying, re-admits it.
// Partitions whose log no longer covers the replica's gap escalate to
// snapshot resync. Safe to call on a healthy replica (the replay set is
// empty) and idempotent on a stale one.
func (r *Router) CatchUp(ctx context.Context, addr string) error {
	for pass := 0; pass < catchUpPasses; pass++ {
		gen := r.health.quarantineGen(addr)
		r.ing.mu.Lock()
		sets := make(map[string]*dsIngest, len(r.ing.sets))
		for name, ds := range r.ing.sets {
			sets[name] = ds
		}
		r.ing.mu.Unlock()

		var owed []owedPart
		for name, ds := range sets {
			ds.mu.Lock()
			synced := ds.synced
			parts := ds.parts
			ds.mu.Unlock()
			if !synced {
				continue
			}
			var high int64
			for _, pa := range parts {
				owns := false
				for _, n := range pa.nodes {
					if n == addr {
						owns = true
						break
					}
				}
				if !owns {
					continue
				}
				res, err := r.catchUpPart(ctx, addr, name, pa)
				if errors.Is(err, ErrLogPruned) {
					owed = append(owed, owedPart{dataset: name, pa: pa})
					continue
				}
				if err != nil {
					return err
				}
				if res.watermark > high {
					high = res.watermark
				}
			}
			// Ratchet the global tuple row counter to the highest
			// watermark any owned partition reported: after a router
			// restart a re-appearing replica may know of rows this router
			// never sequenced, and a fresh append must not reuse their
			// IDs. (Outside pa.mu — AppendSeqs nests ds.mu→pa.mu, never
			// the reverse.)
			ds.mu.Lock()
			if high > ds.rows {
				ds.rows = high
			}
			ds.mu.Unlock()
		}

		if len(owed) > 0 {
			r.health.startResync(addr)
			if err := r.resyncPeer(ctx, addr, owed); err != nil {
				return err
			}
			continue // verify the repair with a fresh pass
		}
		if r.health.caughtUp(addr, gen) {
			return nil
		}
		// Another batch was missed mid-verification; close the new gap.
	}
	return fmt.Errorf("cluster: %s still behind after %d catch-up passes", addr, catchUpPasses)
}

// catchUpResult reports one partition's catch-up outcome.
type catchUpResult struct {
	replayed  int
	watermark int64
}

// catchUpPart brings addr current on one partition: its cursor is read
// over the peer's connection, and a gap is replayed over a repair
// connection. It holds the partition lock across both so no new batch
// can interleave; appends to other partitions proceed. A pruned gap
// returns ErrLogPruned for the caller to escalate.
func (r *Router) catchUpPart(ctx context.Context, addr, dataset string, pa *partIngestState) (catchUpResult, error) {
	pa.mu.Lock()
	defer pa.mu.Unlock()

	entries, err := r.seqStateOf(ctx, addr, dataset)
	if err != nil {
		return catchUpResult{}, err
	}
	var lastSeq uint64
	var watermark int64
	for _, e := range entries {
		if e.Dataset == dataset && e.Part == pa.part {
			lastSeq, watermark = e.LastSeq, e.Watermark
			break
		}
	}
	want := pa.nextSeq - 1
	if lastSeq >= want {
		if lastSeq > want {
			// The replica is ahead of this router: batches sequenced by a
			// previous router incarnation landed here while this one was
			// syncing. Adopt its cursor so new appends continue above it.
			pa.nextSeq = lastSeq + 1
		}
		pa.acked[addr] = lastSeq
		pa.prune()
		return catchUpResult{watermark: watermark}, nil
	}
	if len(pa.log) == 0 || pa.log[0].seq > lastSeq+1 {
		first := pa.nextSeq
		if len(pa.log) > 0 {
			first = pa.log[0].seq
		}
		return catchUpResult{}, fmt.Errorf("%w: %s needs %q part %d seq %d, log starts at %d",
			ErrLogPruned, addr, dataset, pa.part, lastSeq+1, first)
	}
	fc, err := r.dialRepair(ctx, addr)
	if err != nil {
		r.health.fault(addr)
		return catchUpResult{}, err
	}
	defer fc.c.Close()
	replayed, err := r.replayLog(ctx, fc, addr, pa, lastSeq)
	if err != nil {
		return catchUpResult{}, err
	}
	pa.acked[addr] = want
	pa.prune()
	return catchUpResult{replayed: replayed, watermark: watermark}, nil
}

// replayLog replays every logged batch above fromSeq to addr on its
// repair connection, acked one by one. Caller holds pa.mu. Shared by log
// catch-up and the post-install tail replay of a snapshot resync.
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
// and walk any reachable quarantined replica through catch-up (which
// escalates to snapshot resync when the log no longer covers its gap).
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
