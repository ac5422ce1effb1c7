// Snapshot resync, the node half. When the append log no longer covers
// a stale replica's gap, the router's repair of that partition
// (repairPart, catchup.go) reinstalls it whole from a donor replica
// before replaying the log above the donor's cut. Both halves run on
// repair connections the router opens for one session and closes after
// it — never on the shared peer connection, where a train of 256 KiB
// chunks would head-of-line-block reads:
//
//   - the donor answers 'S' by locking the partition's cursor, streaming
//     its snapshot as 'D' chunks and closing with a 'Y' record of the cut;
//   - the stale replica answers 'I' by staging the forwarded chunks,
//     installing them when the donor's 'Y' arrives (forwarded as is),
//     and echoing the record it installed as 'Y'.
//
// Integrity: the chunks reassemble internal/segment's checksummed
// section format, and the receiver installs in Copy mode, which
// verifies every section's SHA-256 as it decodes; the restored row
// count must equal the record's watermark minus its offset. A corrupted,
// truncated or mislabelled transfer fails the install, the replica stays
// quarantined, and the next reconcile pass retries. Consistency: the
// router holds the partition's lock for the whole session (no new batch
// can be sequenced for it) and the donor holds its cursor lock across
// the engine snapshot, so the streamed state is exactly the cut.

package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"modelir/internal/segment"
)

// resyncChunkSize bounds one 'D' frame's data payload.
const resyncChunkSize = 256 << 10

// ---- donor side ----

// chunkWriter buffers one file's bytes into ≤resyncChunkSize frames.
type chunkWriter struct {
	c    *fconn
	name string
	buf  []byte
}

func (w *chunkWriter) Write(p []byte) (int, error) {
	total := len(p)
	for len(p) > 0 {
		if len(w.buf) >= resyncChunkSize {
			if err := w.flush(); err != nil {
				return 0, err
			}
		}
		room := min(resyncChunkSize-len(w.buf), len(p))
		w.buf = append(w.buf, p[:room]...)
		p = p[room:]
	}
	return total, nil
}

func (w *chunkWriter) flush() error {
	err := w.c.send(frameResyncChunk, 0, encodeChunk(w.name, w.buf))
	w.buf = w.buf[:0]
	return err
}

// donorBackend adapts the connection to segment.Backend for the donor
// snapshot: every file becomes a run of 'D' frames, and an empty file
// still emits one (empty) chunk so the receiver creates it. Open is
// unsupported — the stream is write-only.
type donorBackend struct {
	c *fconn
}

func (db donorBackend) WriteFile(name string, write func(io.Writer) error) error {
	cw := &chunkWriter{c: db.c, name: name}
	if err := write(cw); err != nil {
		return err
	}
	return cw.flush()
}

func (db donorBackend) Open(string) (segment.Blob, error) {
	return nil, errors.New("cluster: donor stream is write-only")
}

// captureResync locks one partition's cursor and records it. The caller
// holds the lock (unlock) across the engine snapshot of local, so the
// streamed state matches the record.
func (n *Node) captureResync(dataset string, part int) (cut SeqEntry, local string, unlock func(), err error) {
	n.mu.Lock()
	_, ok := n.parts[dataset][part]
	n.mu.Unlock()
	if !ok {
		return cut, "", nil, fmt.Errorf("cluster: resync: %q part %d not on this node", dataset, part)
	}
	pi := n.partIngest(dataset, part)
	pi.mu.Lock()
	n.mu.Lock()
	local = n.parts[dataset][part].local
	n.mu.Unlock()
	for _, e := range n.seqState(dataset) {
		if e.Part == part {
			return e, local, pi.mu.Unlock, nil
		}
	}
	pi.mu.Unlock()
	return cut, "", nil, fmt.Errorf("cluster: resync: %q part %d has no cursor to cut", dataset, part)
}

// serveResync is the donor handler for one 'S' request: cut the
// partition, stream its snapshot as 'D' chunks, finish with a 'Y'
// carrying the cut.
func (n *Node) serveResync(c *fconn, payload []byte) {
	err := func() error {
		ref, err := decodeRecord(payload)
		if err != nil {
			return err
		}
		cut, local, unlock, err := n.captureResync(ref.Dataset, ref.Part)
		if err != nil {
			return err
		}
		defer unlock()
		if local != "" {
			if err := n.eng.SnapshotDataset(context.Background(), donorBackend{c: c}, local); err != nil {
				return err
			}
		}
		return c.send(frameResyncState, 0, encodeRecord(cut))
	}()
	if err != nil {
		n.failed.Add(1)
		c.send(frameError, 0, encodeError("resync", err.Error()))
	}
}

// ---- receiver side ----

// handleInstall is the stale replica's handler for one 'I' session:
// stage the snapshot from 'D' chunks, install it when the 'Y' record
// arrives, and echo the record. It returns false when the session must
// end (an error was already reported); true leaves the connection open
// for the router's log-tail replay.
func (n *Node) handleInstall(c *fconn, payload []byte) bool {
	err := func() error {
		ref, err := decodeRecord(payload)
		if err != nil {
			return err
		}
		files := make(map[string][]byte)
		for {
			typ, _, pl, err := readFrame(c.br)
			if err != nil {
				return err
			}
			switch typ {
			case frameResyncChunk:
				name, data, err := decodeChunk(pl)
				if err != nil {
					return err
				}
				files[name] = append(files[name], data...)
			case frameResyncState:
				cut, err := decodeRecord(pl)
				if err != nil {
					return err
				}
				if cut.Dataset != ref.Dataset || cut.Part != ref.Part {
					return fmt.Errorf("cluster: install of %q part %d committed as %q part %d",
						ref.Dataset, ref.Part, cut.Dataset, cut.Part)
				}
				if err := n.installResync(files, cut); err != nil {
					return err
				}
				return c.send(frameResyncState, 0, encodeRecord(cut))
			default:
				return fmt.Errorf("%w: unexpected frame %q during resync install", ErrFrame, typ)
			}
		}
	}()
	if err != nil {
		n.failed.Add(1)
		c.send(frameError, 0, encodeError("resync", err.Error()))
		return false
	}
	return true
}

// installResync swaps one received partition in under its cursor lock,
// serializing against any in-flight append. Validation follows
// RestoreNode's discipline: the partition must be placed on this node,
// the engine-local name is the deterministic dataset#part form (a donor
// cannot graft a foreign dataset in), and the restored rows must number
// the record's watermark minus its offset — none for an empty partition,
// which must arrive with no files. The engine install verifies section
// checksums and bumps the dataset's generation (stale cache entries
// invalidate).
func (n *Node) installResync(files map[string][]byte, cut SeqEntry) error {
	n.mu.Lock()
	_, ok := n.parts[cut.Dataset][cut.Part]
	n.mu.Unlock()
	if !ok {
		return fmt.Errorf("cluster: resync install: %q part %d not placed on this node", cut.Dataset, cut.Part)
	}
	rows := cut.Watermark - cut.Offset
	if rows == 0 && len(files) > 0 {
		return fmt.Errorf("cluster: resync install: %q part %d is recorded empty but %d files arrived",
			cut.Dataset, cut.Part, len(files))
	}
	pi := n.partIngest(cut.Dataset, cut.Part)
	pi.mu.Lock()
	defer pi.mu.Unlock()
	entry := partEntry{offset: cut.Offset}
	if rows > 0 {
		mem := segment.NewMem()
		for name, data := range files {
			if err := mem.Put(name, data); err != nil {
				return err
			}
		}
		entry.local = n.localName(cut.Dataset, cut.Part)
		if err := n.eng.InstallDataset(mem, entry.local, int(rows)); err != nil {
			return err
		}
	}
	n.mu.Lock()
	n.parts[cut.Dataset][cut.Part] = entry
	n.mu.Unlock()
	pi.lastSeq.Store(cut.LastSeq)
	return nil
}

// ---- router counters ----

// routerResyncStats is the router's lifetime resync/recovery counter
// block (ResyncStats is the exported snapshot).
type routerResyncStats struct {
	resyncs       atomic.Int64
	failures      atomic.Int64
	bytesStreamed atomic.Int64
	replayed      atomic.Int64
	forcedPrunes  atomic.Int64
	catchUpErrors atomic.Int64
}

// ResyncStats is a point-in-time sample of the router's resync and
// recovery counters, surfaced through modelird's /stats.
type ResyncStats struct {
	// Resyncs counts partitions reinstalled on a replica from a donor's
	// snapshot.
	Resyncs int64 `json:"resyncs"`
	// Failures counts resync attempts that errored; the replica stays
	// quarantined and the next reconcile pass retries.
	Failures int64 `json:"failures"`
	// BytesStreamed totals the snapshot chunk bytes forwarded
	// donor→replica.
	BytesStreamed int64 `json:"bytes_streamed"`
	// ReplayedBatches counts log batches replayed to repair replicas.
	ReplayedBatches int64 `json:"replayed_batches"`
	// ForcedPrunes counts append-log records dropped by the log cap
	// before every replica acked them (each forces the lagging replica
	// through resync instead of replay).
	ForcedPrunes int64 `json:"forced_prunes"`
	// CatchUpErrors counts reconcile passes whose catch-up failed; the
	// per-peer error text is in PeerErrors.
	CatchUpErrors int64 `json:"catchup_errors"`
}

// ResyncStats samples the router's resync/recovery counters.
func (r *Router) ResyncStats() ResyncStats {
	return ResyncStats{
		Resyncs:         r.stats.resyncs.Load(),
		Failures:        r.stats.failures.Load(),
		BytesStreamed:   r.stats.bytesStreamed.Load(),
		ReplayedBatches: r.stats.replayed.Load(),
		ForcedPrunes:    r.stats.forcedPrunes.Load(),
		CatchUpErrors:   r.stats.catchUpErrors.Load(),
	}
}

// PeerErrors reports each peer's last catch-up/resync error, if any —
// a permanently stuck replica is visible here instead of silent.
func (r *Router) PeerErrors() map[string]string {
	return r.health.notes()
}

// Degraded reports whether any topology peer is currently not Healthy —
// i.e. some partition is serving with less than its full replica set.
// The cluster still answers (reads need one replica), but fault
// tolerance is reduced; modelird's router /healthz surfaces this as
// "degraded" with a 200 status.
func (r *Router) Degraded() bool {
	for _, st := range r.PeerHealth() {
		if st != Healthy {
			return true
		}
	}
	return false
}
