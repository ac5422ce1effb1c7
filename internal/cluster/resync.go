// Snapshot anti-entropy: the escalation path when catch-up finds that
// a replica's missed batches were pruned from the append log. Log
// replay cannot repair such a replica, so the router streams it a full
// consistent snapshot of exactly the partitions it owes, taken from a
// healthy donor replica, then replays the remaining log tail — all
// under the partition locks, so the donor cut, the install, and the
// replay form one linearizable repair.
//
// Five frame types extend the ingest protocol. They travel on repair
// connections the router opens for one transfer and closes after it —
// never on the shared peer connection, where a train of 256 KiB chunks
// would head-of-line-block reads:
//
//	'S' resync-request router → donor: the (dataset, part) list to
//	                   snapshot; the donor locks those partitions'
//	                   cursors and streams the snapshot
//	'D' chunk          donor → router → stale: one piece of one
//	                   snapshot file (name + bytes, ≤256 KiB); the
//	                   router forwards frames verbatim, never
//	                   materializing the snapshot
//	'Y' resync-state   donor → router: per-partition cursors captured
//	                   at the cut, after the last chunk; also the
//	                   stale replica's install ack (echoed cursors)
//	'I' install        router → stale: begin receiving a snapshot for
//	                   the listed partitions
//	'J' install-commit router → stale: all chunks forwarded; install
//	                   under these cursors
//
// Integrity: the chunks reassemble internal/segment's checksummed
// section format, and the receiver installs in Copy mode, which
// verifies every section's SHA-256 as it decodes — a corrupted or
// truncated transfer fails the install, the replica stays quarantined,
// and the next reconcile pass retries. Consistency: the router holds
// every owed partition's lock for the whole transfer (no new batch can
// be sequenced for them) and the donor holds its local cursor locks
// across the engine snapshot, so the streamed state corresponds
// exactly to the reported cursors. Donor selection is placement order:
// the first servable replica of each owed partition; partitions that
// share a donor transfer over one pair of repair connections.

package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync/atomic"

	"modelir/internal/canon"
	"modelir/internal/segment"
)

// Resync frame types (ingest frames are in ingestwire.go, query frames
// in wire.go).
const (
	frameResyncReq   = 'S' // router → donor: partitions to snapshot
	frameResyncChunk = 'D' // donor → router → stale: one snapshot-file chunk
	frameResyncState = 'Y' // donor → router: cursors at the cut; stale → router: install ack
	frameInstall     = 'I' // router → stale: begin snapshot install
	frameInstallDone = 'J' // router → stale: chunks done, commit under these cursors
)

// resyncChunkSize bounds one 'D' frame's data payload.
const resyncChunkSize = 256 << 10

// ErrLogPruned reports that a replica's missed batches are no longer
// in the append log — catch-up replay cannot repair it and the
// snapshot resync path must run instead.
var ErrLogPruned = errors.New("cluster: append log pruned past replica cursor")

// partRef names one partition in an 'S'/'I' request.
type partRef struct {
	Dataset string
	Part    int
}

func encodePartRefs(refs []partRef) []byte {
	b := []byte{wireVersion}
	b = canon.AppendUint(b, uint64(len(refs)))
	for _, ref := range refs {
		b = canon.AppendString(b, ref.Dataset)
		b = canon.AppendUint(b, uint64(ref.Part))
	}
	return b
}

func decodePartRefs(payload []byte) ([]partRef, error) {
	r := canon.NewReader(payload)
	v, err := r.Byte()
	if err != nil {
		return nil, err
	}
	if v != wireVersion {
		return nil, fmt.Errorf("%w: wire version %d", canon.ErrCorrupt, v)
	}
	// A ref is at least a name length plus a part number.
	n, err := r.Count(16)
	if err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("%w: empty resync request", canon.ErrCorrupt)
	}
	out := make([]partRef, n)
	for i := range out {
		if out[i].Dataset, err = r.String(); err != nil {
			return nil, err
		}
		part, err := r.Uint()
		if err != nil {
			return nil, err
		}
		if part > 1<<31 {
			return nil, canon.ErrCorrupt
		}
		out[i].Part = int(part)
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", canon.ErrCorrupt, r.Remaining())
	}
	return out, nil
}

// resyncEntry is one partition's cursor record in a 'Y'/'J' payload:
// the engine-local dataset backing it ("" for an empty partition), the
// tuple ID offset, and the last applied sequence number at the cut.
type resyncEntry struct {
	Dataset string
	Part    int
	Local   string
	Offset  int64
	LastSeq uint64
}

func encodeResyncEntries(entries []resyncEntry) []byte {
	b := []byte{wireVersion}
	b = canon.AppendUint(b, uint64(len(entries)))
	for _, e := range entries {
		b = canon.AppendString(b, e.Dataset)
		b = canon.AppendUint(b, uint64(e.Part))
		b = canon.AppendString(b, e.Local)
		b = canon.AppendUint(b, uint64(e.Offset))
		b = canon.AppendUint(b, e.LastSeq)
	}
	return b
}

func decodeResyncEntries(payload []byte) ([]resyncEntry, error) {
	r := canon.NewReader(payload)
	v, err := r.Byte()
	if err != nil {
		return nil, err
	}
	if v != wireVersion {
		return nil, fmt.Errorf("%w: wire version %d", canon.ErrCorrupt, v)
	}
	// An entry is at least two name lengths plus three fixed ints.
	n, err := r.Count(40)
	if err != nil {
		return nil, err
	}
	out := make([]resyncEntry, n)
	for i := range out {
		if out[i].Dataset, err = r.String(); err != nil {
			return nil, err
		}
		part, err := r.Uint()
		if err != nil {
			return nil, err
		}
		if part > 1<<31 {
			return nil, canon.ErrCorrupt
		}
		out[i].Part = int(part)
		if out[i].Local, err = r.String(); err != nil {
			return nil, err
		}
		off, err := r.Uint()
		if err != nil {
			return nil, err
		}
		if off > 1<<62 {
			return nil, canon.ErrCorrupt
		}
		out[i].Offset = int64(off)
		if out[i].LastSeq, err = r.Uint(); err != nil {
			return nil, err
		}
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", canon.ErrCorrupt, r.Remaining())
	}
	return out, nil
}

// encodeResyncChunk frames one piece of one snapshot file. The data
// bytes follow the name with no further framing: the decoder takes
// everything after the name, so chunks cost no per-byte overhead.
func encodeResyncChunk(name string, data []byte) []byte {
	b := []byte{wireVersion}
	b = canon.AppendString(b, name)
	return append(b, data...)
}

func decodeResyncChunk(payload []byte) (name string, data []byte, err error) {
	r := canon.NewReader(payload)
	v, err := r.Byte()
	if err != nil {
		return "", nil, err
	}
	if v != wireVersion {
		return "", nil, fmt.Errorf("%w: wire version %d", canon.ErrCorrupt, v)
	}
	if name, err = r.String(); err != nil {
		return "", nil, err
	}
	return name, payload[len(payload)-r.Remaining():], nil
}

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
		room := resyncChunkSize - len(w.buf)
		if room > len(p) {
			room = len(p)
		}
		w.buf = append(w.buf, p[:room]...)
		p = p[room:]
	}
	return total, nil
}

func (w *chunkWriter) flush() error {
	err := w.c.send(frameResyncChunk, 0, encodeResyncChunk(w.name, w.buf))
	w.buf = w.buf[:0]
	return err
}

// captureResync locks the requested partitions' cursors (sorted order,
// so concurrent transfers cannot deadlock) and records their entries.
// The returned unlock releases them; the caller holds the locks across
// the engine snapshot so the streamed state matches the cursors.
func (n *Node) captureResync(refs []partRef) (entries []resyncEntry, locals []string, unlock func(), err error) {
	sorted := append([]partRef(nil), refs...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Dataset != sorted[j].Dataset {
			return sorted[i].Dataset < sorted[j].Dataset
		}
		return sorted[i].Part < sorted[j].Part
	})
	var pis []*partIngest
	unlock = func() {
		for _, pi := range pis {
			pi.mu.Unlock()
		}
	}
	for _, ref := range sorted {
		n.mu.Lock()
		entry, ok := n.parts[ref.Dataset][ref.Part]
		n.mu.Unlock()
		if !ok {
			unlock()
			return nil, nil, nil, fmt.Errorf("cluster: resync: %q part %d not on this node", ref.Dataset, ref.Part)
		}
		pi := n.partIngest(ref.Dataset, ref.Part)
		pi.mu.Lock()
		pis = append(pis, pi)
		entries = append(entries, resyncEntry{
			Dataset: ref.Dataset, Part: ref.Part,
			Local: entry.local, Offset: entry.offset, LastSeq: pi.lastSeq.Load(),
		})
		if entry.local != "" {
			locals = append(locals, entry.local)
		}
	}
	return entries, locals, unlock, nil
}

// serveResync is the donor handler for one 'S' request: capture the
// partitions' cursors, stream their snapshot as 'D' chunks, finish
// with a 'Y' carrying the cursors.
func (n *Node) serveResync(c *fconn, payload []byte) {
	refs, err := decodePartRefs(payload)
	if err != nil {
		n.failed.Add(1)
		c.send(frameError, 0, encodeError("bad-resync", err.Error()))
		return
	}
	entries, locals, unlock, err := n.captureResync(refs)
	if err != nil {
		n.failed.Add(1)
		c.send(frameError, 0, encodeError("resync", err.Error()))
		return
	}
	defer unlock()
	if len(locals) > 0 {
		if err := n.eng.SnapshotDatasets(context.Background(), donorBackend{c: c}, locals); err != nil {
			n.failed.Add(1)
			c.send(frameError, 0, encodeError("resync", err.Error()))
			return
		}
	}
	c.send(frameResyncState, 0, encodeResyncEntries(entries))
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

// ---- receiver side ----

// handleInstall is the stale replica's receiver: accumulate the
// snapshot from 'D' chunks, install it when the 'J' commit arrives,
// and ack with 'Y'. Returns false when the session must end (error
// already reported); true leaves the session open for the router's
// log-tail replay.
func (n *Node) handleInstall(c *fconn, payload []byte) bool {
	refs, err := decodePartRefs(payload)
	if err != nil {
		n.failed.Add(1)
		c.send(frameError, 0, encodeError("bad-resync", err.Error()))
		return false
	}
	files := make(map[string][]byte)
	var entries []resyncEntry
receive:
	for {
		typ, _, pl, err := readFrame(c.br)
		if err != nil {
			return false
		}
		switch typ {
		case frameResyncChunk:
			name, data, err := decodeResyncChunk(pl)
			if err != nil {
				n.failed.Add(1)
				c.send(frameError, 0, encodeError("bad-resync", err.Error()))
				return false
			}
			files[name] = append(files[name], data...)
		case frameInstallDone:
			if entries, err = decodeResyncEntries(pl); err != nil {
				n.failed.Add(1)
				c.send(frameError, 0, encodeError("bad-resync", err.Error()))
				return false
			}
			break receive
		default:
			n.failed.Add(1)
			c.send(frameError, 0, encodeError("bad-frame",
				fmt.Sprintf("unexpected frame %q during resync install", typ)))
			return false
		}
	}
	mem := segment.NewMem()
	for name, data := range files {
		if err := mem.Put(name, data); err != nil {
			n.failed.Add(1)
			c.send(frameError, 0, encodeError("bad-resync", err.Error()))
			return false
		}
	}
	if err := n.installResync(mem, refs, entries); err != nil {
		n.failed.Add(1)
		c.send(frameError, 0, encodeError("resync", err.Error()))
		return false
	}
	return c.send(frameResyncState, 0, encodeResyncEntries(entries)) == nil
}

// installResync swaps the received snapshot in. Validation follows
// RestoreNode's discipline: every entry must answer a requested
// partition this node actually holds under the boot topology, and
// local names must be the deterministic dataset#part form, so a donor
// cannot graft a foreign dataset in. The partition cursor locks are
// held across the engine swap, serializing against any in-flight
// append; the engine install verifies section checksums and bumps
// dataset generations (stale cache entries invalidate).
func (n *Node) installResync(b segment.Backend, refs []partRef, entries []resyncEntry) error {
	wanted := make(map[partRef]bool, len(refs))
	for _, ref := range refs {
		wanted[ref] = true
	}
	for _, e := range entries {
		ref := partRef{Dataset: e.Dataset, Part: e.Part}
		if !wanted[ref] {
			return fmt.Errorf("cluster: resync entry %q part %d was not requested", e.Dataset, e.Part)
		}
		delete(wanted, ref)
		if e.Local != "" && e.Local != n.localName(e.Dataset, e.Part) {
			return fmt.Errorf("cluster: resync entry %q part %d names local %q, want %q",
				e.Dataset, e.Part, e.Local, n.localName(e.Dataset, e.Part))
		}
		n.mu.Lock()
		_, ok := n.parts[e.Dataset][e.Part]
		n.mu.Unlock()
		if !ok {
			return fmt.Errorf("cluster: resync install: %q part %d not placed on this node", e.Dataset, e.Part)
		}
	}
	if len(wanted) > 0 {
		return fmt.Errorf("cluster: resync commit covers %d of %d requested partitions", len(entries), len(refs))
	}

	sorted := append([]resyncEntry(nil), entries...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Dataset != sorted[j].Dataset {
			return sorted[i].Dataset < sorted[j].Dataset
		}
		return sorted[i].Part < sorted[j].Part
	})
	pis := make([]*partIngest, len(sorted))
	for i, e := range sorted {
		pis[i] = n.partIngest(e.Dataset, e.Part)
		pis[i].mu.Lock()
	}
	defer func() {
		for _, pi := range pis {
			pi.mu.Unlock()
		}
	}()

	var locals []string
	for _, e := range sorted {
		if e.Local != "" {
			locals = append(locals, e.Local)
		}
	}
	if len(locals) > 0 {
		if err := n.eng.InstallDatasets(b, locals); err != nil {
			return err
		}
	}
	n.mu.Lock()
	for _, e := range sorted {
		n.parts[e.Dataset][e.Part] = partEntry{local: e.Local, offset: e.Offset}
	}
	n.mu.Unlock()
	for i, e := range sorted {
		pis[i].lastSeq.Store(e.LastSeq)
	}
	return nil
}

// ---- router side ----

// routerResyncStats is the router's lifetime resync/recovery counter
// block (ResyncStats is the exported snapshot).
type routerResyncStats struct {
	resyncs       atomic.Int64
	failures      atomic.Int64
	bytesStreamed atomic.Int64
	partitions    atomic.Int64
	replayed      atomic.Int64
	forcedPrunes  atomic.Int64
	catchUpErrors atomic.Int64
}

// ResyncStats is a point-in-time sample of the router's resync and
// recovery counters, surfaced through modelird's /stats.
type ResyncStats struct {
	// Resyncs counts completed donor→replica snapshot transfers (one
	// per donor session, possibly covering several partitions).
	Resyncs int64 `json:"resyncs"`
	// Failures counts resync attempts that errored; the replica stays
	// quarantined and the next reconcile pass retries.
	Failures int64 `json:"failures"`
	// BytesStreamed totals the snapshot chunk bytes forwarded
	// donor→replica.
	BytesStreamed int64 `json:"bytes_streamed"`
	// Partitions counts partitions repaired by snapshot install.
	Partitions int64 `json:"partitions"`
	// ReplayedBatches counts log-tail batches replayed after installs.
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
		Partitions:      r.stats.partitions.Load(),
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

// owedPart is one partition whose log no longer covers a stale
// replica's gap.
type owedPart struct {
	dataset string
	pa      *partIngestState
}

// resyncPeer repairs addr's owed partitions by snapshot transfer,
// grouping them by donor (the first servable replica of each, in
// placement order) so partitions sharing a donor move in one session.
func (r *Router) resyncPeer(ctx context.Context, addr string, owed []owedPart) error {
	groups := make(map[string][]owedPart)
	for _, op := range owed {
		donor := ""
		for _, cand := range op.pa.nodes {
			if cand != addr && r.health.servable(cand) {
				donor = cand
				break
			}
		}
		if donor == "" {
			return fmt.Errorf("%w: %q part %d: no healthy donor for resync",
				ErrPartitionUnavailable, op.dataset, op.pa.part)
		}
		groups[donor] = append(groups[donor], op)
	}
	donors := make([]string, 0, len(groups))
	for donor := range groups {
		donors = append(donors, donor)
	}
	sort.Strings(donors)
	for _, donor := range donors {
		if err := r.resyncFromDonor(ctx, addr, donor, groups[donor]); err != nil {
			r.stats.failures.Add(1)
			return fmt.Errorf("cluster: resync %s from %s: %w", addr, donor, err)
		}
	}
	return nil
}

// resyncFromDonor runs one donor session: lock the owed partitions
// (sorted — concurrent resyncs cannot deadlock), request the donor
// snapshot, forward its chunks to the stale replica, commit the
// install, then replay each partition's remaining log tail on the same
// connection and mark the replica acked through the latest batch.
func (r *Router) resyncFromDonor(ctx context.Context, addr, donor string, owed []owedPart) error {
	sort.Slice(owed, func(i, j int) bool {
		if owed[i].dataset != owed[j].dataset {
			return owed[i].dataset < owed[j].dataset
		}
		return owed[i].pa.part < owed[j].pa.part
	})
	for _, op := range owed {
		op.pa.mu.Lock()
	}
	defer func() {
		for _, op := range owed {
			op.pa.mu.Unlock()
		}
	}()

	refs := make([]partRef, len(owed))
	for i, op := range owed {
		refs[i] = partRef{Dataset: op.dataset, Part: op.pa.part}
	}
	dc, err := r.dialRepair(ctx, donor)
	if err != nil {
		r.health.fault(donor)
		return err
	}
	defer dc.c.Close()
	sc, err := r.dialRepair(ctx, addr)
	if err != nil {
		r.health.fault(addr)
		return err
	}
	defer sc.c.Close()
	if err := dc.send(frameResyncReq, 0, encodePartRefs(refs)); err != nil {
		r.health.fault(donor)
		return err
	}
	if err := sc.send(frameInstall, 0, encodePartRefs(refs)); err != nil {
		r.health.fault(addr)
		return err
	}

	// Pump: donor chunks forward verbatim until the donor's 'Y'.
	var entries []resyncEntry
	var streamed int64
	for entries == nil {
		_ = dc.c.SetDeadline(ackDeadline(ctx, r.opt.AckTimeout))
		_ = sc.c.SetDeadline(ackDeadline(ctx, r.opt.AckTimeout))
		typ, _, pl, err := readFrame(dc.br)
		if err != nil {
			r.health.fault(donor)
			return err
		}
		switch typ {
		case frameResyncChunk:
			streamed += int64(len(pl))
			if err := sc.send(frameResyncChunk, 0, pl); err != nil {
				r.health.fault(addr)
				return err
			}
		case frameResyncState:
			if entries, err = decodeResyncEntries(pl); err != nil {
				return err
			}
		case frameError:
			return remoteError(donor, pl)
		default:
			return fmt.Errorf("%w: unexpected frame %q from resync donor", ErrFrame, typ)
		}
	}
	if err := sc.send(frameInstallDone, 0, encodeResyncEntries(entries)); err != nil {
		r.health.fault(addr)
		return err
	}
	_ = sc.c.SetDeadline(ackDeadline(ctx, r.opt.AckTimeout))
	typ, _, pl, err := readFrame(sc.br)
	if err != nil {
		r.health.fault(addr)
		return err
	}
	switch typ {
	case frameResyncState:
		if _, err := decodeResyncEntries(pl); err != nil {
			return err
		}
	case frameError:
		return remoteError(addr, pl)
	default:
		return fmt.Errorf("%w: unexpected frame %q from resync install", ErrFrame, typ)
	}

	// Install done: the replica holds each partition exactly at the
	// donor's cut. Replay the log tail above each cut on the same
	// session, then the replica is current through nextSeq-1.
	for _, op := range owed {
		var cut *resyncEntry
		for i := range entries {
			if entries[i].Dataset == op.dataset && entries[i].Part == op.pa.part {
				cut = &entries[i]
				break
			}
		}
		if cut == nil {
			return fmt.Errorf("%w: donor reported no cursor for %q part %d", ErrFrame, op.dataset, op.pa.part)
		}
		op.pa.acked[addr] = cut.LastSeq
		replayed, err := r.replayLog(ctx, sc, addr, op.pa, cut.LastSeq)
		if err != nil {
			return err
		}
		r.stats.replayed.Add(int64(replayed))
		op.pa.acked[addr] = op.pa.nextSeq - 1
		op.pa.prune()
	}
	r.stats.resyncs.Add(1)
	r.stats.bytesStreamed.Add(streamed)
	r.stats.partitions.Add(int64(len(owed)))
	return nil
}
