// The shard-server role: a Node owns a private engine holding its
// assigned partitions of each dataset and serves every inbound
// connection with one read loop that demultiplexes the router's
// streams: a 'Q' starts a query goroutine, 'F'/'C' reach that query's
// SharedBound/cancel, appends, probes and seq-state requests are
// answered on the same connection. While a query runs, the node and
// router exchange floor raises ('F' frames) both ways: remote floors
// feed the query's SharedBound and prune the local scan mid-flight, and
// local raises are published back so the router can gossip them to the
// other nodes.

package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"modelir/internal/archive"
	"modelir/internal/colstore"
	"modelir/internal/core"
	"modelir/internal/synth"
	"modelir/internal/topk"
)

// floorPollInterval is how often the node checks whether its local
// floor rose enough to publish, and how long a query must have run
// before the first check: a read that finishes sooner has nothing worth
// gossiping and never starts the publisher. Floor frames are an
// optimization — the result is bit-identical with or without them — so
// a coarse interval costs only pruning opportunity, never correctness.
const floorPollInterval = 200 * time.Microsecond

// NodeOptions configures a shard server.
type NodeOptions struct {
	// Shards is the engine fan-out within this node (0 = default).
	Shards int
	// CacheEntries sizes the node engine's result cache (0 = default,
	// negative = disabled), passed through to core.Options.
	CacheEntries int
	// BeforeExec, when set, runs after a query is decoded and resolved
	// but before execution starts — a test hook for deterministic
	// fault injection (kill or block the node mid-query).
	BeforeExec func(dataset string, part int)
	// BeforeAppend is BeforeExec's ingest twin: it runs after an append
	// batch is decoded but before it is applied or acked, so a test can
	// kill the node mid-append deterministically (the batch is lost, the
	// router quarantines the replica).
	BeforeAppend func(dataset string, part int, seq uint64)
}

type partEntry struct {
	local  string // engine-local dataset name, "" for an empty partition
	offset int64  // added to result IDs (tuples only; 0 elsewhere)
}

// Node is one shard server: a listener plus the engine serving its
// partitions.
type Node struct {
	self  string
	topo  Topology
	place *placer
	opt   NodeOptions
	eng   *core.Engine

	mu    sync.Mutex
	ln    net.Listener
	conns map[net.Conn]struct{}
	parts map[string]map[int]partEntry
	// ingests carries each partition's append cursor (last applied
	// sequence number); entries are created on first append.
	ingests map[string]map[int]*partIngest

	served    atomic.Int64
	cancelled atomic.Int64
	failed    atomic.Int64
	appended  atomic.Int64
	accepted  atomic.Int64 // inbound connections, lifetime

	wg sync.WaitGroup
}

// NewNode creates a node for `self` (its dial address in the topology).
// Datasets must be added before Serve makes the node reachable.
func NewNode(self string, topo Topology, opt NodeOptions) *Node {
	return newNodeOn(self, topo, opt, core.NewEngineWith(core.Options{Shards: opt.Shards, CacheEntries: opt.CacheEntries}))
}

// newNodeOn wraps an engine (fresh, or restored from a snapshot).
func newNodeOn(self string, topo Topology, opt NodeOptions, eng *core.Engine) *Node {
	return &Node{
		self:    self,
		topo:    topo,
		place:   newPlacer(topo),
		opt:     opt,
		eng:     eng,
		conns:   make(map[net.Conn]struct{}),
		parts:   make(map[string]map[int]partEntry),
		ingests: make(map[string]map[int]*partIngest),
	}
}

func (n *Node) localName(dataset string, part int) string {
	return dataset + "#" + strconv.Itoa(part)
}

func (n *Node) register(dataset string, part int, e partEntry) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.parts[dataset][part]; dup {
		return fmt.Errorf("%w: %q part %d", core.ErrDuplicateDataset, dataset, part)
	}
	if n.parts[dataset] == nil {
		n.parts[dataset] = make(map[int]partEntry)
	}
	n.parts[dataset][part] = e
	return nil
}

// AddTuples ingests this node's partitions of a tuple dataset. Every
// node receives the full point set and keeps only its assigned ranges;
// result IDs are lifted by the range offset so they match the global
// row indices a single-node engine would return. The whole set is
// checked once before any partition registers, so every node refuses
// exactly what a single Engine.AddTuples refuses and a refused set
// leaves no partition behind.
func (n *Node) AddTuples(dataset string, points [][]float64) error {
	if err := colstore.Check(points); err != nil {
		return fmt.Errorf("cluster: register %q: %w", dataset, err)
	}
	for _, a := range n.place.assignments(n.self, dataset, KindTuples, len(points)) {
		e := partEntry{offset: int64(a.Lo)}
		if a.Lo < a.Hi {
			e.local = n.localName(dataset, a.Part)
			if err := n.eng.AddTuples(e.local, points[a.Lo:a.Hi]); err != nil {
				return err
			}
		}
		if err := n.register(dataset, a.Part, e); err != nil {
			return err
		}
	}
	return nil
}

// AddSeries ingests this node's partitions of a weather-series archive.
// Region IDs are intrinsic to the records, so no offset lift is needed.
func (n *Node) AddSeries(dataset string, rs []synth.RegionSeries) error {
	for _, a := range n.place.assignments(n.self, dataset, KindSeries, len(rs)) {
		var e partEntry
		if a.Lo < a.Hi {
			e.local = n.localName(dataset, a.Part)
			if err := n.eng.AddSeries(e.local, rs[a.Lo:a.Hi]); err != nil {
				return err
			}
		}
		if err := n.register(dataset, a.Part, e); err != nil {
			return err
		}
	}
	return nil
}

// AddWells ingests this node's partitions of a well-log archive. Well
// IDs are intrinsic to the records, so no offset lift is needed.
func (n *Node) AddWells(dataset string, ws []synth.WellLog) error {
	for _, a := range n.place.assignments(n.self, dataset, KindWells, len(ws)) {
		var e partEntry
		if a.Lo < a.Hi {
			e.local = n.localName(dataset, a.Part)
			if err := n.eng.AddWells(e.local, ws[a.Lo:a.Hi]); err != nil {
				return err
			}
		}
		if err := n.register(dataset, a.Part, e); err != nil {
			return err
		}
	}
	return nil
}

// AddScene ingests a scene if this node is among its replicas. Scenes
// are not partitioned (raster geometry is scene-global); the whole
// scene lives on Replication nodes.
func (n *Node) AddScene(dataset string, sc *archive.Scene) error {
	for _, a := range n.place.assignments(n.self, dataset, KindScene, 1) {
		e := partEntry{local: n.localName(dataset, a.Part)}
		if err := n.eng.AddScene(e.local, sc); err != nil {
			return err
		}
		if err := n.register(dataset, a.Part, e); err != nil {
			return err
		}
	}
	return nil
}

// Serve starts accepting queries on bind (use "127.0.0.1:0" in tests
// and read Addr for the bound address). It returns once the listener
// is live; connections are served on background goroutines.
func (n *Node) Serve(bind string) error {
	ln, err := net.Listen("tcp", bind)
	if err != nil {
		return err
	}
	n.ServeListener(ln)
	return nil
}

// ServeListener is Serve over a listener the caller already bound —
// the harness reserves every node's port first so the topology can be
// built from real addresses before any node starts.
func (n *Node) ServeListener(ln net.Listener) {
	n.mu.Lock()
	n.ln = ln
	n.mu.Unlock()
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			n.accepted.Add(1)
			n.track(c, true)
			n.wg.Add(1)
			go func() {
				defer n.wg.Done()
				defer n.track(c, false)
				defer c.Close()
				n.handle(c)
			}()
		}
	}()
}

// Addr returns the listener's address, or "" before Serve.
func (n *Node) Addr() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.ln == nil {
		return ""
	}
	return n.ln.Addr().String()
}

func (n *Node) track(c net.Conn, add bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if add {
		n.conns[c] = struct{}{}
	} else {
		delete(n.conns, c)
	}
}

// Close stops accepting and severs live connections, waits for
// handler goroutines to drain, then closes the engine — which, for a
// node restored in Map mode, releases the snapshot mappings. In-flight
// queries observe the severed connection as a cancellation.
func (n *Node) Close() {
	n.Kill()
	n.wg.Wait()
	_ = n.eng.Close() // best-effort; nothing actionable at teardown
}

// Kill force-closes the listener and every live connection without
// waiting — the fault-injection primitive: from the router's view the
// node drops mid-query exactly like a crashed process.
func (n *Node) Kill() {
	n.mu.Lock()
	ln := n.ln
	conns := make([]net.Conn, 0, len(n.conns))
	for c := range n.conns {
		conns = append(conns, c)
	}
	n.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
}

// Stats samples the node's lifetime counters.
func (n *Node) Stats() (served, cancelled, failed int64) {
	return n.served.Load(), n.cancelled.Load(), n.failed.Load()
}

// errorCode maps an execution error to the wire code the router uses to
// reconstruct a typed error on its side.
func errorCode(err error) string {
	switch {
	case errors.Is(err, core.ErrUnknownDataset):
		return "unknown-dataset"
	case errors.Is(err, context.Canceled):
		return "cancelled"
	default:
		return "exec"
	}
}

// nodeWriteTimeout bounds each frame write to a router: one that stopped
// draining its connection must lose it (cancelling its queries), not
// wedge every stream's reply behind the write mutex.
const nodeWriteTimeout = 10 * time.Second

// queryStream is what the read loop needs to reach a running query:
// its cancel func and the floors its partition runs share.
type queryStream struct {
	cancel context.CancelFunc

	mu     sync.Mutex
	remote float64           // the best floor the router sent
	merged float64           // the K-th best score of the finished runs merged
	ran    float64           // the best final floor of a finished run
	sb     *core.SharedBound // the partition run in progress, if any
}

func newQueryStream(cancel context.CancelFunc) *queryStream {
	return &queryStream{cancel: cancel, remote: math.Inf(-1), merged: math.Inf(-1), ran: math.Inf(-1)}
}

// raise applies a floor from the router to the run in progress and to
// every later one.
func (qs *queryStream) raise(f float64) {
	qs.mu.Lock()
	defer qs.mu.Unlock()
	if f > qs.remote {
		qs.remote = f
	}
	qs.sb.Raise(f) // a nil bound (between runs) ignores it
}

// next starts a partition run: a fresh bound seeded with the router's
// floor and the merged runs' K-th best score — the same for a repeated
// read whether the earlier runs were cold or cache hits, so the seeded
// run's cache entry is found again.
func (qs *queryStream) next() *core.SharedBound {
	sb := core.NewSharedBound()
	qs.mu.Lock()
	defer qs.mu.Unlock()
	sb.Raise(max(qs.remote, qs.merged))
	qs.sb = sb
	return sb
}

// done retires a finished run, keeping its final floor.
func (qs *queryStream) done(sb *core.SharedBound) {
	f := sb.Floor()
	qs.mu.Lock()
	defer qs.mu.Unlock()
	qs.ran = max(qs.ran, f)
	qs.sb = nil
}

// prove records the K-th best score of the runs merged so far: K items
// at or above it exist, so no later partition needs items below it.
func (qs *queryStream) prove(f float64) {
	qs.mu.Lock()
	defer qs.mu.Unlock()
	qs.merged = max(qs.merged, f)
}

// floor is the best floor this query has proved or been sent, for
// publishing: any run's, the merged runs', or the router's.
func (qs *queryStream) floor() float64 {
	qs.mu.Lock()
	defer qs.mu.Unlock()
	f := max(qs.ran, qs.merged, qs.remote)
	if qs.sb != nil {
		f = max(f, qs.sb.Floor())
	}
	return f
}

// handle is one connection's read loop. It executes nothing itself:
// queries, appends, probes and seq-state requests run on their own
// goroutines and write their terminal frame under the connection's
// write mutex, so one stream cannot stall another's floor raise or
// cancel. An append failure ends only its stream (the router
// re-establishes sequencing through catch-up); a malformed frame or a
// stream ID still in use ends the connection. Losing the connection
// cancels every query registered on it. A repair session ('S', or 'I'
// followed by 'D' chunks and a 'Y') arrives on a repair connection the
// router opened for that session alone.
func (n *Node) handle(c net.Conn) {
	fc := newFconn(c, nodeWriteTimeout)
	var mu sync.Mutex // guards streams: the query goroutines unregister themselves
	streams := make(map[uint32]*queryStream)
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		for _, qs := range streams {
			qs.cancel()
		}
	}()
	refuse := func(stream uint32, msg string) {
		n.failed.Add(1)
		fc.send(frameError, stream, encodeError("bad-frame", msg))
	}
	for {
		typ, stream, payload, err := readFrame(fc.br)
		if err != nil {
			if errors.Is(err, ErrFrame) || err == io.ErrUnexpectedEOF {
				n.failed.Add(1)
			}
			return
		}
		mu.Lock()
		qs := streams[stream]
		mu.Unlock()
		switch typ {
		case frameQuery:
			if qs != nil {
				refuse(stream, "stream ID already in use")
				return
			}
			ctx, cancel := context.WithCancel(context.Background())
			qs = newQueryStream(cancel)
			mu.Lock()
			streams[stream] = qs
			mu.Unlock()
			n.wg.Add(1)
			go func() {
				defer n.wg.Done()
				typ, reply := n.serveQuery(ctx, fc, stream, qs, payload)
				// Unregister before the terminal frame leaves: once the
				// router has it, the stream ID is free again.
				mu.Lock()
				delete(streams, stream)
				mu.Unlock()
				cancel()
				fc.send(typ, stream, reply)
			}()
		case frameFloor:
			if f, err := decodeFloor(payload); err == nil && qs != nil {
				qs.raise(f)
			}
		case frameCancel:
			if qs != nil {
				qs.cancel()
			}
		case frameAppend, frameSeqState, frameHealth:
			// An append applies off the read loop: per-partition order is
			// enforced by sequence numbers and the router's partition
			// lock, not by arrival order on this connection.
			n.wg.Add(1)
			go func() {
				defer n.wg.Done()
				typ, reply := n.serveIngest(typ, payload)
				fc.send(typ, stream, reply)
			}()
		case frameResyncReq:
			// Donor role: one transfer per repair connection; the router
			// closes it after 'Y'.
			n.serveResync(fc, payload)
			return
		case frameInstall:
			// Receiver role: accumulate 'D' chunks, install on the
			// forwarded 'Y', echo it. The connection then stays open — the
			// router replays the log above the cut as ordinary 'A' frames.
			if !n.handleInstall(fc, payload) {
				return
			}
		default:
			refuse(stream, fmt.Sprintf("unexpected frame %q from a router", typ))
			return
		}
	}
}

// serveQuery executes one query stream — every partition its 'Q'
// lists, one after another on this goroutine — and returns its
// terminal frame: one partial, the listed partitions' runs lifted into
// global IDs and merged into one top-K.
//
// Each partition runs under a bound of its own, seeded before it starts
// with the best floor known: the router's, or the K-th best score the
// partitions before it merged to. The seed is a function of the request
// and the data, so the node's cache stores each run under the request
// and its seed (core.SharedBound) and a repeated read hits on every
// listed partition.
func (n *Node) serveQuery(ctx context.Context, fc *fconn, stream uint32, qs *queryStream, payload []byte) (byte, []byte) {
	q, err := decodeQuery(payload)
	if err != nil {
		n.failed.Add(1)
		return frameError, encodeError("bad-query", err.Error())
	}

	entries := make([]partEntry, len(q.Parts))
	n.mu.Lock()
	for i, part := range q.Parts {
		e, ok := n.parts[q.Req.Dataset][part]
		if !ok {
			n.mu.Unlock()
			n.failed.Add(1)
			return frameError, encodeError("unknown-dataset",
				fmt.Sprintf("dataset %q part %d not on this node", q.Req.Dataset, part))
		}
		entries[i] = e
	}
	n.mu.Unlock()
	qs.raise(q.Floor)

	// Floor publisher, when other nodes serve the same read: piggyback
	// local raises back to the router — a timer that re-arms itself, so
	// a read done within one poll interval stops it unfired and costs no
	// goroutine but this one. pub.mu orders the last publish before the
	// terminal frame.
	var pub struct {
		mu   sync.Mutex
		t    *time.Timer
		done bool
	}
	if q.Publish {
		last := qs.floor()
		pub.mu.Lock()
		pub.t = time.AfterFunc(floorPollInterval, func() {
			pub.mu.Lock()
			defer pub.mu.Unlock()
			if pub.done {
				return
			}
			if f := qs.floor(); f > last {
				last = f
				if fc.send(frameFloor, stream, encodeFloor(f)) != nil {
					return
				}
			}
			pub.t.Reset(floorPollInterval)
		})
		pub.mu.Unlock()
		defer func() {
			pub.mu.Lock()
			pub.done = true
			pub.mu.Unlock()
			pub.t.Stop()
		}()
	}

	var out Partial
	var merged *topk.Heap // the runs so far, when the 'Q' lists several
	if len(entries) > 1 {
		k := q.Req.K
		if k == 0 {
			k = core.DefaultK
		}
		if merged, err = topk.GetHeap(k); err != nil {
			n.failed.Add(1)
			return frameError, encodeError(errorCode(err), err.Error())
		}
		defer topk.PutHeap(merged)
	}
	for i, e := range entries {
		if e.local == "" {
			continue // an empty partition: nothing to scan, nothing to add
		}
		// The fault-injection hook runs with the stream registered and
		// the connection's read loop live: a cancel or kill arriving
		// while the hook blocks is observed before execution starts,
		// which is what makes the fault tests deterministic.
		if n.opt.BeforeExec != nil {
			n.opt.BeforeExec(q.Req.Dataset, q.Parts[i])
		}
		req := q.Req
		req.Dataset = e.local
		sb := qs.next()
		res, err := n.eng.RunShared(ctx, req, sb)
		qs.done(sb)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				n.cancelled.Add(1)
			} else {
				n.failed.Add(1)
			}
			return frameError, encodeError(errorCode(err), err.Error())
		}
		if e.offset != 0 {
			for j := range res.Items {
				res.Items[j].ID += e.offset
			}
		}
		out.Stats.Evaluations += res.Stats.Evaluations
		out.Stats.Examined += res.Stats.Examined
		out.Stats.Pruned += res.Stats.Pruned
		out.Stats.Shards += res.Stats.Shards
		out.Stats.Truncated = out.Stats.Truncated || res.Stats.Truncated
		if merged == nil {
			out.Items = res.Items
			continue
		}
		topk.MergeItems(merged, res.Items)
		if f, full := merged.Threshold(); full {
			qs.prove(f)
		}
	}
	if merged != nil {
		out.Items = merged.Results()
	}
	out.Floor = qs.floor()
	n.served.Add(1)
	return frameResult, encodePartial(out)
}
