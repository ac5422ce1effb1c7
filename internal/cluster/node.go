// The shard-server role: a Node owns a private engine holding its
// assigned partitions of each dataset and serves every inbound
// connection with one read loop that demultiplexes the router's
// streams: a 'Q' starts a query goroutine, a 'C' cancels it, and
// appends, probes and seq-state requests are answered on the same
// connection. A query drains every partition its 'Q' lists as one
// queue, under the floor the 'Q' carries folded into the request's
// MinScore.

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
)

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

// handle is one connection's read loop. It executes nothing itself:
// queries, appends, probes and seq-state requests run on their own
// goroutines and write their terminal frame under the connection's
// write mutex, so one stream cannot stall another's cancel. An append
// failure ends only its stream (the router re-establishes sequencing
// through catch-up); a malformed frame or a stream ID still in use ends
// the connection. Losing the connection
// cancels every query registered on it. A repair session ('S', or 'I'
// followed by 'D' chunks and a 'Y') arrives on a repair connection the
// router opened for that session alone.
func (n *Node) handle(c net.Conn) {
	fc := newFconn(c, nodeWriteTimeout)
	var mu sync.Mutex // guards streams: the query goroutines unregister themselves
	streams := make(map[uint32]context.CancelFunc)
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		for _, cancel := range streams {
			cancel()
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
		running := streams[stream]
		mu.Unlock()
		switch typ {
		case frameQuery:
			if running != nil {
				refuse(stream, "stream ID already in use")
				return
			}
			ctx, cancel := context.WithCancel(context.Background())
			mu.Lock()
			streams[stream] = cancel
			mu.Unlock()
			n.wg.Add(1)
			go func() {
				defer n.wg.Done()
				typ, reply := n.serveQuery(ctx, payload)
				// Unregister before the terminal frame leaves: once the
				// router has it, the stream ID is free again.
				mu.Lock()
				delete(streams, stream)
				mu.Unlock()
				cancel()
				fc.send(typ, stream, reply)
			}()
		case frameCancel:
			if running != nil {
				running()
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

// serveQuery executes one query stream and returns its terminal frame:
// one partial, the exact top-K over every partition its 'Q' lists.
// The listed partitions are one drain (core.RunParts): a linear read
// queues the blocks of all of them, their IDs lifted by each range's
// offset, and the other families scan them in list order, under the
// router's floor folded into the request's MinScore (withFloor). The
// node's cache keeps one entry per read, keyed on the request, the
// floor and the partition list.
func (n *Node) serveQuery(ctx context.Context, payload []byte) (byte, []byte) {
	q, err := decodeQuery(payload)
	if err != nil {
		n.failed.Add(1)
		return frameError, encodeError("bad-query", err.Error())
	}

	parts := make([]core.Part, 0, len(q.Parts))
	n.mu.Lock()
	for _, part := range q.Parts {
		e, ok := n.parts[q.Req.Dataset][part]
		if !ok {
			n.mu.Unlock()
			n.failed.Add(1)
			return frameError, encodeError("unknown-dataset",
				fmt.Sprintf("dataset %q part %d not on this node", q.Req.Dataset, part))
		}
		if e.local != "" { // an empty partition has nothing to scan
			parts = append(parts, core.Part{Dataset: e.local, Offset: e.offset})
		}
	}
	n.mu.Unlock()
	// The fault-injection hook runs with the stream registered and the
	// connection's read loop live: a cancel or kill arriving while the
	// hook blocks is observed before execution starts, which is what
	// makes the fault tests deterministic.
	if n.opt.BeforeExec != nil {
		for _, part := range q.Parts {
			n.opt.BeforeExec(q.Req.Dataset, part)
		}
	}

	var out Partial
	if len(parts) > 0 {
		res, err := core.RunParts(ctx, n.eng, withFloor(q.Req, q.Floor), parts)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				n.cancelled.Add(1)
			} else {
				n.failed.Add(1)
			}
			return frameError, encodeError(errorCode(err), err.Error())
		}
		st := res.Stats
		out = Partial{Items: res.Items, Stats: PartialStats{
			Evaluations: st.Evaluations,
			Examined:    st.Examined,
			Pruned:      st.Pruned,
			Shards:      st.Shards,
			Truncated:   st.Truncated,
		}}
	}
	n.served.Add(1)
	return frameResult, encodePartial(out)
}

// withFloor folds a floor proved elsewhere (K items score at least f)
// into req's MinScore: nothing below f can enter the merged top-K, so
// the run may screen and drop it. Every plan seeds its bound from
// MinScore, and the cache keys on it. A NaN floor, or one that does not
// raise MinScore, leaves req as it is.
func withFloor(req core.Request, f float64) core.Request {
	if f > math.Inf(-1) && (req.MinScore == nil || f > *req.MinScore) {
		req.MinScore = &f
	}
	return req
}
