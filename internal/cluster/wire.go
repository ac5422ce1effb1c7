// The cluster wire protocol: framed, multiplexed streams over TCP, with
// payloads in the canonical encoding (internal/canon) — big-endian
// fixed-width integers, IEEE-754 float bits, length-prefixed strings.
// A 'Q' body is the request's canonical bytes (core.AppendRequest), the
// encoder the result cache keys with; a node re-keys on its local
// dataset name, so the body and the node's key differ in that field
// alone. Every frame is
//
//	len u32 | type u8 | stream u32 | payload (len bytes)
//
// and one connection carries many streams at once: the router opens a
// stream with a request frame ('Q', 'A', 'H', 'U') under an ID it
// allocates, floor raises flow both ways as 'F' frames on a query's
// stream while the node executes, 'C' cancels that stream alone, and a
// stream ends with one terminal frame from the node ('R', 'E', 'K', or
// the 'H'/'U' echo). Decoding is bounds-checked end to end
// (canon.Reader), so a truncated or hostile frame fails with
// canon.ErrCorrupt instead of panicking — the property the codec
// fuzzers (core.FuzzRequestCodec, FuzzQueryCodec, FuzzPartialCodec,
// FuzzAppendCodec, FuzzSeqStateCodec) and FuzzFrameStream pin.

package cluster

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"

	"modelir/internal/canon"
	"modelir/internal/core"
	"modelir/internal/topk"
)

// Frame types.
const (
	frameQuery  = 'Q' // router → node: one encoded query over a partition list, opens a stream
	frameFloor  = 'F' // both ways: 8-byte result-scale floor raise on a query stream
	frameResult = 'R' // node → router: encoded partial result, ends the stream
	frameError  = 'E' // node → router: code + message strings, ends the stream
	frameCancel = 'C' // router → node: abort this stream's query; the connection stays up
)

// frameHeader is the fixed header size: payload length, type, stream.
const frameHeader = 9

// Payload caps by frame type: only append batches and snapshot chunks
// are bulk, a partial carries at most K items, the rest is a handful of
// strings and integers. Any TCP peer can reach the listener, so even a
// bulk payload's buffer starts at payloadStep and grows only as bytes
// arrive — nine header bytes cannot buy a 64 MiB allocation.
const (
	maxFrame       = 64 << 20
	maxResultFrame = 16 << 20
	maxSmallFrame  = 1 << 20
	payloadStep    = 64 << 10
	// maxWireK is the most items an 'R' frame can carry (17 bytes each at
	// least): a 'Q' asking for more is refused before it sizes a heap.
	maxWireK = maxResultFrame / 17
)

// wireVersion guards against mixed-version clusters: every payload
// leads with it and decoding rejects a mismatch. Version 2 made the 'Q'
// body the canonical request encoding (core.AppendRequest); version 3
// made a 'Q' list the partitions its node serves, answered by one 'R'.
const wireVersion = 3

// ErrFrame reports a malformed frame envelope: an unknown type, or a
// length over the type's cap. The connection it arrived on is closed.
var ErrFrame = errors.New("cluster: malformed frame")

// frameCap is a frame type's payload cap, -1 for an unknown type.
func frameCap(typ byte) int {
	switch typ {
	case frameAppend, frameResyncChunk:
		return maxFrame
	case frameResult:
		return maxResultFrame
	case frameQuery, frameFloor, frameCancel, frameError, frameAppendAck, frameHealth,
		frameSeqState, frameResyncReq, frameResyncState, frameInstall, frameInstallDone:
		return maxSmallFrame
	default:
		return -1
	}
}

// fconn is one framed connection. Reads go through a bufio.Reader and
// belong to one goroutine; writes may come from many and leave through
// a bufio.Writer flushed per frame under wmu — one Write for a frame
// that fits its buffer, header and payload together (a bulk payload
// follows its first buffer-full in a second Write, uncopied).
type fconn struct {
	c  net.Conn
	br *bufio.Reader
	// wtimeout, when set, bounds each frame write: a peer that stopped
	// draining a shared connection must break it, not wedge every writer
	// queued on wmu.
	wtimeout time.Duration
	wmu      sync.Mutex
	bw       *bufio.Writer
}

func newFconn(c net.Conn, wtimeout time.Duration) *fconn {
	return &fconn{c: c, br: bufio.NewReader(c), bw: bufio.NewWriter(c), wtimeout: wtimeout}
}

// send writes one frame. A failed write leaves the byte stream
// unframed; the caller must abandon the connection.
func (f *fconn) send(typ byte, stream uint32, payload []byte) error {
	f.wmu.Lock()
	defer f.wmu.Unlock()
	if f.wtimeout > 0 {
		_ = f.c.SetWriteDeadline(time.Now().Add(f.wtimeout)) // a conn without deadlines just writes unbounded
	}
	hdr := binary.BigEndian.AppendUint32(f.bw.AvailableBuffer(), uint32(len(payload)))
	hdr = binary.BigEndian.AppendUint32(append(hdr, typ), stream)
	f.bw.Write(hdr) // errors are sticky: Flush reports them
	f.bw.Write(payload)
	return f.bw.Flush()
}

// readFrame reads one frame. io.EOF means the peer closed between
// frames; a close inside a frame is io.ErrUnexpectedEOF; an unknown
// type or over-cap length is ErrFrame.
func readFrame(br *bufio.Reader) (typ byte, stream uint32, payload []byte, err error) {
	hdr, err := br.Peek(frameHeader)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return 0, 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	typ, stream = hdr[4], binary.BigEndian.Uint32(hdr[5:])
	_, _ = br.Discard(frameHeader) // cannot fail: Peek just buffered these bytes
	if limit := frameCap(typ); limit < 0 || n > uint32(limit) {
		return 0, 0, nil, fmt.Errorf("%w: %q frame of %d bytes (cap %d, -1: unknown type)", ErrFrame, typ, n, limit)
	}
	payload, err = readPayload(br, int(n))
	return typ, stream, payload, err
}

// readPayload reads exactly n bytes, growing the buffer only as bytes
// arrive so a lying header costs at most payloadStep.
func readPayload(r io.Reader, n int) ([]byte, error) {
	var buf []byte
	for len(buf) < n {
		got := len(buf)
		buf = append(buf, make([]byte, min(n-got, max(got, payloadStep)))...)
		if _, err := io.ReadFull(r, buf[got:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return buf, nil
}

// maxWireParts caps a 'Q' partition list. A dataset has one partition
// per topology node, so no real cover lists more; the cap is checked
// before the list is allocated, so a hostile count cannot size one.
const maxWireParts = 1024

// nodeQuery is a decoded 'Q' payload: the request slice a node executes.
type nodeQuery struct {
	// Parts lists the partitions this node serves for the request,
	// strictly ascending; the node answers them with one partial.
	Parts []int
	// Publish asks the node to send its floor raises back as 'F'
	// frames: set only when other nodes serve the same read, so a
	// one-node cover costs no floor traffic.
	Publish bool
	Req     core.Request // Dataset is the cluster-wide name
	Floor   float64
}

// encodeQuery serializes one node's slice of a request: a header with
// what the request body leaves out (the partition list, the publish
// flag, Workers, Budget) or what changes per send (floor: the router's
// best floor so far, result scale, so a node joining late starts
// pre-pruned), then body, the request's canonical bytes
// (core.AppendRequest), which the router computes once per read.
//
//	version u8 | publish u8 | nparts u64 | part u64 ... | workers u64 |
//	budget u64 | floor f64 | body
func encodeQuery(q nodeQuery, body []byte) []byte {
	b := make([]byte, 0, 2+8*(len(q.Parts)+4)+len(body))
	b = append(b, wireVersion, 0)
	if q.Publish {
		b[1] = 1
	}
	b = canon.AppendUint(b, uint64(len(q.Parts)))
	for _, p := range q.Parts {
		b = canon.AppendUint(b, uint64(p))
	}
	b = canon.AppendUint(b, uint64(q.Req.Workers))
	b = canon.AppendUint(b, uint64(q.Req.Budget))
	b = canon.AppendFloat(b, q.Floor)
	return append(b, body...)
}

func decodeQuery(payload []byte) (nodeQuery, error) {
	var q nodeQuery
	r := canon.NewReader(payload)
	v, err := r.Byte()
	if err != nil {
		return q, err
	}
	if v != wireVersion {
		return q, fmt.Errorf("%w: wire version %d", canon.ErrCorrupt, v)
	}
	switch pub, err := r.Byte(); {
	case err != nil:
		return q, err
	case pub > 1:
		return q, fmt.Errorf("%w: publish flag %d", canon.ErrCorrupt, pub)
	default:
		q.Publish = pub == 1
	}
	n, err := r.Count(8)
	if err != nil {
		return q, err
	}
	if n < 1 || n > maxWireParts {
		return q, fmt.Errorf("%w: %d partitions (want 1 to %d)", canon.ErrCorrupt, n, maxWireParts)
	}
	q.Parts = make([]int, n)
	for i := range q.Parts {
		p, err := r.Uint()
		if err != nil {
			return q, err
		}
		// Strictly ascending: one encoding per set, and no partition
		// served twice into one partial.
		if p > math.MaxInt32 || i > 0 && int(p) <= q.Parts[i-1] {
			return q, fmt.Errorf("%w: partition list not strictly ascending", canon.ErrCorrupt)
		}
		q.Parts[i] = int(p)
	}
	var knobs [2]uint64 // Workers, Budget
	for i := range knobs {
		if knobs[i], err = r.Uint(); err != nil {
			return q, err
		}
		if knobs[i] > math.MaxInt32 {
			return q, canon.ErrCorrupt
		}
	}
	if q.Floor, err = r.Float(); err != nil {
		return q, err
	}
	if q.Req, err = core.DecodeRequest(payload[len(payload)-r.Remaining():]); err != nil {
		return q, err
	}
	if q.Req.K > maxWireK {
		return q, fmt.Errorf("%w: K %d over the wire limit %d", canon.ErrCorrupt, q.Req.K, maxWireK)
	}
	q.Req.Workers, q.Req.Budget = int(knobs[0]), int(knobs[1])
	return q, nil
}

// PartialStats is the node-side slice of QueryStats that survives the
// wire: the counters that sum across partitions.
type PartialStats struct {
	Evaluations int
	Examined    int
	Pruned      int
	Shards      int
	Truncated   bool
	Wall        time.Duration
}

// Partial is one node's contribution to a scatter-gathered query: the
// exact top-K over the partitions its 'Q' listed (IDs already lifted
// into the global space), the node's final screening floor, and the
// summable stats.
type Partial struct {
	Floor float64
	Items []topk.Item
	Stats PartialStats
}

// encodePartial serializes a partial result. Item payloads cross the
// wire only for the []int strata lists geology queries attach; other
// payload types are dropped (no current query family produces them).
func encodePartial(p Partial) []byte {
	b := []byte{wireVersion}
	b = canon.AppendFloat(b, p.Floor)
	b = canon.AppendUint(b, uint64(p.Stats.Evaluations))
	b = canon.AppendUint(b, uint64(p.Stats.Examined))
	b = canon.AppendUint(b, uint64(p.Stats.Pruned))
	b = canon.AppendUint(b, uint64(p.Stats.Shards))
	if p.Stats.Truncated {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = canon.AppendUint(b, uint64(p.Stats.Wall))
	b = canon.AppendUint(b, uint64(len(p.Items)))
	for _, it := range p.Items {
		b = canon.AppendUint(b, uint64(it.ID))
		b = canon.AppendFloat(b, it.Score)
		if strata, ok := it.Payload.([]int); ok {
			b = append(b, 1)
			b = canon.AppendUint(b, uint64(len(strata)))
			for _, s := range strata {
				b = canon.AppendUint(b, uint64(s))
			}
		} else {
			b = append(b, 0)
		}
	}
	return b
}

func decodePartial(payload []byte) (Partial, error) {
	var p Partial
	r := canon.NewReader(payload)
	v, err := r.Byte()
	if err != nil {
		return p, err
	}
	if v != wireVersion {
		return p, fmt.Errorf("%w: wire version %d", canon.ErrCorrupt, v)
	}
	if p.Floor, err = r.Float(); err != nil {
		return p, err
	}
	counters := [4]*int{
		&p.Stats.Evaluations, &p.Stats.Examined, &p.Stats.Pruned, &p.Stats.Shards,
	}
	for _, dst := range counters {
		u, err := r.Uint()
		if err != nil {
			return p, err
		}
		if u > math.MaxInt64/2 {
			return p, canon.ErrCorrupt
		}
		*dst = int(u)
	}
	tr, err := r.Byte()
	if err != nil {
		return p, err
	}
	switch tr {
	case 0:
	case 1:
		p.Stats.Truncated = true
	default:
		return p, canon.ErrCorrupt
	}
	wall, err := r.Uint()
	if err != nil {
		return p, err
	}
	if wall > math.MaxInt64 {
		return p, canon.ErrCorrupt
	}
	p.Stats.Wall = time.Duration(wall)
	// An item is at least an ID, a score, and a payload flag.
	n, err := r.Count(17)
	if err != nil {
		return p, err
	}
	if n > 0 {
		p.Items = make([]topk.Item, n)
	}
	for i := range p.Items {
		id, err := r.Uint()
		if err != nil {
			return p, err
		}
		if id > math.MaxInt64 {
			return p, canon.ErrCorrupt
		}
		p.Items[i].ID = int64(id)
		if p.Items[i].Score, err = r.Float(); err != nil {
			return p, err
		}
		hasPayload, err := r.Byte()
		if err != nil {
			return p, err
		}
		switch hasPayload {
		case 0:
		case 1:
			m, err := r.Count(8)
			if err != nil {
				return p, err
			}
			strata := make([]int, m)
			for j := range strata {
				u, err := r.Uint()
				if err != nil {
					return p, err
				}
				if u > math.MaxInt32 {
					return p, canon.ErrCorrupt
				}
				strata[j] = int(u)
			}
			p.Items[i].Payload = strata
		default:
			return p, canon.ErrCorrupt
		}
	}
	if r.Remaining() != 0 {
		return p, fmt.Errorf("%w: %d trailing bytes", canon.ErrCorrupt, r.Remaining())
	}
	return p, nil
}

// encodeFloor serializes an 'F' payload: one result-scale floor value.
func encodeFloor(f float64) []byte { return canon.AppendFloat(nil, f) }

func decodeFloor(payload []byte) (float64, error) {
	return canon.NewReader(payload).Float()
}

// encodeError serializes an 'E' payload: a machine-readable code plus a
// human-readable message.
func encodeError(code, msg string) []byte {
	b := canon.AppendString(nil, code)
	return canon.AppendString(b, msg)
}

func decodeError(payload []byte) (code, msg string, err error) {
	r := canon.NewReader(payload)
	if code, err = r.String(); err != nil {
		return "", "", err
	}
	if msg, err = r.String(); err != nil {
		return "", "", err
	}
	return code, msg, nil
}
