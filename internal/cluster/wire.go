// The cluster wire protocol: framed, multiplexed streams over TCP, with
// payloads in the canonical encoding (internal/canon) — big-endian
// fixed-width integers, IEEE-754 float bits, length-prefixed strings.
// Every frame is
//
//	len u32 | type u8 | stream u32 | payload (len bytes)
//
// and one connection carries many streams at once. The twelve frame
// types, their caps and their payloads are declared here and tabled in
// DESIGN.md §9. On a router's shared connection to a node, a stream
// opens with a request ('Q', 'A', 'H', 'U') under an ID the router
// allocates, 'C' cancels a query's stream alone, and the stream ends
// with one terminal frame from the node ('R', 'E', 'K', or the 'H'/'U'
// echo). Repair sessions ('S', 'I', 'D', 'Y') run on short-lived
// connections of their own (catchup.go, resync.go).
//
// Every payload but 'E' leads with wireVersion and is decoded
// through decodeVersioned, which refuses another version and trailing
// bytes. Decoding is bounds-checked end to end (canon.Reader), so a
// truncated or hostile payload fails with canon.ErrCorrupt instead of
// panicking — the property FuzzWirePayloads and FuzzFrameStream pin.

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
	"modelir/internal/synth"
	"modelir/internal/topk"
)

// Frame types.
const (
	frameQuery       = 'Q' // router → node: one encoded query over a partition list, opens a stream
	frameResult      = 'R' // node → router: encoded partial result, ends the stream
	frameError       = 'E' // node → router: code + message strings, ends the stream
	frameCancel      = 'C' // router → node: abort this stream's query; the connection stays up
	frameAppend      = 'A' // router → node: one sequenced append batch for one partition
	frameAppendAck   = 'K' // node → router: applied/duplicate ack, ends the stream
	frameHealth      = 'H' // both ways: empty probe and echo
	frameSeqState    = 'U' // router → node: dataset filter; node → router: one SeqEntry per partition
	frameResyncReq   = 'S' // router → donor: the one partition to snapshot (a SeqEntry naming it)
	frameInstall     = 'I' // router → stale replica: begin a snapshot install of one partition
	frameResyncChunk = 'D' // donor → router → stale replica: one piece of one snapshot file
	frameResyncState = 'Y' // donor → router → stale replica: the SeqEntry at the cut; replica → router: the installed one
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

// wireVersion guards against mixed-version clusters: every versioned
// payload leads with it and decoding rejects a mismatch. Version 2 made
// the 'Q' body the canonical request encoding (core.AppendRequest);
// version 3 made a 'Q' list the partitions its node serves, answered by
// one 'R'; version 4 made SeqEntry the one per-partition record ('U',
// 'S', 'I', 'Y'), folded the install commit into 'Y', and dropped the
// node wall time from 'R' and the worker count from 'Q'; version 5
// dropped the 'F' floor frame, the publish flag from 'Q' and the floor
// from 'R'.
const wireVersion = 5

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
	case frameQuery, frameError, frameCancel, frameAppendAck, frameHealth,
		frameSeqState, frameResyncReq, frameInstall, frameResyncState:
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

// decodeVersioned is the envelope every versioned payload shares: it
// checks r's leading wire version, runs body (which reads the rest from
// r), and refuses whatever body left unread. body takes no arguments so
// that r, which it captures, stays on the caller's stack.
func decodeVersioned(r *canon.Reader, body func() error) error {
	v, err := r.Byte()
	if err != nil {
		return err
	}
	if v != wireVersion {
		return fmt.Errorf("%w: wire version %d", canon.ErrCorrupt, v)
	}
	if err := body(); err != nil {
		return err
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes", canon.ErrCorrupt, r.Remaining())
	}
	return nil
}

// readInt reads a canonical integer that must fit in [0, limit].
func readInt(r *canon.Reader, limit uint64) (int64, error) {
	u, err := r.Uint()
	if err != nil {
		return 0, err
	}
	if u > limit {
		return 0, fmt.Errorf("%w: value %d over %d", canon.ErrCorrupt, u, limit)
	}
	return int64(u), nil
}

// ---- 'Q' ----

// maxWireParts caps a 'Q' partition list. A dataset has one partition
// per topology node, so no real cover lists more; the cap is checked
// before the list is allocated, so a hostile count cannot size one.
const maxWireParts = 1024

// nodeQuery is a decoded 'Q' payload: the request slice a node executes.
type nodeQuery struct {
	// Parts lists the partitions this node serves for the request,
	// strictly ascending; the node answers them with one partial.
	Parts []int
	Req   core.Request // Dataset is the cluster-wide name
	// Floor is the best floor the router knows at send time, in the
	// result scale: K items score at least it (-Inf for none).
	Floor float64
}

// encodeQuery serializes one node's slice of a request: a header with
// what the request body leaves out (the partition list, Budget) or what
// changes per send (floor: the best floor an earlier round's partials
// proved, so a partition covered again starts pre-pruned), then body,
// the request's canonical bytes (core.AppendRequest), which the router
// computes once per read. Workers does not cross the wire: it never
// changes an answer.
//
//	version u8 | nparts u64 | part u64 ... | budget u64 | floor f64 | body
func encodeQuery(q nodeQuery, body []byte) []byte {
	b := make([]byte, 0, 1+8*(len(q.Parts)+3)+len(body))
	b = canon.AppendUint(append(b, wireVersion), uint64(len(q.Parts)))
	for _, p := range q.Parts {
		b = canon.AppendUint(b, uint64(p))
	}
	b = canon.AppendUint(b, uint64(q.Req.Budget))
	b = canon.AppendFloat(b, q.Floor)
	return append(b, body...)
}

func decodeQuery(payload []byte) (nodeQuery, error) {
	var q nodeQuery
	r := canon.NewReader(payload)
	err := decodeVersioned(r, func() error {
		n, err := r.Count(8)
		if err != nil {
			return err
		}
		if n < 1 || n > maxWireParts {
			return fmt.Errorf("%w: %d partitions (want 1 to %d)", canon.ErrCorrupt, n, maxWireParts)
		}
		q.Parts = make([]int, n)
		for i := range q.Parts {
			p, err := readInt(r, math.MaxInt32)
			if err != nil {
				return err
			}
			// Strictly ascending: one encoding per set, and no partition
			// served twice into one partial.
			if i > 0 && int(p) <= q.Parts[i-1] {
				return fmt.Errorf("%w: partition list not strictly ascending", canon.ErrCorrupt)
			}
			q.Parts[i] = int(p)
		}
		budget, err := readInt(r, math.MaxInt32)
		if err != nil {
			return err
		}
		if q.Floor, err = r.Float(); err != nil {
			return err
		}
		if q.Req, err = core.DecodeRequest(r.Rest()); err != nil {
			return err
		}
		if q.Req.K > maxWireK {
			return fmt.Errorf("%w: K %d over the wire limit %d", canon.ErrCorrupt, q.Req.K, maxWireK)
		}
		q.Req.Budget = int(budget)
		return nil
	})
	return q, err
}

// ---- 'R' ----

// PartialStats is the node-side slice of QueryStats that survives the
// wire: the counters that sum across partitions.
type PartialStats struct {
	Evaluations int
	Examined    int
	Pruned      int
	Shards      int
	Truncated   bool
}

// Partial is one node's contribution to a scatter-gathered query: the
// exact top-K over the partitions its 'Q' listed (IDs already lifted
// into the global space), best first, and the summable stats.
type Partial struct {
	Items []topk.Item
	Stats PartialStats
}

// encodePartial serializes a partial result. Item payloads cross the
// wire only for the []int strata lists geology queries attach; other
// payload types are dropped (no current query family produces them).
func encodePartial(p Partial) []byte {
	b := canon.AppendUint([]byte{wireVersion}, uint64(p.Stats.Evaluations))
	b = canon.AppendUint(b, uint64(p.Stats.Examined))
	b = canon.AppendUint(b, uint64(p.Stats.Pruned))
	b = canon.AppendUint(b, uint64(p.Stats.Shards))
	b = canon.AppendBool(b, p.Stats.Truncated)
	b = canon.AppendUint(b, uint64(len(p.Items)))
	for _, it := range p.Items {
		b = canon.AppendUint(b, uint64(it.ID))
		b = canon.AppendFloat(b, it.Score)
		strata, ok := it.Payload.([]int)
		b = canon.AppendBool(b, ok)
		if ok {
			b = canon.AppendUint(b, uint64(len(strata)))
			for _, s := range strata {
				b = canon.AppendUint(b, uint64(s))
			}
		}
	}
	return b
}

func decodePartial(payload []byte) (Partial, error) {
	var p Partial
	r := canon.NewReader(payload)
	err := decodeVersioned(r, func() error {
		var err error
		for _, dst := range [4]*int{&p.Stats.Evaluations, &p.Stats.Examined, &p.Stats.Pruned, &p.Stats.Shards} {
			v, err := readInt(r, math.MaxInt64/2)
			if err != nil {
				return err
			}
			*dst = int(v)
		}
		if p.Stats.Truncated, err = r.Bool(); err != nil {
			return err
		}
		// An item is at least an ID, a score, and a payload flag.
		n, err := r.Count(17)
		if err != nil {
			return err
		}
		if n > 0 {
			p.Items = make([]topk.Item, n)
		}
		for i := range p.Items {
			it := &p.Items[i]
			if it.ID, err = readInt(r, math.MaxInt64); err != nil {
				return err
			}
			if it.Score, err = r.Float(); err != nil {
				return err
			}
			hasStrata, err := r.Bool()
			if err != nil {
				return err
			}
			if !hasStrata {
				continue
			}
			m, err := r.Count(8)
			if err != nil {
				return err
			}
			strata := make([]int, m)
			for j := range strata {
				s, err := readInt(r, math.MaxInt32)
				if err != nil {
					return err
				}
				strata[j] = int(s)
			}
			it.Payload = strata
		}
		return nil
	})
	return p, err
}

// ---- 'E' ----

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
	if r.Remaining() != 0 {
		return "", "", fmt.Errorf("%w: %d trailing bytes", canon.ErrCorrupt, r.Remaining())
	}
	return code, msg, nil
}

// ---- 'A' and 'K' ----

// Append payload kinds inside an 'A' frame.
const (
	appendTuples = 't'
	appendSeries = 's'
	appendWells  = 'w'
)

// AppendBatch is one sequenced delta batch for one partition — the
// decoded form of an 'A' frame. Exactly one of Tuples/Series/Wells is
// non-empty. Base is the global tuple row base the batch lands at
// (unused for series and wells, whose IDs are intrinsic to the rows).
type AppendBatch struct {
	Dataset string
	Part    int
	Seq     uint64
	Base    int64
	Tuples  [][]float64
	Series  []synth.RegionSeries
	Wells   []synth.WellLog
}

// Rows counts the batch's rows regardless of kind.
func (b AppendBatch) Rows() int {
	return len(b.Tuples) + len(b.Series) + len(b.Wells)
}

// encodeAppend serializes an 'A' payload.
func encodeAppend(b AppendBatch) ([]byte, error) {
	out := canon.AppendString([]byte{wireVersion}, b.Dataset)
	out = canon.AppendUint(out, uint64(b.Part))
	out = canon.AppendUint(out, b.Seq)
	out = canon.AppendUint(out, uint64(b.Base))
	kinds := 0
	for _, nonEmpty := range []bool{len(b.Tuples) > 0, len(b.Series) > 0, len(b.Wells) > 0} {
		if nonEmpty {
			kinds++
		}
	}
	if kinds != 1 {
		return nil, fmt.Errorf("cluster: append batch needs exactly one non-empty payload, have %d", kinds)
	}
	switch {
	case len(b.Tuples) > 0:
		out = append(out, appendTuples)
		out = canon.AppendUint(out, uint64(len(b.Tuples)))
		for _, row := range b.Tuples {
			out = canon.AppendFloats(out, row)
		}
	case len(b.Series) > 0:
		out = append(out, appendSeries)
		out = canon.AppendUint(out, uint64(len(b.Series)))
		for _, rs := range b.Series {
			out = canon.AppendUint(out, uint64(int64(rs.Region)))
			out = canon.AppendUint(out, uint64(len(rs.Days)))
			for _, d := range rs.Days {
				out = canon.AppendBool(out, d.Rain)
				out = canon.AppendFloat(out, d.RainMM)
				out = canon.AppendFloat(out, d.TempC)
			}
		}
	default:
		out = append(out, appendWells)
		out = canon.AppendUint(out, uint64(len(b.Wells)))
		for _, w := range b.Wells {
			out = canon.AppendUint(out, uint64(int64(w.Well)))
			out = canon.AppendUint(out, uint64(len(w.Strata)))
			for _, s := range w.Strata {
				out = canon.AppendUint(out, uint64(s.Lith))
				out = canon.AppendFloat(out, s.TopFt)
				out = canon.AppendFloat(out, s.ThickFt)
				out = canon.AppendFloat(out, s.GammaAPI)
			}
			out = canon.AppendFloats(out, w.Gamma)
		}
	}
	return out, nil
}

func decodeAppend(payload []byte) (AppendBatch, error) {
	var b AppendBatch
	r := canon.NewReader(payload)
	err := decodeVersioned(r, func() error {
		var err error
		if b.Dataset, err = r.String(); err != nil {
			return err
		}
		part, err := readInt(r, math.MaxInt32)
		if err != nil {
			return err
		}
		b.Part = int(part)
		if b.Seq, err = r.Uint(); err != nil {
			return err
		}
		if b.Base, err = readInt(r, math.MaxInt64); err != nil {
			return err
		}
		kind, err := r.Byte()
		if err != nil {
			return err
		}
		switch kind {
		case appendTuples:
			err = decodeTuples(r, &b)
		case appendSeries:
			err = decodeSeries(r, &b)
		case appendWells:
			err = decodeWells(r, &b)
		default:
			err = fmt.Errorf("%w: append kind %q", canon.ErrCorrupt, kind)
		}
		if err == nil && b.Rows() == 0 {
			err = fmt.Errorf("%w: empty append batch", canon.ErrCorrupt)
		}
		return err
	})
	return b, err
}

func decodeTuples(r *canon.Reader, b *AppendBatch) error {
	// A row is at least a count prefix.
	n, err := r.Count(8)
	if err != nil {
		return err
	}
	b.Tuples = make([][]float64, n)
	for i := range b.Tuples {
		if b.Tuples[i], err = r.Floats(); err != nil {
			return err
		}
	}
	return nil
}

func decodeSeries(r *canon.Reader, b *AppendBatch) error {
	// A region is at least an ID and a day count.
	n, err := r.Count(16)
	if err != nil {
		return err
	}
	b.Series = make([]synth.RegionSeries, n)
	for i := range b.Series {
		rs := &b.Series[i]
		id, err := r.Uint()
		if err != nil {
			return err
		}
		rs.Region = int(int64(id))
		// A day is a rain flag plus two floats.
		days, err := r.Count(17)
		if err != nil {
			return err
		}
		rs.Days = make([]synth.DayWeather, days)
		for j := range rs.Days {
			d := &rs.Days[j]
			if d.Rain, err = r.Bool(); err != nil {
				return err
			}
			if d.RainMM, err = r.Float(); err != nil {
				return err
			}
			if d.TempC, err = r.Float(); err != nil {
				return err
			}
		}
	}
	return nil
}

func decodeWells(r *canon.Reader, b *AppendBatch) error {
	// A well is at least an ID, a strata count, and a trace count.
	n, err := r.Count(24)
	if err != nil {
		return err
	}
	b.Wells = make([]synth.WellLog, n)
	for i := range b.Wells {
		w := &b.Wells[i]
		id, err := r.Uint()
		if err != nil {
			return err
		}
		w.Well = int(int64(id))
		// A stratum is a lithology plus three floats.
		strata, err := r.Count(32)
		if err != nil {
			return err
		}
		w.Strata = make([]synth.Stratum, strata)
		for j := range w.Strata {
			s := &w.Strata[j]
			lith, err := readInt(r, math.MaxInt32)
			if err != nil {
				return err
			}
			s.Lith = synth.Lithology(lith)
			if s.TopFt, err = r.Float(); err != nil {
				return err
			}
			if s.ThickFt, err = r.Float(); err != nil {
				return err
			}
			if s.GammaAPI, err = r.Float(); err != nil {
				return err
			}
		}
		if w.Gamma, err = r.Floats(); err != nil {
			return err
		}
	}
	return nil
}

// appendAck is the decoded 'K' payload.
type appendAck struct {
	Seq uint64
	Dup bool   // the batch's seq was already applied; nothing changed
	Gen uint64 // the dataset's generation after the batch
}

func encodeAppendAck(a appendAck) []byte {
	b := canon.AppendUint([]byte{wireVersion}, a.Seq)
	b = canon.AppendBool(b, a.Dup)
	return canon.AppendUint(b, a.Gen)
}

func decodeAppendAck(payload []byte) (appendAck, error) {
	var a appendAck
	r := canon.NewReader(payload)
	err := decodeVersioned(r, func() error {
		var err error
		if a.Seq, err = r.Uint(); err != nil {
			return err
		}
		if a.Dup, err = r.Bool(); err != nil {
			return err
		}
		a.Gen, err = r.Uint()
		return err
	})
	return a, err
}

// ---- 'U', 'S', 'I' and 'Y': the partition record ----

// SeqEntry is the one per-partition record the wire carries: a 'U'
// report holds one per partition, 'S' and 'I' name the partition a
// repair session is for, and 'Y' is the cursor a snapshot was cut at
// (and, echoed back, the one installed). LastSeq is the last applied
// sequence number. Watermark is Offset plus the partition's local
// logical rows; Offset lifts the partition's tuple IDs into the global
// space (0 for other kinds), so for tuples the max watermark over
// partitions is the next free global row ID. Kind and Width are the
// dataset's data kind and tuple width where the node can tell (some
// partition of the dataset holds rows locally) and 0 where it cannot —
// a restarted router unions reports across replicas to rediscover every
// dataset's kind, and checks appends against the width.
type SeqEntry struct {
	Dataset   string
	Part      int
	LastSeq   uint64
	Watermark int64
	Offset    int64
	Kind      DataKind
	Width     int
}

// seqEntrySize is an entry's minimum encoded size: a name length plus
// six fixed ints.
const seqEntrySize = 56

// encodeSeqStateReq serializes the router's 'U' request: a dataset
// filter, "" for every partition the node holds.
func encodeSeqStateReq(dataset string) []byte {
	return canon.AppendString([]byte{wireVersion}, dataset)
}

func decodeSeqStateReq(payload []byte) (string, error) {
	var ds string
	r := canon.NewReader(payload)
	err := decodeVersioned(r, func() error {
		var err error
		ds, err = r.String()
		return err
	})
	return ds, err
}

// encodeSeqState serializes a 'U' report: a count, then the entries.
func encodeSeqState(entries []SeqEntry) []byte {
	b := canon.AppendUint([]byte{wireVersion}, uint64(len(entries)))
	for _, e := range entries {
		b = canon.AppendString(b, e.Dataset)
		b = canon.AppendUint(b, uint64(e.Part))
		b = canon.AppendUint(b, e.LastSeq)
		b = canon.AppendUint(b, uint64(e.Watermark))
		b = canon.AppendUint(b, uint64(e.Offset))
		b = canon.AppendUint(b, uint64(e.Kind))
		b = canon.AppendUint(b, uint64(e.Width))
	}
	return b
}

func decodeSeqState(payload []byte) ([]SeqEntry, error) {
	var out []SeqEntry
	r := canon.NewReader(payload)
	err := decodeVersioned(r, func() error {
		n, err := r.Count(seqEntrySize)
		if err != nil {
			return err
		}
		out = make([]SeqEntry, n)
		for i := range out {
			if out[i], err = decodeSeqEntry(r); err != nil {
				return err
			}
		}
		return nil
	})
	return out, err
}

func decodeSeqEntry(r *canon.Reader) (SeqEntry, error) {
	var e SeqEntry
	var err error
	if e.Dataset, err = r.String(); err != nil {
		return e, err
	}
	part, err := readInt(r, math.MaxInt32)
	if err != nil {
		return e, err
	}
	e.Part = int(part)
	if e.LastSeq, err = r.Uint(); err != nil {
		return e, err
	}
	if e.Watermark, err = readInt(r, math.MaxInt64); err != nil {
		return e, err
	}
	if e.Offset, err = readInt(r, uint64(e.Watermark)); err != nil {
		return e, err
	}
	kind, err := readInt(r, uint64(KindScene))
	if err != nil {
		return e, err
	}
	e.Kind = DataKind(kind)
	width, err := readInt(r, math.MaxInt32)
	e.Width = int(width)
	return e, err
}

// encodeRecord serializes the one-entry payload of 'S', 'I' and 'Y'.
func encodeRecord(e SeqEntry) []byte { return encodeSeqState([]SeqEntry{e}) }

func decodeRecord(payload []byte) (SeqEntry, error) {
	entries, err := decodeSeqState(payload)
	if err == nil && len(entries) != 1 {
		err = fmt.Errorf("%w: %d records, want 1", canon.ErrCorrupt, len(entries))
	}
	if err != nil {
		return SeqEntry{}, err
	}
	return entries[0], nil
}

// ---- 'D' ----

// encodeChunk frames one piece of one snapshot file. The data bytes
// follow the name with no further framing: the decoder takes
// everything after the name, so chunks cost no per-byte overhead.
func encodeChunk(name string, data []byte) []byte {
	return append(canon.AppendString([]byte{wireVersion}, name), data...)
}

func decodeChunk(payload []byte) (name string, data []byte, err error) {
	r := canon.NewReader(payload)
	err = decodeVersioned(r, func() error {
		var err error
		name, err = r.String()
		data = r.Rest()
		return err
	})
	return name, data, err
}
