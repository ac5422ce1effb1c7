// Fuzzing for every byte decoder that faces the network, alongside
// FuzzRequestCodec in internal/core (the body of a 'Q' frame).
// FuzzWirePayloads is keyed by frame type and pins one property for
// every payload decoder: a malformed payload is refused with
// canon.ErrCorrupt — never a panic, never an oversized allocation — and
// a payload that decodes re-encodes to the identical bytes.
// FuzzQueryCodec, FuzzPartialCodec, FuzzAppendCodec and
// FuzzSeqStateCodec run the same check pinned to 'Q', 'R', 'A' and 'U'
// over their committed corpora. FuzzFrameStream: arbitrary bytes fed to
// the node's connection loop and to the router's demux end in a typed
// refusal or a clean close. The committed seed corpora in testdata/fuzz
// cover well-formed inputs plus truncation and misuse shapes.

package cluster

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"modelir/internal/canon"
	"modelir/internal/core"
	"modelir/internal/linear"
	"modelir/internal/synth"
	"modelir/internal/topk"
)

// frameStreamSeeds is FuzzFrameStream's seed corpus: whole byte streams
// as a router (or anyone who can reach the listener) might send them.
func frameStreamSeeds(t testing.TB) map[string][]byte {
	lm, err := linear.New([]string{"a", "b", "c"}, []float64{1, -0.5, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	q := queryPayload(t, core.Request{Dataset: "gauss", Query: core.LinearQuery{Model: lm}, K: 4}, []int{0}, math.Inf(-1))
	floored := queryPayload(t, core.Request{Dataset: "gauss", Query: core.LinearQuery{Model: lm}, K: 4}, []int{0}, 2.5)
	a, err := encodeAppend(AppendBatch{Dataset: "gauss", Part: 0, Seq: 1, Base: 64, Tuples: [][]float64{{1, 2, 3}}})
	if err != nil {
		t.Fatal(err)
	}
	hugeK := queryPayload(t, core.Request{Dataset: "gauss", Query: core.LinearQuery{Model: lm}, K: 1 << 30}, []int{0}, math.Inf(-1))
	cat := func(frames ...[]byte) []byte { return bytes.Join(frames, nil) }
	query, cancel := frameBytes(frameQuery, 1, q), frameBytes(frameCancel, 1, nil)
	return map[string][]byte{
		"seed-query-floor-cancel": cat(frameBytes(frameQuery, 1, floored), cancel),
		"seed-append":             frameBytes(frameAppend, 2, a),
		"seed-interleaved": cat(query, frameBytes(frameQuery, 2, floored), frameBytes(frameHealth, 3, nil),
			frameBytes(frameCancel, 2, nil), frameBytes(frameSeqState, 4, encodeSeqStateReq("")), cancel),
		"seed-truncated-header": query[:5],
		"seed-truncated-body":   query[:len(query)-3],
		"seed-unknown-type":     cat(frameBytes(frameHealth, 1, nil), frameBytes('z', 2, []byte("x"))),
		"seed-stream-reuse":     cat(query, query),
		// A K that would size a 32 GiB heap: found by this fuzzer.
		"seed-huge-k":   frameBytes(frameQuery, 1, hugeK),
		"seed-over-cap": cat(frameBytes(frameHealth, 9, nil), []byte{0xff, 0xff, 0xff, 0xff, frameCancel, 0, 0, 0, 1}),
		// A repair session's opening frames, as a donor and as a stale
		// replica (whose install of this bogus snapshot is refused).
		"seed-resync": frameBytes(frameResyncReq, 0, encodeRecord(SeqEntry{Dataset: "gauss"})),
		"seed-install": cat(frameBytes(frameInstall, 0, encodeRecord(SeqEntry{Dataset: "gauss"})),
			frameBytes(frameResyncChunk, 0, encodeChunk("MANIFEST.json", []byte("{}"))),
			frameBytes(frameResyncState, 0, encodeRecord(SeqEntry{Dataset: "gauss", LastSeq: 1, Watermark: 1}))),
		// The same shapes as a node would send them back.
		"seed-replies": cat(frameBytes(frameResult, 1, encodePartial(Partial{Items: []topk.Item{{ID: 1, Score: 3}}})),
			frameBytes(frameError, 2, encodeError("exec", "boom")), frameBytes(frameResult, 1, encodePartial(Partial{}))),
	}
}

// appendSeeds is the 'A' seed corpus: one batch per row kind plus
// truncation and misuse shapes.
func appendSeeds(t testing.TB) map[string][]byte {
	enc := func(b AppendBatch) []byte {
		p, err := encodeAppend(b)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	tuples := enc(AppendBatch{Dataset: "gauss", Part: 1, Seq: 7, Base: 64, Tuples: [][]float64{{1, 2, 3}, {-0.5, math.Inf(1), 0}}})
	empty := []byte{wireVersion}
	empty = canon.AppendString(empty, "gauss")
	empty = canon.AppendUint(canon.AppendUint(canon.AppendUint(empty, 0), 1), 0)
	empty = canon.AppendUint(append(empty, appendTuples), 0)
	return map[string][]byte{
		"seed-tuples": tuples,
		"seed-series": enc(AppendBatch{Dataset: "weather", Seq: 2, Series: []synth.RegionSeries{
			{Region: 4, Days: []synth.DayWeather{{Rain: true, RainMM: 3.5, TempC: 21}, {TempC: 30}}},
		}}),
		"seed-wells": enc(AppendBatch{Dataset: "basin", Part: 2, Seq: 9, Wells: []synth.WellLog{
			{Well: 11, Strata: []synth.Stratum{{Lith: synth.Shale, TopFt: 100, ThickFt: 12, GammaAPI: 80}}, Gamma: []float64{70, 82.5}},
		}}),
		"seed-truncated":   tuples[:len(tuples)-3],
		"seed-bad-version": append([]byte{wireVersion + 1}, tuples[1:]...),
		"seed-empty-batch": empty,
	}
}

// seqStateSeeds is the 'U' seed corpus: the router's request, the
// node's report, and misuse shapes of both.
func seqStateSeeds() map[string][]byte {
	report := encodeSeqState([]SeqEntry{
		{Dataset: "gauss", Part: 0, LastSeq: 3, Watermark: 128, Offset: 64, Kind: KindTuples, Width: 3},
		{Dataset: "basin", Part: 1},
	})
	return map[string][]byte{
		"seed-request-all":     encodeSeqStateReq(""),
		"seed-request-dataset": encodeSeqStateReq("gauss"),
		"seed-report":          report,
		"seed-report-empty":    encodeSeqState(nil),
		"seed-bad-kind":        encodeSeqState([]SeqEntry{{Dataset: "x", Kind: KindScene + 1}}),
		"seed-trailing":        append(append([]byte(nil), report...), 0),
	}
}

// partialSeeds is the 'R' seed corpus.
func partialSeeds() map[string][]byte {
	full := encodePartial(Partial{Items: []topk.Item{{ID: 1, Score: 2}}})
	return map[string][]byte{
		"seed-empty": encodePartial(Partial{}),
		"seed-items": encodePartial(Partial{
			Items: []topk.Item{{ID: 3, Score: 9.25}, {ID: 7, Score: 9.25}, {ID: 9, Score: -1}},
			Stats: PartialStats{Evaluations: 100, Examined: 80, Pruned: 20, Shards: 4},
		}),
		"seed-geology-payload": encodePartial(Partial{
			Items: []topk.Item{{ID: 41, Score: 0.75, Payload: []int{2, 5, 9}}},
			Stats: PartialStats{Truncated: true},
		}),
		"seed-truncated":   full[:len(full)-5],
		"seed-bad-version": append([]byte{99}, full[1:]...),
	}
}

// recordSeeds is the seed corpus of the one-record payloads 'S', 'I'
// and 'Y'.
func recordSeeds() map[string][]byte {
	cut := encodeRecord(SeqEntry{Dataset: "gauss", Part: 2, LastSeq: 9, Watermark: 700, Offset: 600, Kind: KindTuples, Width: 3})
	return map[string][]byte{
		"seed-ref":            encodeRecord(SeqEntry{Dataset: "gauss", Part: 2}),
		"seed-cut":            cut,
		"seed-two-records":    encodeSeqState([]SeqEntry{{Dataset: "a"}, {Dataset: "b"}}),
		"seed-no-record":      encodeSeqState(nil),
		"seed-offset-past-wm": encodeRecord(SeqEntry{Dataset: "gauss", Watermark: 5, Offset: 6}),
		"seed-truncated":      cut[:len(cut)-1],
	}
}

// querySeeds is the 'Q' seed corpus: 'Q' payloads over one and several
// partitions, with and without a floor, plus truncation and misuse
// shapes of the header.
func querySeeds(t testing.TB) map[string][]byte {
	lm, err := linear.New([]string{"a", "b", "c"}, []float64{1, -0.5, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	lin := core.Request{Dataset: "gauss", Query: core.LinearQuery{Model: lm}, K: 4, Budget: 500}
	one := queryPayload(t, lin, []int{0}, math.Inf(-1))
	two := queryPayload(t, core.Request{Dataset: "basin", K: 8, Query: core.GeologyQuery{
		Sequence: []synth.Lithology{synth.Shale, synth.Sandstone}, MaxGapFt: 10,
	}}, []int{0, 2}, 1.5)
	body, err := core.AppendRequest(nil, lin)
	if err != nil {
		t.Fatal(err)
	}
	three := encodeQuery(nodeQuery{Parts: []int{1, 3, 4}, Req: lin, Floor: -2}, body)
	nan := encodeQuery(nodeQuery{Parts: []int{0}, Req: lin, Floor: math.NaN()}, body)
	// Headers whose partition list is out of order, repeated, empty, or
	// claims more entries than the payload holds.
	list := func(parts ...uint64) []byte {
		b := []byte{wireVersion}
		b = canon.AppendUint(b, uint64(len(parts)))
		for _, p := range parts {
			b = canon.AppendUint(b, p)
		}
		return append(b, one[1+16:]...)
	}
	huge := append([]byte{wireVersion}, canon.AppendUint(nil, 1<<60)...)
	return map[string][]byte{
		"seed-one-part":       one,
		"seed-two-parts":      two,
		"seed-three-parts":    three,
		"seed-nan-floor":      nan,
		"seed-truncated":      two[:len(two)-3],
		"seed-bad-version":    append([]byte{wireVersion - 1}, one[1:]...),
		"seed-unsorted-parts": list(2, 1),
		"seed-repeated-part":  list(1, 1),
		"seed-no-parts":       list(),
		"seed-huge-count":     append(huge, one[1+16:]...),
	}
}

// TestRegenerateFuzzCorpus rewrites the committed seed corpora from the
// current codecs when REGEN_CORPUS is set; otherwise it verifies every
// corpus is current, since a codec change that is not regenerated starts
// the fuzzers from noise. Run with
//
//	REGEN_CORPUS=1 go test ./internal/cluster/ -run TestRegenerateFuzzCorpus
//
// after a deliberate wire-format change.
func TestRegenerateFuzzCorpus(t *testing.T) {
	corpusFile := func(vals ...string) string {
		return "go test fuzz v1\n" + strings.Join(vals, "\n") + "\n"
	}
	bytesVal := func(b []byte) string { return "[]byte(" + strconv.Quote(string(b)) + ")" }
	current := map[string]map[string]string{
		"FuzzFrameStream":  {},
		"FuzzWirePayloads": {},
	}
	for name, b := range frameStreamSeeds(t) {
		current["FuzzFrameStream"][name] = corpusFile(bytesVal(b))
	}
	seeds := wireSeeds(t)
	for typ, set := range seeds {
		for name, b := range set {
			current["FuzzWirePayloads"][string(typ)+"-"+name] = corpusFile(fmt.Sprintf("byte(%q)", typ), bytesVal(b))
		}
	}
	for fuzzer, typ := range map[string]byte{
		"FuzzQueryCodec": frameQuery, "FuzzPartialCodec": frameResult,
		"FuzzAppendCodec": frameAppend, "FuzzSeqStateCodec": frameSeqState,
	} {
		current[fuzzer] = map[string]string{}
		for name, b := range seeds[typ] {
			current[fuzzer][name] = corpusFile(bytesVal(b))
		}
	}
	regen := os.Getenv("REGEN_CORPUS") != ""
	for fuzzer, set := range current {
		dir := filepath.Join("testdata", "fuzz", fuzzer)
		if regen {
			if err := os.RemoveAll(dir); err != nil {
				t.Fatal(err)
			}
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
		}
		for name, want := range set {
			path := filepath.Join(dir, name)
			if regen {
				if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
					t.Fatal(err)
				}
			} else if raw, err := os.ReadFile(path); err != nil || string(raw) != want {
				t.Fatalf("%s/%s missing or stale (run with REGEN_CORPUS=1): %v", fuzzer, name, err)
			}
		}
	}
}

// TestQueryBodyIsCanonicalRequest pins the 'Q' layout: a header
// (version, partition list, Budget, floor) and then the
// request's canonical bytes from the encoder the result cache keys
// with, the same whatever the header holds. Workers stays off the wire:
// it never changes an answer.
func TestQueryBodyIsCanonicalRequest(t *testing.T) {
	lm, err := linear.New([]string{"a", "b", "c"}, []float64{1, -0.5, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	req := core.Request{Dataset: "gauss", Query: core.LinearQuery{Model: lm}, K: 4}
	key, err := core.AppendRequest(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	type header struct {
		parts           []int
		workers, budget int
		floor           float64
	}
	for _, h := range []header{{[]int{0}, 0, 0, math.Inf(-1)}, {[]int{3}, 7, 0, 2.5}, {[]int{0, 1, 4}, 2, 500, -1}} {
		r := req
		r.Workers, r.Budget = h.workers, h.budget
		payload := encodeQuery(nodeQuery{Parts: h.parts, Req: r, Floor: h.floor}, key)
		if hdr := 1 + 8*(len(h.parts)+3); len(payload) != hdr+len(key) || !bytes.Equal(payload[hdr:], key) {
			t.Fatalf("header %+v: body differs from the request's canonical bytes", h)
		}
		q, err := decodeQuery(payload)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(q.Parts, h.parts) || q.Req.Workers != 0 ||
			q.Req.Budget != h.budget || q.Floor != h.floor || q.Req.Dataset != "gauss" {
			t.Fatalf("header %+v decoded as parts %v, %+v, floor %v", h, q.Parts, q.Req, q.Floor)
		}
	}
	// A version-2 'Q' (one partition per frame) is refused, not misread.
	payload := encodeQuery(nodeQuery{Parts: []int{0}, Req: req}, key)
	payload[0] = 2
	if _, err := decodeQuery(payload); !errors.Is(err, canon.ErrCorrupt) {
		t.Fatalf("version-2 query: err %v, want canon.ErrCorrupt", err)
	}
}

// TestQueryPartListCannotBuyAllocation: a 'Q' header's partition count
// is a length read off the wire, so it is checked against the bytes that
// follow and against maxWireParts before the list is allocated.
func TestQueryPartListCannotBuyAllocation(t *testing.T) {
	claim := func(n uint64, body int) []byte {
		b := append([]byte{wireVersion}, canon.AppendUint(nil, n)...)
		return append(b, make([]byte, body)...)
	}
	for _, tc := range []struct {
		n    uint64
		body int
	}{
		{1 << 60, 64}, {math.MaxUint64, 0}, {maxWireParts + 1, 8 * (maxWireParts + 8)}, {0, 64},
	} {
		var before, after runtime.MemStats
		payload := claim(tc.n, tc.body)
		runtime.ReadMemStats(&before)
		_, err := decodeQuery(payload)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, canon.ErrCorrupt) {
			t.Fatalf("%d partitions in %d bytes: err %v, want canon.ErrCorrupt", tc.n, tc.body, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 4<<10 {
			t.Fatalf("%d partitions in %d bytes: allocated %d bytes", tc.n, tc.body, grew)
		}
	}
	// The cap itself decodes.
	parts := make([]int, maxWireParts)
	for i := range parts {
		parts[i] = i
	}
	q, err := decodeQuery(queryPayload(t, linearRequest(t), parts, 0))
	if err != nil || len(q.Parts) != maxWireParts {
		t.Fatalf("%d partitions: %d decoded, err %v", maxWireParts, len(q.Parts), err)
	}
}

// wireSeeds is every payload seed corpus, by frame type.
func wireSeeds(t testing.TB) map[byte]map[string][]byte {
	ack := encodeAppendAck(appendAck{Seq: 12, Dup: true, Gen: 40})
	chunk := encodeChunk("gauss#0.seg", []byte("section bytes"))
	return map[byte]map[string][]byte{
		frameQuery:       querySeeds(t),
		frameResult:      partialSeeds(),
		frameAppend:      appendSeeds(t),
		frameSeqState:    seqStateSeeds(),
		frameResyncReq:   recordSeeds(),
		frameInstall:     recordSeeds(),
		frameResyncState: recordSeeds(),
		frameAppendAck: {
			"seed-ack":      ack,
			"seed-bad-flag": append(append(ack[:9:9], 2), ack[10:]...),
			"seed-trailing": append(append([]byte(nil), ack...), 0),
		},
		frameResyncChunk: {
			"seed-chunk":       chunk,
			"seed-empty-data":  encodeChunk("MANIFEST.json", nil),
			"seed-bad-version": append([]byte{wireVersion - 1}, chunk[1:]...),
		},
		frameError: {
			"seed-error":    encodeError("exec", "boom"),
			"seed-trailing": append(encodeError("refused", ""), 1),
		},
	}
}

// payloadCodecs maps each frame type to its payload decoders, each
// paired with its encoder: a codec decodes data and returns the value's
// encoding. 'U' has one per direction; 'H' and 'C' carry no payload.
func payloadCodecs(t *testing.T) map[byte][]func(data []byte) ([]byte, error) {
	record := func(data []byte) ([]byte, error) {
		e, err := decodeRecord(data)
		return encodeRecord(e), err
	}
	return map[byte][]func([]byte) ([]byte, error){
		frameQuery: {func(data []byte) ([]byte, error) {
			q, err := decodeQuery(data)
			if err != nil {
				return nil, err
			}
			body, err := core.AppendRequest(nil, q.Req)
			if err != nil {
				t.Fatalf("decoded request does not encode: %v", err)
			}
			return encodeQuery(q, body), nil
		}},
		frameResult: {func(data []byte) ([]byte, error) {
			p, err := decodePartial(data)
			return encodePartial(p), err
		}},
		frameAppend: {func(data []byte) ([]byte, error) {
			b, err := decodeAppend(data)
			if err != nil {
				return nil, err
			}
			enc, err := encodeAppend(b)
			if err != nil {
				t.Fatalf("decoded batch does not encode: %v", err)
			}
			return enc, nil
		}},
		frameAppendAck: {func(data []byte) ([]byte, error) {
			a, err := decodeAppendAck(data)
			return encodeAppendAck(a), err
		}},
		frameSeqState: {func(data []byte) ([]byte, error) {
			ds, err := decodeSeqStateReq(data)
			return encodeSeqStateReq(ds), err
		}, func(data []byte) ([]byte, error) {
			entries, err := decodeSeqState(data)
			return encodeSeqState(entries), err
		}},
		frameResyncReq:   {record},
		frameInstall:     {record},
		frameResyncState: {record},
		frameResyncChunk: {func(data []byte) ([]byte, error) {
			name, chunk, err := decodeChunk(data)
			return encodeChunk(name, chunk), err
		}},
		frameError: {func(data []byte) ([]byte, error) {
			code, msg, err := decodeError(data)
			return encodeError(code, msg), err
		}},
	}
}

// checkPayload decodes data as a payload of frame type typ: each of the
// type's decoders must refuse it with canon.ErrCorrupt or re-encode it
// to exactly data.
func checkPayload(t *testing.T, typ byte, data []byte) {
	for i, codec := range payloadCodecs(t)[typ] {
		enc, err := codec(data)
		if err != nil {
			if !errors.Is(err, canon.ErrCorrupt) {
				t.Fatalf("%q decoder %d: untyped decode error: %v", typ, i, err)
			}
			continue
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("%q decoder %d re-encode differs:\n in: %x\nout: %x", typ, i, data, enc)
		}
	}
}

// FuzzWirePayloads: every payload decoder, chosen by frame type, either
// refuses with canon.ErrCorrupt or re-encodes to the bytes it read.
func FuzzWirePayloads(f *testing.F) {
	f.Fuzz(checkPayload)
}

// The per-codec fuzzers: FuzzWirePayloads pinned to one frame type.
func FuzzQueryCodec(f *testing.F)    { fuzzPayloadType(f, frameQuery) }
func FuzzPartialCodec(f *testing.F)  { fuzzPayloadType(f, frameResult) }
func FuzzAppendCodec(f *testing.F)   { fuzzPayloadType(f, frameAppend) }
func FuzzSeqStateCodec(f *testing.F) { fuzzPayloadType(f, frameSeqState) }

func fuzzPayloadType(f *testing.F, typ byte) {
	addSeeds(f, wireSeeds(f)[typ])
	f.Fuzz(func(t *testing.T, data []byte) { checkPayload(t, typ, data) })
}

// TestWireVersion3Refused: a payload of every versioned type under any
// version but the current one — 3 and 4 included — is refused with
// canon.ErrCorrupt, not misread ('E' carries no version).
func TestWireVersion3Refused(t *testing.T) {
	codecs := payloadCodecs(t)
	for typ, seeds := range wireSeeds(t) {
		if typ == frameError {
			continue
		}
		for name, b := range seeds {
			if len(b) == 0 || b[0] != wireVersion {
				continue
			}
			for v := 0; v <= math.MaxUint8; v++ {
				if v == wireVersion {
					continue
				}
				old := append([]byte{byte(v)}, b[1:]...)
				for i, codec := range codecs[typ] {
					if _, err := codec(old); !errors.Is(err, canon.ErrCorrupt) {
						t.Fatalf("version-%d %q %s, decoder %d: err %v, want canon.ErrCorrupt", v, typ, name, i, err)
					}
				}
			}
		}
	}
}

// TestRecordOffsetWithinWatermark: a record's watermark is its offset
// plus its rows, so a record whose offset passes its watermark is
// refused, and one at its watermark (an empty partition) decodes.
func TestRecordOffsetWithinWatermark(t *testing.T) {
	for _, e := range []SeqEntry{{Dataset: "d", Watermark: 5, Offset: 6}, {Dataset: "d", Offset: 1}} {
		if _, err := decodeRecord(encodeRecord(e)); !errors.Is(err, canon.ErrCorrupt) {
			t.Fatalf("%+v: err %v, want canon.ErrCorrupt", e, err)
		}
	}
	e := SeqEntry{Dataset: "d", Part: 2, LastSeq: 4, Watermark: 6, Offset: 6, Kind: KindTuples, Width: 3}
	if got, err := decodeRecord(encodeRecord(e)); err != nil || got != e {
		t.Fatalf("empty-partition record decoded as %+v, %v", got, err)
	}
}

// FuzzFrameStream feeds arbitrary bytes to both ends of the transport:
// the node's per-connection read loop (over a net.Pipe, replies
// drained) and the router's demux with live streams registered. Neither
// may panic or hang; no frame may come back larger than its type's cap
// or than the bytes that were actually sent; the node's loop must
// return and every goroutine it started must finish; the demux must end
// in a clean close, a truncation, or ErrFrame, with every registered
// stream handed exactly one outcome.
func FuzzFrameStream(f *testing.F) {
	for _, seed := range frameStreamSeeds(f) {
		f.Add(seed)
	}
	f.Add([]byte{})

	topo := Topology{Nodes: []string{"fuzz-node:1"}, Replication: 1}
	node := NewNode(topo.Nodes[0], topo, NodeOptions{Shards: 1})
	pts := make([][]float64, 64)
	for i := range pts {
		pts[i] = []float64{float64(i), float64(i % 7), float64(i % 3)}
	}
	if err := node.AddTuples("gauss", pts); err != nil {
		f.Fatal(err)
	}
	f.Cleanup(node.Close)
	router := NewRouter(topo)
	f.Cleanup(func() { router.Close() })

	f.Fuzz(func(t *testing.T, data []byte) {
		// The framing layer on its own: caps hold, nothing is invented.
		for br := bufio.NewReader(bytes.NewReader(data)); ; {
			typ, _, payload, err := readFrame(br)
			if err != nil {
				if err != io.EOF && err != io.ErrUnexpectedEOF && !errors.Is(err, ErrFrame) {
					t.Fatalf("readFrame: untyped error %v", err)
				}
				break
			}
			if len(payload) > frameCap(typ) || len(payload) > len(data) {
				t.Fatalf("%q frame of %d bytes from %d input bytes (cap %d)", typ, len(payload), len(data), frameCap(typ))
			}
		}

		// Node side.
		client, server := net.Pipe()
		served := make(chan struct{})
		go func() {
			defer close(served)
			node.handle(server)
			server.Close()
		}()
		go io.Copy(io.Discard, client) // ends when either side closes
		_, _ = client.Write(data)      // fails early when the node hangs up on a bad frame
		client.Close()
		<-served
		node.wg.Wait()

		// Router side.
		p := router.peers[topo.Nodes[0]]
		idle, _ := net.Pipe()
		fc := newFconn(idle, 0)
		fc.br = bufio.NewReader(bytes.NewReader(data))
		pc := &peerConn{p: p, fc: fc, done: make(chan struct{}), calls: make(map[uint32]chan reply)}
		var calls []chan reply
		for i := 0; i < 4; i++ {
			_, c, err := pc.open()
			if err != nil {
				t.Fatal(err)
			}
			calls = append(calls, c)
		}
		pc.readLoop()
		if err := pc.err; err != io.EOF && err != io.ErrUnexpectedEOF && !errors.Is(err, ErrFrame) {
			t.Fatalf("demux ended with untyped error %v", err)
		}
		for i, c := range calls {
			select {
			case <-c:
			default:
				t.Fatalf("stream %d was left without an outcome", i+1)
			}
		}
	})
}

// addSeeds adds a named seed set to f in name order, so the seed#N
// numbering is stable from run to run.
func addSeeds(f *testing.F, seeds map[string][]byte) {
	names := make([]string, 0, len(seeds))
	for name := range seeds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add(seeds[name])
	}
}
