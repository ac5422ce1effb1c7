// Fuzzing for every byte decoder that faces the network, alongside
// FuzzRequestCodec in internal/core (the body of a 'Q' frame). Each
// codec fuzzer pins one property: malformed payloads are refused with
// canon.ErrCorrupt — never a panic, never an oversized allocation — and
// a payload that decodes re-encodes to the identical bytes.
// FuzzQueryCodec covers the whole 'Q' (its header and body),
// FuzzPartialCodec 'R', FuzzAppendCodec 'A', FuzzSeqStateCodec both
// directions of 'U'. FuzzFrameStream: arbitrary bytes fed to the
// node's connection loop and to the router's demux end in a typed
// refusal or a clean close. The committed seed corpora in testdata/fuzz
// cover well-formed inputs plus truncation and misuse shapes.

package cluster

import (
	"bufio"
	"bytes"
	"errors"
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
	"time"

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
	a, err := encodeAppend(AppendBatch{Dataset: "gauss", Part: 0, Seq: 1, Base: 64, Tuples: [][]float64{{1, 2, 3}}})
	if err != nil {
		t.Fatal(err)
	}
	hugeK := queryPayload(t, core.Request{Dataset: "gauss", Query: core.LinearQuery{Model: lm}, K: 1 << 30}, []int{0}, math.Inf(-1))
	cat := func(frames ...[]byte) []byte { return bytes.Join(frames, nil) }
	query, floor, cancel := frameBytes(frameQuery, 1, q), frameBytes(frameFloor, 1, encodeFloor(2.5)), frameBytes(frameCancel, 1, nil)
	return map[string][]byte{
		"seed-query-floor-cancel": cat(query, floor, cancel),
		"seed-append":             frameBytes(frameAppend, 2, a),
		"seed-interleaved": cat(query, frameBytes(frameQuery, 2, q), frameBytes(frameHealth, 3, nil),
			frameBytes(frameFloor, 2, encodeFloor(1)), frameBytes(frameSeqState, 4, encodeSeqStateReq("")), floor),
		"seed-truncated-header": query[:5],
		"seed-truncated-body":   query[:len(query)-3],
		"seed-unknown-type":     cat(frameBytes(frameHealth, 1, nil), frameBytes('z', 2, []byte("x"))),
		"seed-stream-reuse":     cat(query, query),
		// A K that would size a 32 GiB heap: found by this fuzzer.
		"seed-huge-k":   frameBytes(frameQuery, 1, hugeK),
		"seed-over-cap": cat(frameBytes(frameHealth, 9, nil), []byte{0xff, 0xff, 0xff, 0xff, frameFloor, 0, 0, 0, 1}),
		// The same shapes as a node would send them back.
		"seed-replies": cat(frameBytes(frameFloor, 1, encodeFloor(3)), frameBytes(frameResult, 1, encodePartial(Partial{Floor: 3})),
			frameBytes(frameError, 2, encodeError("exec", "boom")), frameBytes(frameFloor, 1, encodeFloor(9))),
	}
}

// appendSeeds is FuzzAppendCodec's seed corpus: one batch per row kind
// plus truncation and misuse shapes.
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

// seqStateSeeds is FuzzSeqStateCodec's seed corpus: the router's
// request, the node's report, and misuse shapes of both.
func seqStateSeeds() map[string][]byte {
	report := encodeSeqState([]SeqEntry{
		{Dataset: "gauss", Part: 0, LastSeq: 3, Watermark: 128, Kind: KindTuples},
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

// querySeeds is FuzzQueryCodec's seed corpus: 'Q' payloads over one
// and several partitions, with and without floor publishing, plus
// truncation and misuse shapes of the header.
func querySeeds(t testing.TB) map[string][]byte {
	lm, err := linear.New([]string{"a", "b", "c"}, []float64{1, -0.5, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	lin := core.Request{Dataset: "gauss", Query: core.LinearQuery{Model: lm}, K: 4, Workers: 2, Budget: 500}
	one := queryPayload(t, lin, []int{0}, math.Inf(-1))
	two := queryPayload(t, core.Request{Dataset: "basin", K: 8, Query: core.GeologyQuery{
		Sequence: []synth.Lithology{synth.Shale, synth.Sandstone}, MaxGapFt: 10,
	}}, []int{0, 2}, 1.5)
	body, err := core.AppendRequest(nil, lin)
	if err != nil {
		t.Fatal(err)
	}
	publish := encodeQuery(nodeQuery{Parts: []int{1, 3, 4}, Publish: true, Req: lin, Floor: -2}, body)
	// Headers whose partition list is out of order, repeated, empty, or
	// claims more entries than the payload holds.
	list := func(parts ...uint64) []byte {
		b := []byte{wireVersion, 0}
		b = canon.AppendUint(b, uint64(len(parts)))
		for _, p := range parts {
			b = canon.AppendUint(b, p)
		}
		return append(b, one[2+16:]...)
	}
	huge := append([]byte{wireVersion, 0}, canon.AppendUint(nil, 1<<60)...)
	return map[string][]byte{
		"seed-one-part":       one,
		"seed-two-parts":      two,
		"seed-publish":        publish,
		"seed-truncated":      two[:len(two)-3],
		"seed-bad-version":    append([]byte{wireVersion - 1}, one[1:]...),
		"seed-bad-flag":       append([]byte{wireVersion, 2}, one[2:]...),
		"seed-unsorted-parts": list(2, 1),
		"seed-repeated-part":  list(1, 1),
		"seed-no-parts":       list(),
		"seed-huge-count":     append(huge, one[2+16:]...),
	}
}

// TestRegenerateFuzzCorpus rewrites the committed seed corpora from the
// current codecs when REGEN_CORPUS is set; otherwise it verifies every
// committed well-formed partial still decodes and every other corpus is
// current. Run with
//
//	REGEN_CORPUS=1 go test ./internal/cluster/ -run TestRegenerateFuzzCorpus
//
// after a deliberate wire-format change.
func TestRegenerateFuzzCorpus(t *testing.T) {
	full := encodePartial(Partial{Items: []topk.Item{{ID: 1, Score: 2}}})
	seeds := map[string][]byte{
		"seed-empty": encodePartial(Partial{Floor: math.Inf(-1)}),
		"seed-items": encodePartial(Partial{
			Floor: 12.5,
			Items: []topk.Item{{ID: 3, Score: 9.25}, {ID: 7, Score: 9.25}, {ID: 9, Score: -1}},
			Stats: PartialStats{Evaluations: 100, Examined: 80, Pruned: 20, Shards: 4, Wall: time.Millisecond},
		}),
		"seed-geology-payload": encodePartial(Partial{
			Items: []topk.Item{{ID: 41, Score: 0.75, Payload: []int{2, 5, 9}}},
			Stats: PartialStats{Truncated: true},
		}),
		"seed-truncated":   full[:len(full)-5],
		"seed-bad-version": append([]byte{99}, full[1:]...),
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzPartialCodec")
	current := map[string]map[string][]byte{
		"FuzzFrameStream":   frameStreamSeeds(t),
		"FuzzAppendCodec":   appendSeeds(t),
		"FuzzSeqStateCodec": seqStateSeeds(),
		"FuzzQueryCodec":    querySeeds(t),
	}
	if os.Getenv("REGEN_CORPUS") != "" {
		current["FuzzPartialCodec"] = seeds
		for fuzzer, set := range current {
			d := filepath.Join("testdata", "fuzz", fuzzer)
			if err := os.MkdirAll(d, 0o755); err != nil {
				t.Fatal(err)
			}
			for name, b := range set {
				content := "go test fuzz v1\n[]byte(" + strconv.Quote(string(b)) + ")\n"
				if err := os.WriteFile(filepath.Join(d, name), []byte(content), 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		return
	}
	for _, name := range []string{"seed-empty", "seed-items", "seed-geology-payload"} {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s missing (run with REGEN_CORPUS=1): %v", name, err)
		}
		lines := strings.SplitN(string(raw), "\n", 3)
		if len(lines) < 2 || lines[0] != "go test fuzz v1" {
			t.Fatalf("%s: not a corpus file", name)
		}
		b, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := decodePartial([]byte(b)); err != nil {
			t.Fatalf("%s no longer decodes: %v", name, err)
		}
	}
	// The other seeds are payloads and streams in the current encoding: a
	// codec change must regenerate them, or the fuzzer starts from noise.
	for fuzzer, set := range current {
		for name, b := range set {
			want := "go test fuzz v1\n[]byte(" + strconv.Quote(string(b)) + ")\n"
			raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", fuzzer, name))
			if err != nil || string(raw) != want {
				t.Fatalf("%s/%s missing or stale (run with REGEN_CORPUS=1): %v", fuzzer, name, err)
			}
		}
	}
}

// TestQueryBodyIsCanonicalRequest pins the 'Q' layout: a header
// (version, publish flag, partition list, Workers, Budget, floor) and
// then the request's canonical bytes from the encoder the result cache
// keys with, the same whatever the header holds.
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
		publish         bool
		workers, budget int
		floor           float64
	}
	for _, h := range []header{{[]int{0}, false, 0, 0, math.Inf(-1)}, {[]int{3}, true, 7, 0, 2.5}, {[]int{0, 1, 4}, false, 2, 500, -1}} {
		r := req
		r.Workers, r.Budget = h.workers, h.budget
		payload := encodeQuery(nodeQuery{Parts: h.parts, Publish: h.publish, Req: r, Floor: h.floor}, key)
		if hdr := 2 + 8*(len(h.parts)+4); len(payload) != hdr+len(key) || !bytes.Equal(payload[hdr:], key) {
			t.Fatalf("header %+v: body differs from the request's canonical bytes", h)
		}
		q, err := decodeQuery(payload)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(q.Parts, h.parts) || q.Publish != h.publish || q.Req.Workers != h.workers ||
			q.Req.Budget != h.budget || q.Floor != h.floor || q.Req.Dataset != "gauss" {
			t.Fatalf("header %+v decoded as parts %v publish %v, %+v, floor %v", h, q.Parts, q.Publish, q.Req, q.Floor)
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
		b := append([]byte{wireVersion, 0}, canon.AppendUint(nil, n)...)
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

// FuzzQueryCodec: a 'Q' payload either fails with canon.ErrCorrupt or
// re-encodes — header and canonical body — to itself.
func FuzzQueryCodec(f *testing.F) {
	addSeeds(f, querySeeds(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := decodeQuery(data)
		if err != nil {
			if !errors.Is(err, canon.ErrCorrupt) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		body, err := core.AppendRequest(nil, q.Req)
		if err != nil {
			t.Fatalf("decoded request does not encode: %v", err)
		}
		if enc := encodeQuery(q, body); !bytes.Equal(enc, data) {
			t.Fatalf("re-encode differs:\n in: %x\nout: %x", data, enc)
		}
	})
}

// FuzzAppendCodec: an 'A' payload either fails with canon.ErrCorrupt or
// re-encodes to itself.
func FuzzAppendCodec(f *testing.F) {
	addSeeds(f, appendSeeds(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := decodeAppend(data)
		if err != nil {
			if !errors.Is(err, canon.ErrCorrupt) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		enc, err := encodeAppend(b)
		if err != nil {
			t.Fatalf("decoded batch does not encode: %v", err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("re-encode differs:\n in: %x\nout: %x", data, enc)
		}
	})
}

// FuzzSeqStateCodec: both 'U' decoders — the router's request and the
// node's report — either fail with canon.ErrCorrupt or re-encode to the
// bytes they read.
func FuzzSeqStateCodec(f *testing.F) {
	addSeeds(f, seqStateSeeds())
	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(what string, err error, enc func() []byte) {
			if err != nil {
				if !errors.Is(err, canon.ErrCorrupt) {
					t.Fatalf("%s: untyped decode error: %v", what, err)
				}
				return
			}
			if got := enc(); !bytes.Equal(got, data) {
				t.Fatalf("%s re-encode differs:\n in: %x\nout: %x", what, data, got)
			}
		}
		ds, err := decodeSeqStateReq(data)
		check("request", err, func() []byte { return encodeSeqStateReq(ds) })
		entries, err := decodeSeqState(data)
		check("report", err, func() []byte { return encodeSeqState(entries) })
	})
}

func FuzzPartialCodec(f *testing.F) {
	f.Add(encodePartial(Partial{Floor: math.Inf(-1)}))
	f.Add(encodePartial(Partial{
		Floor: 12.5,
		Items: []topk.Item{{ID: 3, Score: 9.25}, {ID: 7, Score: 9.25}},
		Stats: PartialStats{Evaluations: 100, Examined: 80, Pruned: 20, Shards: 4, Wall: time.Millisecond},
	}))
	f.Add(encodePartial(Partial{
		Floor: 0,
		Items: []topk.Item{{ID: 41, Score: 0.75, Payload: []int{2, 5, 9}}},
		Stats: PartialStats{Truncated: true},
	}))
	f.Add([]byte{})
	f.Add([]byte{wireVersion})

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := decodePartial(data)
		if err != nil {
			return // malformed input rejected cleanly — the property under test
		}
		// Anything that decodes must re-encode to the identical bytes
		// (the canonical encoding is injective) and decode again to an
		// equal value.
		enc := encodePartial(p)
		if !bytes.Equal(enc, data) {
			t.Fatalf("re-encode differs:\n in: %x\nout: %x", data, enc)
		}
		q, err := decodePartial(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if q.Floor != p.Floor && !(math.IsNaN(q.Floor) && math.IsNaN(p.Floor)) {
			t.Fatalf("floor drifted: %v vs %v", q.Floor, p.Floor)
		}
		if len(q.Items) != len(p.Items) || q.Stats != p.Stats {
			t.Fatalf("partial drifted: %+v vs %+v", q, p)
		}
	})
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
		pc := &peerConn{p: p, fc: fc, done: make(chan struct{}), calls: make(map[uint32]*call)}
		var calls []*call
		for i := 0; i < 4; i++ {
			_, c, err := pc.open(newFloorGossip(math.Inf(-1)))
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
			case <-c.done:
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
