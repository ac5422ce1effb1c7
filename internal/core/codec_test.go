package core

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"modelir/internal/canon"
	"modelir/internal/fsm"
	"modelir/internal/linear"
	"modelir/internal/synth"
)

// codecRequests is one request per family and MinScore shape, the
// well-formed half of FuzzRequestCodec's corpus.
func codecRequests(t testing.TB) map[string]Request {
	hps := linear.HPSRisk()
	pm, err := linear.Decompose(hps, []float64{0, 0, 0, 0}, []float64{255, 255, 255, 1500}, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	lm, err := linear.New([]string{"a", "bc"}, []float64{1, -0.5}, 3)
	if err != nil {
		t.Fatal(err)
	}
	negZero, half := math.Copysign(0, -1), 0.5
	gq := testGeoQuery()
	gq.GammaRampAPI = 5
	gq.Method = GeoDP // what a zero Method decodes as
	return map[string]Request{
		"seed-linear-hps":    {Dataset: "tuples", Query: LinearQuery{Model: hps}, K: 10},
		"seed-scene":         {Dataset: "hps", Query: SceneQuery{Model: pm}, K: 7, MinScore: &half},
		"seed-fsm":           {Dataset: "weather", Query: FSMQuery{Machine: fsm.FireAnts()}, K: 10},
		"seed-fsm-prefilter": {Dataset: "weather", Query: FSMQuery{Machine: fsm.FireAnts(), Prefilter: FireAntsPrefilter}, K: 10},
		"seed-fsm-distance":  {Dataset: "weather", Query: FSMDistanceQuery{Target: fsm.FireAnts(), Horizon: 6}, K: 5},
		// Encodable, and refused only when run (horizon outside 1..MaxFSMHorizon).
		"seed-fsm-distance-horizon-0": {Dataset: "weather", Query: FSMDistanceQuery{Target: fsm.FireAnts()}, K: 5},
		"seed-geology":                {Dataset: "basin", Query: gq, K: 10},
		"seed-knowledge":              {Dataset: "hps", Query: KnowledgeQuery{Rules: HPSTileRules()}, K: 10},
		"seed-negzero":                {Dataset: "tuples", Query: LinearQuery{Model: lm}, K: 3, MinScore: &negZero},
		"seed-equal-absent-minscore":  {Dataset: "tuples", Query: LinearQuery{Model: lm}, K: 3},
		"seed-length-byte-boundary":   {Dataset: strings.Repeat("d", 256), Query: LinearQuery{Model: lm}},
		"seed-reassociation":          {Dataset: "ab", Query: LinearQuery{Model: lm}, K: 1},
	}
}

// codecSeeds is FuzzRequestCodec's committed corpus: codecRequests
// encoded, plus malformed shapes the decoder must refuse.
func codecSeeds(t testing.TB) map[string][]byte {
	seeds := make(map[string][]byte)
	for name, req := range codecRequests(t) {
		b, err := AppendRequest(nil, req)
		if err != nil {
			t.Fatal(err)
		}
		seeds[name] = b
	}
	linearHPS := seeds["seed-linear-hps"]
	// An attribute count that claims one name more than follows: the
	// model would absorb the next field's bytes.
	absorbs := append([]byte(nil), linearHPS...)
	absorbs[bytes.Index(absorbs, []byte("LM"))+2+7]++
	seeds["seed-model-absorbs-spec-frame"] = absorbs
	// A second request's prefix after a whole one: trailing bytes.
	seeds["seed-payload-spoofs-prefix"] = append(append([]byte(nil), linearHPS...), linearHPS[:12]...)
	return seeds
}

// TestRequestCodecCorpus rewrites FuzzRequestCodec's committed corpus
// when REGEN_CORPUS is set and otherwise checks it is current. Run with
//
//	REGEN_CORPUS=1 go test ./internal/core/ -run TestRequestCodecCorpus
//
// after a deliberate change to the request encoding.
func TestRequestCodecCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzRequestCodec")
	regen := os.Getenv("REGEN_CORPUS") != ""
	if regen {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for name, b := range codecSeeds(t) {
		want := "go test fuzz v1\n[]byte(" + strconv.Quote(string(b)) + ")\n"
		path := filepath.Join(dir, name)
		if regen {
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if raw, err := os.ReadFile(path); err != nil || string(raw) != want {
			t.Fatalf("%s missing or stale (run with REGEN_CORPUS=1): %v", name, err)
		}
	}
}

// TestRequestCodecRoundTrip pins, per family, that a request decodes
// back to what was encoded, and that every strict prefix is refused.
// The first loop is the encoder's half of the key's injectivity: no
// field a request carries is lost on the way to its bytes.
func TestRequestCodecRoundTrip(t *testing.T) {
	for name, want := range codecRequests(t) {
		b, err := AppendRequest(nil, want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeRequest(b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bitEqual(reflect.ValueOf(got), reflect.ValueOf(want)) {
			t.Fatalf("%s: decoded %+v, want %+v", name, got, want)
		}
	}
	for name, b := range codecSeeds(t) {
		req, err := DecodeRequest(b)
		if strings.Contains(name, "absorbs") || strings.Contains(name, "spoofs") {
			if !errors.Is(err, canon.ErrCorrupt) {
				t.Fatalf("%s: err = %v, want canon.ErrCorrupt", name, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if enc, err := AppendRequest(nil, req); err != nil || !bytes.Equal(enc, b) {
			t.Fatalf("%s: re-encode differs (err %v)", name, err)
		}
		for n := 0; n < len(b); n++ {
			if _, err := DecodeRequest(b[:n]); !errors.Is(err, canon.ErrCorrupt) {
				t.Fatalf("%s: %d-byte prefix: err = %v, want canon.ErrCorrupt", name, n, err)
			}
		}
	}
	// Decoded queries run as the originals: the prefilter comes back as
	// the registered func, and geology Method zero as GeoDP.
	b, _ := AppendRequest(nil, Request{Query: FSMQuery{Machine: fsm.FireAnts(), Prefilter: FireAntsPrefilter}})
	req, err := DecodeRequest(b)
	if err != nil {
		t.Fatal(err)
	}
	if pf := req.Query.(FSMQuery).Prefilter; reflect.ValueOf(pf).Pointer() != reflect.ValueOf(FireAntsPrefilter).Pointer() {
		t.Fatal("prefilter did not decode to FireAntsPrefilter")
	}
	b, _ = AppendRequest(nil, Request{Query: testGeoQuery()})
	if req, err = DecodeRequest(b); err != nil || req.Query.(GeologyQuery).Method != GeoDP {
		t.Fatalf("geology Method zero decoded as %+v (err %v)", req.Query, err)
	}
	// What the encoding cannot carry is refused with a typed error.
	for _, q := range []Query{
		LinearQuery{}, SceneQuery{}, FSMQuery{}, FSMDistanceQuery{}, KnowledgeQuery{}, nil,
		FSMQuery{Machine: fsm.FireAnts(), Prefilter: func(synth.DrySpellStats) bool { return true }},
		KnowledgeQuery{Rules: customMembershipRules()},
	} {
		if _, err := AppendRequest(nil, Request{Query: q}); !errors.Is(err, ErrUnencodableQuery) {
			t.Fatalf("%T: err = %v, want ErrUnencodableQuery", q, err)
		}
	}
}

// FuzzRequestCodec pins the property the cache key's injectivity rests
// on: DecodeRequest refuses malformed bytes with canon.ErrCorrupt, and
// every byte string it accepts re-encodes to itself.
func FuzzRequestCodec(f *testing.F) {
	addSeeds(f, codecSeeds(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRequest(data)
		if err != nil {
			if !errors.Is(err, canon.ErrCorrupt) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		enc, err := AppendRequest(nil, req)
		if err != nil {
			t.Fatalf("decoded request does not encode: %v", err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("re-encode differs:\n in: %x\nout: %x", data, enc)
		}
	})
}

// bitEqual compares two values field by field, unexported fields and
// pointees included: floats by their bits, so -0 differs from 0 and a
// NaN equals itself; funcs by code pointer; a nil slice equals an empty
// one.
func bitEqual(a, b reflect.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Func:
		return a.Pointer() == b.Pointer()
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		if a.Kind() == reflect.Interface && a.Elem().Type() != b.Elem().Type() {
			return false
		}
		return bitEqual(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !bitEqual(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !bitEqual(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.String:
		return a.String() == b.String()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return a.Uint() == b.Uint()
	default:
		panic("bitEqual: unsupported kind " + a.Kind().String())
	}
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
