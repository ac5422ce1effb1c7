// Fuzzing for the two snapshot decode surfaces an attacker-controlled
// file reaches first: the JSON manifest and the canon-framed section
// header. Properties: malformed input is rejected with an error (never
// a panic, never an oversized allocation), and anything that decodes
// re-encodes canonically — byte-identical for section headers, and
// fixed-point after one round trip for manifests (arbitrary JSON
// formatting normalizes on the first re-encode, then must be stable).

package segment

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// corpusManifest is the well-formed seed both fuzz corpora derive
// from: two datasets, all three section types, a non-trivial shard
// count.
func corpusManifest() *Manifest {
	return &Manifest{
		FormatVersion: FormatVersion,
		Shards:        4,
		Datasets: []Dataset{
			{
				Name: "gauss", Kind: "tuples", Rows: 8000, File: "ds-0000.seg",
				Sections: []Section{
					{Name: "meta", Type: TypeRaw, Count: 34, Offset: 4096, Len: 34,
						SHA256: strings.Repeat("ab", 32)},
					{Name: "s0.flat", Type: TypeF64, Count: 24000, Offset: 12288, Len: 192000,
						SHA256: strings.Repeat("cd", 32)},
				},
			},
			{
				Name: "weather", Kind: "series", Rows: 60, File: "ds-0001.seg",
				Sections: []Section{
					{Name: "events", Type: TypeRaw, Count: 4380, Offset: 4096, Len: 4380,
						SHA256: strings.Repeat("0f", 32)},
				},
			},
		},
	}
}

func corpusHeader() sectionHeader {
	return sectionHeader{Name: "s0.flat", Type: TypeF64, Count: 24000, PayloadLen: 192000}
}

// TestRegenerateFuzzCorpus rewrites the committed seed corpora from
// the current codecs when REGEN_CORPUS is set; otherwise it verifies
// every committed well-formed seed still decodes. Run with
//
//	REGEN_CORPUS=1 go test ./internal/segment/ -run TestRegenerateFuzzCorpus
//
// after a deliberate format change.
func TestRegenerateFuzzCorpus(t *testing.T) {
	manEnc, err := EncodeManifest(corpusManifest())
	if err != nil {
		t.Fatal(err)
	}
	hdrEnc := corpusHeader().encode()
	corpora := map[string]map[string][]byte{
		"FuzzManifestDecode": {
			"seed-full":        manEnc,
			"seed-truncated":   manEnc[:len(manEnc)/2],
			"seed-not-json":    []byte("{not json"),
			"seed-bad-version": bytes.Replace(manEnc, []byte(`"format_version": `+strconv.Itoa(FormatVersion)), []byte(`"format_version": 99`), 1),
		},
		"FuzzSectionHeaderDecode": {
			"seed-full":      hdrEnc,
			"seed-truncated": hdrEnc[:len(hdrEnc)-3],
			"seed-bad-tag":   append([]byte("XX"), hdrEnc[2:]...),
		},
	}
	if os.Getenv("REGEN_CORPUS") != "" {
		for fuzzName, seeds := range corpora {
			dir := filepath.Join("testdata", "fuzz", fuzzName)
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			for name, b := range seeds {
				content := "go test fuzz v1\n[]byte(" + strconv.Quote(string(b)) + ")\n"
				if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		return
	}
	decode := map[string]func([]byte) error{
		"FuzzManifestDecode": func(b []byte) error {
			_, err := DecodeManifest(b)
			return err
		},
		"FuzzSectionHeaderDecode": func(b []byte) error {
			_, err := decodeSectionHeader(b)
			return err
		},
	}
	for fuzzName := range corpora {
		raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", fuzzName, "seed-full"))
		if err != nil {
			t.Fatalf("%s/seed-full missing (run with REGEN_CORPUS=1): %v", fuzzName, err)
		}
		lines := strings.SplitN(string(raw), "\n", 3)
		if len(lines) < 2 || lines[0] != "go test fuzz v1" {
			t.Fatalf("%s: not a corpus file", fuzzName)
		}
		b, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", fuzzName, err)
		}
		if err := decode[fuzzName]([]byte(b)); err != nil {
			t.Fatalf("%s seed-full no longer decodes: %v", fuzzName, err)
		}
	}
}

func FuzzManifestDecode(f *testing.F) {
	manEnc, err := EncodeManifest(corpusManifest())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(manEnc)
	f.Add(manEnc[:len(manEnc)/2])
	f.Add([]byte("{not json"))
	f.Add([]byte("{}"))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeManifest(data)
		if err != nil {
			return // malformed input rejected cleanly
		}
		// First re-encode normalizes arbitrary JSON formatting; from
		// there the encoding must be a fixed point.
		enc1, err := EncodeManifest(m)
		if err != nil {
			t.Fatalf("decoded manifest fails to encode: %v", err)
		}
		m2, err := DecodeManifest(enc1)
		if err != nil {
			t.Fatalf("canonical encoding fails to decode: %v", err)
		}
		enc2, err := EncodeManifest(m2)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("canonical encoding not a fixed point:\n%s\nvs\n%s", enc1, enc2)
		}
	})
}

func FuzzSectionHeaderDecode(f *testing.F) {
	hdrEnc := corpusHeader().encode()
	f.Add(hdrEnc)
	f.Add(hdrEnc[:len(hdrEnc)-3])
	f.Add([]byte("MS"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := decodeSectionHeader(data)
		if err != nil {
			return
		}
		// The canonical encoding is injective and decode consumes the
		// whole input, so re-encoding must reproduce it exactly.
		enc := h.encode()
		if !bytes.Equal(enc, data) {
			t.Fatalf("re-encode differs:\n in: %x\nout: %x", data, enc)
		}
		h2, err := decodeSectionHeader(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if h2 != h {
			t.Fatalf("header drifted: %+v vs %+v", h2, h)
		}
	})
}
