package segment

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeFixture writes a two-dataset snapshot covering all three
// section types, including empty and page-boundary-sized payloads.
func writeFixture(t *testing.T, dir string) (*Dir, []float64, []int64, []byte) {
	t.Helper()
	b, err := NewDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	floats := make([]float64, 512) // exactly one page of f64
	for i := range floats {
		floats[i] = float64(i) * 1.5
	}
	floats[0] = math.Inf(-1)
	floats[1] = math.NaN()
	ints := []int64{-1, 0, 1, 1 << 62, -(1 << 62)}
	raw := []byte("gob-ish opaque metadata")

	w, err := NewWriter(b, 3)
	if err != nil {
		t.Fatal(err)
	}
	dw, err := w.Dataset("alpha", "tuples", 512)
	if err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(
		dw.Raw("meta", raw),
		dw.Floats("flat", floats),
		dw.Ints("ids", ints),
		dw.Floats("empty", nil),
	); err != nil {
		t.Fatal(err)
	}
	if err := dw.Close(); err != nil {
		t.Fatal(err)
	}
	dw2, err := w.Dataset("beta", "series", 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := dw2.Ints("events", ints); err != nil {
		t.Fatal(err)
	}
	if err := dw2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	return b, floats, ints, raw
}

func TestRoundTripCopyAndMap(t *testing.T) {
	dir := t.TempDir()
	b, floats, ints, raw := writeFixture(t, dir)

	for _, mode := range []RestoreMode{Copy, Map} {
		snap, err := Open(b, mode)
		if err != nil {
			if mode == Map && errors.Is(err, ErrMapUnsupported) {
				t.Skipf("map unsupported: %v", err)
			}
			t.Fatalf("open (%v): %v", mode, err)
		}
		if snap.Manifest().Shards != 3 {
			t.Fatalf("shards = %d", snap.Manifest().Shards)
		}
		dr, err := snap.Dataset("tuples", "alpha")
		if err != nil {
			t.Fatal(err)
		}
		if dr.ds.Kind != "tuples" || dr.Rows() != 512 {
			t.Fatalf("kind/rows = %s/%d", dr.ds.Kind, dr.Rows())
		}
		gotRaw, err := dr.Raw("meta")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotRaw, raw) {
			t.Fatalf("mode %v: raw mismatch", mode)
		}
		gotF, err := dr.Floats("flat")
		if err != nil {
			t.Fatal(err)
		}
		if len(gotF) != len(floats) {
			t.Fatalf("mode %v: %d floats", mode, len(gotF))
		}
		for i := range floats {
			if math.Float64bits(gotF[i]) != math.Float64bits(floats[i]) {
				t.Fatalf("mode %v: float %d: %x vs %x", mode, i,
					math.Float64bits(gotF[i]), math.Float64bits(floats[i]))
			}
		}
		gotI, err := dr.Ints("ids")
		if err != nil {
			t.Fatal(err)
		}
		for i := range ints {
			if gotI[i] != ints[i] {
				t.Fatalf("mode %v: int %d: %d vs %d", mode, i, gotI[i], ints[i])
			}
		}
		gotE, err := dr.Floats("empty")
		if err != nil || len(gotE) != 0 {
			t.Fatalf("mode %v: empty section: %v len %d", mode, err, len(gotE))
		}
		// Type confusion is corruption, not coercion.
		if _, err := dr.Floats("ids"); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("mode %v: float read of i64 section: %v", mode, err)
		}
		if _, err := dr.Raw("nope"); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("mode %v: missing section: %v", mode, err)
		}
		if err := snap.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSectionsArePageAligned(t *testing.T) {
	dir := t.TempDir()
	b, _, _, _ := writeFixture(t, dir)
	snap, err := Open(b, Copy)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	for _, ds := range snap.Manifest().Datasets {
		st, err := os.Stat(filepath.Join(dir, ds.File))
		if err != nil {
			t.Fatal(err)
		}
		if st.Size()%pageSize != 0 {
			t.Fatalf("%s: size %d not page-padded", ds.File, st.Size())
		}
		for _, sec := range ds.Sections {
			if sec.Offset%pageSize != 0 || sec.Offset < pageSize {
				t.Fatalf("%s/%s: offset %d", ds.Name, sec.Name, sec.Offset)
			}
		}
	}
}

func TestChecksumAndHeaderMismatch(t *testing.T) {
	dir := t.TempDir()
	b, _, _, _ := writeFixture(t, dir)
	snap, err := Open(b, Copy)
	if err != nil {
		t.Fatal(err)
	}
	ds := snap.Manifest().Datasets[0]
	sec := ds.Sections[0]
	snap.Close()
	path := filepath.Join(dir, ds.File)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Flip a payload byte → checksum error.
	mut := append([]byte(nil), orig...)
	mut[sec.Offset] ^= 0xFF
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	snap, err = Open(b, Copy)
	if err != nil {
		t.Fatal(err)
	}
	dr, err := snap.Dataset(ds.Kind, ds.Name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dr.Raw(sec.Name); !errors.Is(err, ErrChecksum) {
		t.Fatalf("payload flip: %v, want ErrChecksum", err)
	}
	snap.Close()

	// Flip a header byte → structural corruption (header disagrees
	// with manifest or fails to parse), caught before the checksum.
	mut = append([]byte(nil), orig...)
	mut[sec.Offset-pageSize+8] ^= 0xFF
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	snap, err = Open(b, Copy)
	if err != nil {
		t.Fatal(err)
	}
	dr, err = snap.Dataset(ds.Kind, ds.Name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dr.Raw(sec.Name); !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
		t.Fatalf("header flip: %v, want ErrCorrupt/ErrVersion", err)
	}
	snap.Close()
}

func TestManifestValidation(t *testing.T) {
	good := corpusManifest()
	enc, err := EncodeManifest(good)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeManifest(enc); err != nil {
		t.Fatal(err)
	}
	mutate := []struct {
		label string
		mut   func(*Manifest)
		want  error
	}{
		{"future version", func(m *Manifest) { m.FormatVersion = FormatVersion + 1 }, ErrVersion},
		{"previous version", func(m *Manifest) { m.FormatVersion = FormatVersion - 1 }, ErrVersion},
		{"zero shards", func(m *Manifest) { m.Shards = 0 }, ErrCorrupt},
		{"dup dataset", func(m *Manifest) { m.Datasets[1] = m.Datasets[0] }, ErrCorrupt},
		{"path traversal", func(m *Manifest) { m.Datasets[0].File = "../evil" }, ErrCorrupt},
		{"separator in file", func(m *Manifest) { m.Datasets[0].File = "a/b" }, ErrCorrupt},
		{"bad type", func(m *Manifest) { m.Datasets[0].Sections[0].Type = "f32" }, ErrCorrupt},
		{"len/count mismatch", func(m *Manifest) { m.Datasets[0].Sections[1].Len++ }, ErrCorrupt},
		{"unaligned offset", func(m *Manifest) { m.Datasets[0].Sections[1].Offset += 8 }, ErrCorrupt},
		{"zero offset", func(m *Manifest) { m.Datasets[0].Sections[0].Offset = 0 }, ErrCorrupt},
		{"short sha", func(m *Manifest) { m.Datasets[0].Sections[0].SHA256 = "abcd" }, ErrCorrupt},
		{"non-hex sha", func(m *Manifest) {
			m.Datasets[0].Sections[0].SHA256 = strings.Repeat("zz", 32)
		}, ErrCorrupt},
	}
	for _, tc := range mutate {
		m := corpusManifest()
		tc.mut(m)
		enc, jerr := EncodeManifest(m)
		if jerr == nil {
			_, jerr = DecodeManifest(enc)
		}
		if !errors.Is(jerr, tc.want) {
			t.Fatalf("%s: got %v, want %v", tc.label, jerr, tc.want)
		}
	}
	// Unknown fields are refused.
	withExtra := bytes.Replace(enc, []byte(`"shards"`), []byte(`"surprise": 1, "shards"`), 1)
	if _, err := DecodeManifest(withExtra); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unknown field: %v", err)
	}
}

func TestDirAtomicity(t *testing.T) {
	dir := t.TempDir()
	b, err := NewDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A failed write leaves nothing behind — no final file, no temp.
	boom := errors.New("boom")
	err = b.WriteFile("x.seg", func(w io.Writer) error {
		if _, err := w.Write([]byte("partial")); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("write error not propagated: %v", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("failed write left %d files behind", len(ents))
	}
	// A successful write is visible and readable.
	if err := b.WriteFile("x.seg", func(w io.Writer) error {
		_, err := w.Write([]byte("hello"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	blob, err := b.Open("x.seg")
	if err != nil {
		t.Fatal(err)
	}
	if blob.Size() != 5 {
		t.Fatalf("size = %d", blob.Size())
	}
	blob.Close()
	// Missing files surface fs.ErrNotExist (the loader's ErrNoSnapshot
	// probe depends on it); hostile names are refused.
	if _, err := b.Open("missing"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing file: %v", err)
	}
	for _, bad := range []string{"../evil", "a/b", "", ".."} {
		if err := b.WriteFile(bad, func(io.Writer) error { return nil }); err == nil {
			t.Fatalf("name %q accepted", bad)
		}
		if _, err := b.Open(bad); err == nil {
			t.Fatalf("open %q accepted", bad)
		}
	}
}
