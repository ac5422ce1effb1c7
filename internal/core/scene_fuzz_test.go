package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"modelir/internal/archive"
	"modelir/internal/linear"
	"modelir/internal/segment"
	"modelir/internal/synth"
)

// sceneSections is a scene dataset's snapshot sections, decoded.
type sceneSections struct {
	rows   int
	meta   []byte
	pt     []byte
	planes [][]float64
	feat   []float64
}

// snapshotScene snapshots a small scene built to its apex and reads
// its sections back.
func snapshotScene(t testing.TB) sceneSections {
	t.Helper()
	sc, err := synth.LandsatScene(synth.SceneConfig{Seed: 61, W: 13, H: 9})
	if err != nil {
		t.Fatal(err)
	}
	arch, err := archive.BuildScene("s", sc.Bands, archive.Options{TileSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngineWith(Options{Shards: 1})
	defer e.Close()
	if err := e.AddScene("s", arch); err != nil {
		t.Fatal(err)
	}
	mem := segment.NewMem()
	if err := e.Snapshot(context.Background(), mem); err != nil {
		t.Fatal(err)
	}
	snap, err := segment.Open(mem, segment.Copy)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	dr, err := snap.Dataset(kindScenes, "s")
	if err != nil {
		t.Fatal(err)
	}
	out := sceneSections{rows: dr.Rows()}
	if out.meta, err = dr.Raw("meta"); err != nil {
		t.Fatal(err)
	}
	if out.pt, err = dr.Raw("pyr"); err != nil {
		t.Fatal(err)
	}
	if out.feat, err = dr.Floats("feat"); err != nil {
		t.Fatal(err)
	}
	for l := 0; l < arch.Pyramid().NumLevels(); l++ {
		p, err := dr.Floats(fmt.Sprintf("pyr%d", l))
		if err != nil {
			t.Fatal(err)
		}
		out.planes = append(out.planes, p)
	}
	return out
}

// write stores the sections as a one-dataset snapshot in a fresh
// backend.
func (s sceneSections) write(t testing.TB) segment.Backend {
	t.Helper()
	mem := segment.NewMem()
	w, err := segment.NewWriter(mem, 1)
	if err != nil {
		t.Fatal(err)
	}
	dw, err := w.Dataset("s", kindScenes, s.rows)
	if err != nil {
		t.Fatal(err)
	}
	errs := []error{dw.Raw("meta", s.meta), dw.Raw("pyr", s.pt)}
	for l, p := range s.planes {
		errs = append(errs, dw.Floats(fmt.Sprintf("pyr%d", l), p))
	}
	errs = append(errs, dw.Floats("feat", s.feat), dw.Close(), w.Finish())
	if err := firstErr(errs...); err != nil {
		t.Fatal(err)
	}
	return mem
}

// FuzzRestoreScene: a scene snapshot whose pyramid table and plane
// lengths are arbitrary restores, or is refused with a typed
// segment.ErrCorrupt or segment.ErrVersion — never a panic; a table
// naming a band the metadata lacks is refused. A restored
// scene answers a scene and a knowledge query and materializes its
// Grid pyramids and base bands without panicking. Each byte of trim
// reshapes one plane: below 128 it drops that many values, from 128 up
// it appends trim-128 zeros.
func FuzzRestoreScene(f *testing.F) {
	base := snapshotScene(f)
	if e, err := OpenSnapshot(base.write(f), RestoreOptions{Mode: segment.Copy}); err != nil {
		f.Fatalf("unmodified sections refused: %v", err)
	} else {
		e.Close()
	}
	renamed := base
	renamed.pt = bytes.Replace(base.pt, []byte("b4"), []byte("b9"), 1)
	if _, err := OpenSnapshot(renamed.write(f), RestoreOptions{Mode: segment.Copy}); !errors.Is(err, segment.ErrCorrupt) {
		f.Fatalf("a pyramid band name the metadata lacks: err %v, want ErrCorrupt", err)
	}
	pm, err := linear.Decompose(linear.HPSRisk(), []float64{0, 0, 0, 0}, []float64{255, 255, 255, 1500}, 2, 4)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(base.pt, []byte{})
	f.Add(base.pt, []byte{1})
	f.Add(base.pt, []byte{0, 129})
	f.Add(base.pt[:len(base.pt)-1], []byte{})
	f.Add(append(append([]byte(nil), base.pt...), 0), []byte{})
	f.Add([]byte("PY"), []byte{})
	f.Add([]byte{}, []byte{})
	// Level 0 at scale 2 (each level is four big-endian uint64s:
	// width, height, scale, bands).
	bad := append([]byte(nil), base.pt...)
	bad[len(bad)-4*8*len(base.planes)+3*8-1] = 2
	f.Add(bad, []byte{})
	f.Fuzz(func(t *testing.T, pt, trim []byte) {
		s := base
		s.pt = pt
		s.planes = make([][]float64, len(base.planes))
		for l, p := range base.planes {
			p = append([]float64(nil), p...)
			if l < len(trim) {
				if c := int(trim[l]); c < 128 {
					p = p[:max(0, len(p)-c)]
				} else {
					p = append(p, make([]float64, c-128)...)
				}
			}
			s.planes[l] = p
		}
		e, err := OpenSnapshot(s.write(t), RestoreOptions{Mode: segment.Copy})
		if err != nil {
			if !errors.Is(err, segment.ErrCorrupt) && !errors.Is(err, segment.ErrVersion) {
				t.Fatalf("untyped restore error: %v", err)
			}
			return
		}
		defer e.Close()
		for _, q := range []Query{SceneQuery{Model: pm}, KnowledgeQuery{Rules: HPSTileRules()}} {
			if _, err := e.Run(context.Background(), Request{Dataset: "s", Query: q, K: 5}); err != nil {
				t.Fatalf("%T on a restored scene: %v", q, err)
			}
		}
		sc := e.scenes["s"].scene
		for b := 0; b < sc.NumBands(); b++ {
			sc.Pyramid().Band(b)
		}
		sc.Base()
	})
}
