package rtree

import (
	"math/rand"
	"sort"
	"testing"

	"modelir/internal/synth"
)

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil, Options{}); err == nil {
		t.Fatal("want empty error")
	}
	if _, err := Build([][]float64{{}}, Options{}); err == nil {
		t.Fatal("want zero-dim error")
	}
	if _, err := Build([][]float64{{1, 2}, {3}}, Options{}); err == nil {
		t.Fatal("want ragged error")
	}
	if _, err := Build([][]float64{{1, 2}}, Options{Fanout: 1}); err == nil {
		t.Fatal("want fanout error")
	}
}

func TestLinearTopKMatchesScan(t *testing.T) {
	pts, _ := synth.GaussianTuples(9, 5000, 3)
	tr, _ := Build(pts, Options{})
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 20; trial++ {
		w := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		got, _, err := tr.LinearTopK(w, 10)
		if err != nil {
			t.Fatal(err)
		}
		type pair struct {
			id int
			s  float64
		}
		ref := make([]pair, len(pts))
		for i, p := range pts {
			s := 0.0
			for d, wd := range w {
				s += wd * p[d]
			}
			ref[i] = pair{i, s}
		}
		sort.Slice(ref, func(a, b int) bool {
			if ref[a].s != ref[b].s {
				return ref[a].s > ref[b].s
			}
			return ref[a].id < ref[b].id
		})
		for i := range got {
			if got[i].ID != int64(ref[i].id) {
				t.Fatalf("trial %d pos %d: got %d want %d", trial, i, got[i].ID, ref[i].id)
			}
		}
	}
	if _, _, err := tr.LinearTopK([]float64{1}, 1); err == nil {
		t.Fatal("want dim error")
	}
	if _, _, err := tr.LinearTopK([]float64{1, 1, 1}, 0); err == nil {
		t.Fatal("want k error")
	}
}
