package bayes

import (
	"math/rand"
	"testing"
)

// TestCompiledMatchesScore: compiled row scoring must be bit-identical
// to the map-based Score for random rule sets and rows, including
// unknown features (compiled to the missing grade) and soft weights.
func TestCompiledMatchesScore(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	columns := []string{"a.mean", "a.std", "b.mean", "b.max", "c.min"}
	for trial := 0; trial < 100; trial++ {
		r := NewRuleSet()
		nClauses := 1 + rng.Intn(5)
		for c := 0; c < nClauses; c++ {
			feat := columns[rng.Intn(len(columns))]
			if rng.Float64() < 0.15 {
				feat = "missing.feature"
			}
			var m Membership
			if rng.Float64() < 0.5 {
				m = Above{Lo: rng.Float64() * 50, Hi: 50 + rng.Float64()*50}
			} else {
				m = Below{Lo: rng.Float64() * 50, Hi: 50 + rng.Float64()*50}
			}
			w := rng.Float64()
			if w == 0 || rng.Float64() < 0.3 {
				w = 1
			}
			r.Add(feat, m, w)
		}
		comp, err := r.Compile(columns)
		if err != nil {
			t.Fatal(err)
		}
		if len(comp.cols) != r.Len() {
			t.Fatalf("trial %d: compiled %d clauses, rule set %d", trial, len(comp.cols), r.Len())
		}
		row := make([]float64, len(columns))
		vals := make(map[string]float64, len(columns))
		for i, n := range columns {
			row[i] = rng.Float64() * 120
			vals[n] = row[i]
		}
		want, err := r.Score(vals)
		if err != nil {
			t.Fatal(err)
		}
		if got := comp.ScoreRow(row); got != want {
			t.Fatalf("trial %d: ScoreRow %v, Score %v", trial, got, want)
		}
	}
}

// TestCompileValidation: empty rule sets and invalid weights fail at
// compile time with Score's errors.
func TestCompileValidation(t *testing.T) {
	if _, err := NewRuleSet().Compile([]string{"x"}); err == nil {
		t.Fatal("want empty rule set error")
	}
	r := NewRuleSet().Add("x", Above{Lo: 1, Hi: 2}, 1)
	r.weights[0] = 1.5
	if _, err := r.Compile([]string{"x"}); err == nil {
		t.Fatal("want weight validation error")
	}
}

// TestScoreRowZeroAlloc: compiled scoring is the knowledge scan kernel
// and must not allocate.
func TestScoreRowZeroAlloc(t *testing.T) {
	r := NewRuleSet().
		Require("a.mean", Above{Lo: 10, Hi: 20}).
		Add("b.max", Below{Lo: 50, Hi: 80}, 0.5)
	comp, err := r.Compile([]string{"a.mean", "b.max"})
	if err != nil {
		t.Fatal(err)
	}
	row := []float64{15, 60}
	if allocs := testing.AllocsPerRun(100, func() { comp.ScoreRow(row) }); allocs != 0 {
		t.Fatalf("ScoreRow allocates %.1f allocs/op, want 0", allocs)
	}
}
