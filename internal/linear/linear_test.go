package linear

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil, 0); err == nil {
		t.Fatal("want error for empty model")
	}
	if _, err := New([]string{"a"}, []float64{1, 2}, 0); err == nil {
		t.Fatal("want error for attr/coeff mismatch")
	}
	m, err := New([]string{"a", "b"}, []float64{1, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumTerms() != 2 {
		t.Fatalf("terms=%d", m.NumTerms())
	}
}

func TestEval(t *testing.T) {
	m, _ := New([]string{"a", "b"}, []float64{2, -1}, 10)
	got, err := m.Eval([]float64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if got != 12 {
		t.Fatalf("eval=%v want 12", got)
	}
	if _, err := m.Eval([]float64{1}); err == nil {
		t.Fatal("want dimension error")
	}
	if m.EvalUnchecked([]float64{3, 4}) != 12 {
		t.Fatal("unchecked eval differs")
	}
}

func TestHPSRiskMatchesPaper(t *testing.T) {
	m := HPSRisk()
	// R = 0.443*X1 + 0.222*X2 + 0.153*X3 + 0.183*X4
	got, err := m.Eval([]float64{100, 50, 20, 300})
	if err != nil {
		t.Fatal(err)
	}
	want := 0.443*100 + 0.222*50 + 0.153*20 + 0.183*300
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("HPS risk %v want %v", got, want)
	}
	if m.Attrs[0] != "b4" || m.Attrs[3] != "elev" {
		t.Fatalf("attrs %v", m.Attrs)
	}
}

func TestString(t *testing.T) {
	m, _ := New([]string{"x"}, []float64{2}, 1)
	if s := m.String(); !strings.Contains(s, "2·x") {
		t.Fatalf("String()=%q", s)
	}
}

func TestIntervalSound(t *testing.T) {
	m, _ := New([]string{"a", "b"}, []float64{2, -3}, 1)
	lo, hi, err := m.Interval([]float64{0, 0}, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	// a in [0,1] contributes [0,2]; b in [0,1] contributes [-3,0].
	if lo != 1-3 || hi != 1+2 {
		t.Fatalf("interval [%v,%v] want [-2,3]", lo, hi)
	}
	if _, _, err := m.Interval([]float64{0}, []float64{1, 2}); err == nil {
		t.Fatal("want dimension error")
	}
}

// Property: for random models and random points inside random boxes, the
// model value always lies within Interval's bounds.
func TestIntervalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(6)
		coeffs := make([]float64, d)
		attrs := make([]string, d)
		lo := make([]float64, d)
		hi := make([]float64, d)
		x := make([]float64, d)
		for i := 0; i < d; i++ {
			coeffs[i] = rng.NormFloat64() * 5
			attrs[i] = "a"
			lo[i] = rng.NormFloat64() * 10
			hi[i] = lo[i] + rng.Float64()*10
			x[i] = lo[i] + rng.Float64()*(hi[i]-lo[i])
		}
		m, err := New(attrs, coeffs, rng.NormFloat64())
		if err != nil {
			return false
		}
		bLo, bHi, err := m.Interval(lo, hi)
		if err != nil {
			return false
		}
		v, _ := m.Eval(x)
		return v >= bLo-1e-9 && v <= bHi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFitRecoversKnownModel(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	trueM, _ := New([]string{"a", "b", "c"}, []float64{1.5, -2.0, 0.7}, 4.0)
	xs := make([][]float64, 500)
	ys := make([]float64, 500)
	for i := range xs {
		x := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		y, _ := trueM.Eval(x)
		xs[i] = x
		ys[i] = y + rng.NormFloat64()*0.01
	}
	fit, err := Fit([]string{"a", "b", "c"}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range trueM.Coeffs {
		if math.Abs(fit.Coeffs[i]-trueM.Coeffs[i]) > 0.01 {
			t.Fatalf("coeff %d: fit %v true %v", i, fit.Coeffs[i], trueM.Coeffs[i])
		}
	}
	if math.Abs(fit.Intercept-4.0) > 0.01 {
		t.Fatalf("intercept %v", fit.Intercept)
	}
	r2, err := fit.RSquared(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if r2 < 0.999 {
		t.Fatalf("R² = %v", r2)
	}
}

func TestFitValidation(t *testing.T) {
	if _, err := Fit(nil, nil, nil); err == nil {
		t.Fatal("want error for no rows")
	}
	if _, err := Fit([]string{"a"}, [][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Fatal("want error for row/response mismatch")
	}
	if _, err := Fit([]string{"a"}, [][]float64{{1}, {1, 2}}, []float64{1, 2}); err == nil {
		t.Fatal("want error for ragged rows")
	}
	// Underdetermined: 2 rows, 2 coeffs + intercept.
	if _, err := Fit([]string{"a", "b"}, [][]float64{{1, 2}, {3, 4}}, []float64{1, 2}); err == nil {
		t.Fatal("want error for underdetermined fit")
	}
	// Collinear attributes -> singular normal equations.
	xs := [][]float64{{1, 2}, {2, 4}, {3, 6}, {4, 8}}
	if _, err := Fit([]string{"a", "b"}, xs, []float64{1, 2, 3, 4}); err == nil {
		t.Fatal("want singularity error for collinear data")
	}
}

func TestContributionsOrdering(t *testing.T) {
	m, _ := New([]string{"small", "big", "mid"}, []float64{0.1, -5, 1}, 0)
	cs, err := m.Contributions(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cs[0].Attr != "big" || cs[1].Attr != "mid" || cs[2].Attr != "small" {
		t.Fatalf("order %+v", cs)
	}
	// Spans can reorder: small coefficient × huge span dominates.
	cs, err = m.Contributions([]float64{1e6, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if cs[0].Attr != "small" {
		t.Fatalf("span-weighted order %+v", cs)
	}
	if _, err := m.Contributions([]float64{1}); err == nil {
		t.Fatal("want dimension error")
	}
}

func TestDecomposeHPS(t *testing.T) {
	m := HPSRisk()
	lo := []float64{0, 0, 0, 0}
	hi := []float64{255, 255, 255, 1500}
	p, err := Decompose(m, lo, hi, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.levels) != 2 || p.levels[0] != 2 || p.levels[1] != 4 {
		t.Fatalf("levels wrong: %v", p.levels)
	}
	if p.Full() != m {
		t.Fatal("Full() lost the model")
	}
	// With spans, elevation (0.183×1500) and b4 (0.443×255) dominate.
	ord := p.order
	if m.Attrs[ord[0]] != "elev" || m.Attrs[ord[1]] != "b4" {
		t.Fatalf("contribution order: %v %v", m.Attrs[ord[0]], m.Attrs[ord[1]])
	}
	// Final level is exact: zero residual.
	if p.Resid(1) != 0 {
		t.Fatalf("final residual %v", p.Resid(1))
	}
	if p.Resid(0) <= 0 {
		t.Fatalf("coarse residual %v must be positive", p.Resid(0))
	}
	if p.CostAt(0) != 2 || p.CostAt(1) != 4 {
		t.Fatal("per-level costs wrong")
	}
}

func TestDecomposeValidation(t *testing.T) {
	m := HPSRisk()
	lo := []float64{0, 0, 0, 0}
	hi := []float64{1, 1, 1, 1}
	if _, err := Decompose(nil, lo, hi, 1); err == nil {
		t.Fatal("want error for nil model")
	}
	if _, err := Decompose(m, lo[:2], hi, 4); err == nil {
		t.Fatal("want dimension error")
	}
	if _, err := Decompose(m, lo, hi); err == nil {
		t.Fatal("want error for no levels")
	}
	if _, err := Decompose(m, lo, hi, 2, 2, 4); err == nil {
		t.Fatal("want error for non-ascending levels")
	}
	if _, err := Decompose(m, lo, hi, 2, 3); err == nil {
		t.Fatal("want error when last level != all terms")
	}
	if _, err := Decompose(m, []float64{2, 0, 0, 0}, []float64{1, 1, 1, 1}, 4); err == nil {
		t.Fatal("want error for empty attribute range")
	}
}

// Property: coarse evaluation ± residual always brackets the exact value
// for inputs within the declared attribute ranges.
func TestProgressiveBracketProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 2 + rng.Intn(5)
		coeffs := make([]float64, d)
		attrs := make([]string, d)
		lo := make([]float64, d)
		hi := make([]float64, d)
		for i := 0; i < d; i++ {
			coeffs[i] = rng.NormFloat64() * 3
			attrs[i] = "a"
			lo[i] = rng.NormFloat64() * 5
			hi[i] = lo[i] + rng.Float64()*10
		}
		m, err := New(attrs, coeffs, rng.NormFloat64())
		if err != nil {
			return false
		}
		p, err := Decompose(m, lo, hi, 1, d)
		if err != nil {
			return false
		}
		for trial := 0; trial < 20; trial++ {
			x := make([]float64, d)
			for i := range x {
				x[i] = lo[i] + rng.Float64()*(hi[i]-lo[i])
			}
			exact, _ := m.Eval(x)
			coarse := p.EvalLevelUnchecked(0, x)
			if math.Abs(exact-coarse) > p.Resid(0)+1e-9 {
				return false
			}
		}
		// Exact level reproduces the model.
		x := make([]float64, d)
		for i := range x {
			x[i] = lo[i] + rng.Float64()*(hi[i]-lo[i])
		}
		exact, _ := m.Eval(x)
		fin := p.EvalLevelUnchecked(len(p.levels)-1, x)
		return math.Abs(exact-fin) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCreditScoreRange(t *testing.T) {
	m := CreditScore()
	if m.NumTerms() != len(CreditAttrs) {
		t.Fatalf("terms=%d", m.NumTerms())
	}
	clean := make([]float64, m.NumTerms())
	s, err := m.Eval(clean)
	if err != nil {
		t.Fatal(err)
	}
	if s != 900 {
		t.Fatalf("clean file score %v want 900", s)
	}
	worst := make([]float64, m.NumTerms())
	for i := range worst {
		worst[i] = 1
	}
	s, _ = m.Eval(worst)
	if math.Abs(s-300) > 1e-9 {
		t.Fatalf("worst file score %v want 300", s)
	}
}

func TestForeclosureCalibration(t *testing.T) {
	// The paper's anchors: <2% above 680, ~8% below 620.
	if p := ForeclosureProbability(680); math.Abs(p-0.02) > 0.001 {
		t.Fatalf("P(680)=%v want ~0.02", p)
	}
	if p := ForeclosureProbability(620); math.Abs(p-0.08) > 0.005 {
		t.Fatalf("P(620)=%v want ~0.08", p)
	}
	if ForeclosureProbability(750) >= 0.02 {
		t.Fatal("high scores must be < 2%")
	}
	if ForeclosureProbability(500) <= 0.08 {
		t.Fatal("low scores must exceed 8%")
	}
}
