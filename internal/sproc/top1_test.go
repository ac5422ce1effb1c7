package sproc

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// randomTop1Query builds a random fuzzy Cartesian query over l items
// with deliberate grade collisions so the tie rules are exercised.
func randomTop1Query(rng *rand.Rand, l, m int) Query {
	unary := make([][]float64, m)
	for mi := range unary {
		unary[mi] = make([]float64, l)
		for j := range unary[mi] {
			unary[mi][j] = float64(rng.Intn(8)) / 8 // coarse: many ties
		}
	}
	pair := make([]float64, l*l)
	for i := range pair {
		pair[i] = float64(rng.Intn(4)) / 4
	}
	return Query{
		M:     m,
		Unary: func(mi, item int) float64 { return unary[mi][item] },
		Pair:  func(mi, a, b int) float64 { return pair[a*l+b] },
	}
}

// TestDP1MatchesDPTop1: DP1Ctx must reproduce DPCtx(k=1)'s first match
// — items, score and every Stats counter — across random queries,
// sizes and slot counts, with one scratch reused throughout.
func TestDP1MatchesDPTop1(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	sc := NewScratch()
	ctx := context.Background()
	for trial := 0; trial < 60; trial++ {
		l := 1 + rng.Intn(40)
		m := 1 + rng.Intn(4)
		q := randomTop1Query(rng, l, m)
		wantMatches, wantSt, err := DPCtx(ctx, l, q, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, gotSt, err := DP1Ctx(ctx, l, q, sc)
		if err != nil {
			t.Fatal(err)
		}
		if len(wantMatches) != 1 {
			t.Fatalf("trial %d: DP returned %d matches", trial, len(wantMatches))
		}
		want := wantMatches[0]
		if got.Score != want.Score {
			t.Fatalf("trial %d (l=%d m=%d): score %v, want %v", trial, l, m, got.Score, want.Score)
		}
		if len(got.Items) != len(want.Items) {
			t.Fatalf("trial %d: %d items, want %d", trial, len(got.Items), len(want.Items))
		}
		for i := range want.Items {
			if got.Items[i] != want.Items[i] {
				t.Fatalf("trial %d slot %d: item %d, want %d (got %v want %v)",
					trial, i, got.Items[i], want.Items[i], got.Items, want.Items)
			}
		}
		if gotSt.UnaryEvals != wantSt.UnaryEvals || gotSt.PairEvals != wantSt.PairEvals ||
			gotSt.TuplesConsidered != wantSt.TuplesConsidered {
			t.Fatalf("trial %d: stats %+v, want %+v", trial, gotSt, wantSt)
		}
	}
}

// TestDP1Validation mirrors the general evaluators' input checks.
func TestDP1Validation(t *testing.T) {
	sc := NewScratch()
	ctx := context.Background()
	if _, _, err := DP1Ctx(ctx, 0, Query{M: 1, Unary: func(int, int) float64 { return 0 }}, sc); err == nil {
		t.Fatal("want empty item set error")
	}
	if _, _, err := DP1Ctx(ctx, 3, Query{M: 0}, sc); err == nil {
		t.Fatal("want bad M error")
	}
	if _, _, err := DP1Ctx(ctx, 3, Query{M: 2, Unary: func(int, int) float64 { return 0 }}, sc); err == nil {
		t.Fatal("want nil pair error")
	}
}

// TestDP1CancelMidQuery: cancellation inside the DP surfaces ctx.Err()
// exactly as DPCtx does.
func TestDP1CancelMidQuery(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	q := Query{
		M: 3,
		Unary: func(m, item int) float64 {
			return 0.5
		},
		Pair: func(m, a, b int) float64 {
			calls++
			if calls == 5000 {
				cancel()
			}
			return 1
		},
	}
	_, _, err := DP1Ctx(ctx, 120, q, NewScratch())
	cancel()
	if err == nil {
		t.Fatal("cancelled DP1 returned normally")
	}
}

// TestDP1SteadyStateZeroAllocs: the geology scan kernel must not
// allocate once its scratch is warm.
func TestDP1SteadyStateZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	q := randomTop1Query(rng, 30, 3)
	sc := NewScratch()
	ctx := context.Background()
	run := func() {
		if _, _, err := DP1Ctx(ctx, 30, q, sc); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("steady-state DP1 allocates %.1f allocs/op, want 0", allocs)
	}
}

// fuzzFloors are the screening floors FuzzDP1FloorMatchesDP draws from:
// the unfloored and zero cases, every grade level the generated tables
// use (multiples of 1/8 and 1/4, so a floor can tie the best score
// exactly), one ULP either side of each, and floors above every grade.
var fuzzFloors = func() []float64 {
	fs := []float64{math.Inf(-1), -1, 0, math.SmallestNonzeroFloat64, 1.5, math.Inf(1)}
	for i := 1; i <= 8; i++ {
		v := float64(i) / 8
		fs = append(fs, v, math.Nextafter(v, 0), math.Nextafter(v, 2))
	}
	return fs
}()

// FuzzDP1FloorMatchesDP: for any query and floor, DP1FloorCtx reports
// exactly DPCtx(…, 1)'s best match — items and score, bit for bit —
// when that match scores above zero and at least the floor, and no
// match otherwise. Grades are coarse (ninths of a byte's residue) so
// ties and zeros are common. The scratch is dirtied by an unfloored
// run of the same query first, so stale partial scores would show.
func FuzzDP1FloorMatchesDP(f *testing.F) {
	f.Add(uint8(5), uint8(3), uint8(0), []byte{8, 8, 0, 3, 8, 1, 8, 8, 4, 4, 2, 7})
	f.Add(uint8(7), uint8(2), uint8(17), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add(uint8(1), uint8(1), uint8(2), []byte{0})
	f.Add(uint8(12), uint8(4), uint8(9), []byte{8, 0, 8, 4, 8, 8, 1})
	f.Add(uint8(3), uint8(3), uint8(3), []byte{})
	f.Add(uint8(3), uint8(3), uint8(0), []byte{})     // best 0, no floor
	f.Add(uint8(4), uint8(2), uint8(1), []byte{0, 8}) // best 0, floor -1
	// A floor tied with the best score (0.625): it must be reported.
	f.Add(uint8(5), uint8(3), uint8(18), []byte("0"))
	f.Add(uint8(5), uint8(3), uint8(18), []byte("00"))
	f.Add(uint8(9), uint8(3), uint8(26), []byte{4, 4, 4, 4, 3, 3, 8})
	f.Fuzz(func(t *testing.T, lb, mb, fb uint8, data []byte) {
		l, m := 1+int(lb%12), 1+int(mb%4)
		floor := fuzzFloors[int(fb)%len(fuzzFloors)]
		next := func(i int) byte {
			if len(data) == 0 {
				return 0
			}
			return data[i%len(data)] + byte(i/len(data))*37
		}
		unary := make([]float64, m*l)
		for i := range unary {
			unary[i] = float64(next(i)%9) / 8
		}
		pair := make([]float64, m*l*l)
		for i := range pair {
			pair[i] = float64(next(len(unary)+i)%5) / 4
		}
		q := Query{
			M:     m,
			Unary: func(mi, item int) float64 { return unary[mi*l+item] },
			Pair:  func(mi, a, b int) float64 { return pair[(mi*l+a)*l+b] },
		}
		ctx := context.Background()
		wantMatches, wantSt, err := DPCtx(ctx, l, q, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := wantMatches[0]
		sc := NewScratch()
		if _, _, err := DP1Ctx(ctx, l, q, sc); err != nil {
			t.Fatal(err)
		}
		got, ok, st, err := DP1FloorCtx(ctx, l, q, floor, sc)
		if err != nil {
			t.Fatal(err)
		}
		if reach := want.Score > 0 && want.Score >= floor; ok != reach {
			t.Fatalf("l=%d m=%d floor=%v: ok=%v, want %v (best %v %v)", l, m, floor, ok, reach, want.Score, want.Items)
		}
		if ok {
			if math.Float64bits(got.Score) != math.Float64bits(want.Score) || !reflect.DeepEqual(got.Items, want.Items) {
				t.Fatalf("l=%d m=%d floor=%v: got %v %v, want %v %v", l, m, floor, got.Score, got.Items, want.Score, want.Items)
			}
		}
		if st.UnaryEvals != l*m || st.PairEvals > wantSt.PairEvals {
			t.Fatalf("stats %+v against DP's %+v", st, wantSt)
		}
		// PairEvals is zero exactly when some slot has no item grading
		// at least the floor (or there is no pair to evaluate).
		empty := false
		for mi := 0; mi < m; mi++ {
			n := 0
			for j := 0; j < l; j++ {
				if u := unary[mi*l+j]; u > 0 && u >= floor {
					n++
				}
			}
			empty = empty || n == 0
		}
		if (st.PairEvals == 0) != (empty || m == 1) {
			t.Fatalf("l=%d m=%d floor=%v: %d pair evals with empty slot %v", l, m, floor, st.PairEvals, empty)
		}
	})
}

// TestDP1FloorRejectsBeforePairs: a slot with no item reaching the
// floor ends the evaluation after the unary grades, with no pair
// evaluated; a floor at the best score keeps every item and pays every
// pair.
func TestDP1FloorRejectsBeforePairs(t *testing.T) {
	q := Query{
		M:     3,
		Unary: func(m, item int) float64 { return []float64{1, 0.5, 0.25}[m] },
		Pair:  func(int, int, int) float64 { return 1 },
	}
	sc := NewScratch()
	ctx := context.Background()
	if _, ok, st, err := DP1FloorCtx(ctx, 10, q, 0.3, sc); err != nil || ok || st.UnaryEvals != 30 || st.PairEvals != 0 {
		t.Fatalf("floor above slot 2: ok=%v stats %+v err %v", ok, st, err)
	}
	m, ok, st, err := DP1FloorCtx(ctx, 10, q, 0.25, sc)
	if err != nil || !ok || m.Score != 0.25 || st.PairEvals != 200 {
		t.Fatalf("floor at the best score: ok=%v %+v stats %+v err %v", ok, m, st, err)
	}
}
