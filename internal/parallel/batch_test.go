package parallel

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"modelir/internal/topk"
)

// scoreSpec builds a BatchSpec over a synthetic dataset: unit u yields
// items with IDs u*perUnit..u*perUnit+perUnit-1 scored by score(id).
func scoreSpec(units, k, perUnit int, score func(id int64) float64) BatchSpec {
	return BatchSpec{
		Queue: newScoreQueue(units*perUnit, perUnit, func(i int) (float64, bool, error) {
			return score(int64(i)), true, nil
		}),
		K:     k,
		Floor: math.Inf(-1),
	}
}

// funcQueue is a one-unit Queue that runs fn.
type funcQueue struct {
	taken bool
	fn    func(h *topk.Heap, sb *topk.Bound) error
}

func (q *funcQueue) Pop(float64) (int, bool) {
	if q.taken {
		return 0, false
	}
	q.taken = true
	return 0, true
}

func (q *funcQueue) Run(_ int, h *topk.Heap, sb *topk.Bound) error { return q.fn(h, sb) }

// TestBatchMatchesSolo pins that a batched spec returns exactly what
// its solo TopK drain returns, across uneven unit counts and a shared
// pool far narrower than the spec count.
func TestBatchMatchesSolo(t *testing.T) {
	ctx := context.Background()
	score1 := func(id int64) float64 { return math.Sin(float64(id)) * 100 }
	score2 := func(id int64) float64 { return float64(id % 97) }
	score3 := func(id int64) float64 { return -float64(id) }
	specs := []BatchSpec{
		scoreSpec(1, 5, 40, score1),
		scoreSpec(4, 3, 25, score2),
		scoreSpec(7, 10, 13, score3),
	}
	solo := []BatchSpec{
		scoreSpec(1, 5, 40, score1),
		scoreSpec(4, 3, 25, score2),
		scoreSpec(7, 10, 13, score3),
	}
	for _, workers := range []int{1, 2, 8} {
		for i := range specs {
			specs[i].Queue.(*scoreQueue).next = 0
			solo[i].Queue.(*scoreQueue).next = 0
		}
		got, errs := BatchTopK(ctx, workers, specs)
		for i, sp := range solo {
			if errs[i] != nil {
				t.Fatalf("workers=%d spec %d: %v", workers, i, errs[i])
			}
			want, err := TopK(ctx, sp.Queue, sp.K, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(got[i]) != len(want) {
				t.Fatalf("workers=%d spec %d: %d vs %d items", workers, i, len(got[i]), len(want))
			}
			for j := range want {
				if got[i][j] != want[j] {
					t.Fatalf("workers=%d spec %d pos %d: %+v vs %+v", workers, i, j, got[i][j], want[j])
				}
			}
		}
	}
}

// TestBatchErrorIsolation pins that one spec's failure does not poison
// its batchmates.
func TestBatchErrorIsolation(t *testing.T) {
	boom := errors.New("boom")
	specs := []BatchSpec{
		scoreSpec(3, 4, 10, func(id int64) float64 { return float64(id) }),
		{
			Queue: newScoreQueue(30, 10, func(i int) (float64, bool, error) {
				if i == 15 {
					return 0, false, boom
				}
				return float64(i), true, nil
			}),
			K: 4, Floor: math.Inf(-1),
		},
		scoreSpec(2, 2, 6, func(id int64) float64 { return float64(-id) }),
	}
	results, errs := BatchTopK(context.Background(), 2, specs)
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("healthy specs errored: %v, %v", errs[0], errs[2])
	}
	if !errors.Is(errs[1], boom) {
		t.Fatalf("failing spec: got %v, want boom", errs[1])
	}
	if results[1] != nil {
		t.Fatalf("failing spec returned items: %v", results[1])
	}
	if len(results[0]) != 4 || len(results[2]) != 2 {
		t.Fatalf("healthy results truncated: %d, %d", len(results[0]), len(results[2]))
	}
}

// TestBatchSpecValidation pins per-spec construction errors.
func TestBatchSpecValidation(t *testing.T) {
	specs := []BatchSpec{
		{Queue: newScoreQueue(3, 1, func(int) (float64, bool, error) { return 0, true, nil }), K: 0},
		{Queue: nil, K: 1},
		scoreSpec(2, 1, 3, func(id int64) float64 { return float64(id) }),
	}
	results, errs := BatchTopK(context.Background(), 2, specs)
	for i := 0; i < 2; i++ {
		if errs[i] == nil {
			t.Fatalf("spec %d: want validation error", i)
		}
	}
	if errs[2] != nil || len(results[2]) != 1 {
		t.Fatalf("valid spec: %v, %v", errs[2], results[2])
	}
}

// TestBatchCancellation pins that a cancelled context poisons every
// spec with the context error.
func TestBatchCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 16)
	specs := []BatchSpec{
		{
			Queue: &funcQueue{fn: func(*topk.Heap, *topk.Bound) error {
				started <- struct{}{}
				<-ctx.Done()
				return ctx.Err()
			}},
			K: 2, Floor: math.Inf(-1),
		},
		scoreSpec(4, 2, 5, func(id int64) float64 { return float64(id) }),
	}
	done := make(chan struct{})
	var errs []error
	go func() {
		defer close(done)
		_, errs = BatchTopK(ctx, 2, specs)
	}()
	<-started
	cancel()
	<-done
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("spec %d: got %v, want context.Canceled", i, err)
		}
	}
}

// TestBatchScreeningFloor pins that a spec's floor seeds its own bound
// without leaking into batchmates.
func TestBatchScreeningFloor(t *testing.T) {
	var lowFloorSaw, highFloorSaw float64
	mk := func(saw *float64, floor float64) BatchSpec {
		return BatchSpec{
			Queue: &funcQueue{fn: func(h *topk.Heap, bound *topk.Bound) error {
				*saw = bound.Get()
				h.OfferScore(1, 50)
				return nil
			}},
			K: 1, Floor: floor,
		}
	}
	specs := []BatchSpec{mk(&lowFloorSaw, math.Inf(-1)), mk(&highFloorSaw, 42)}
	_, errs := BatchTopK(context.Background(), 2, specs)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
	}
	if !math.IsInf(lowFloorSaw, -1) {
		t.Fatalf("low-floor spec saw bound %v, want -Inf", lowFloorSaw)
	}
	if highFloorSaw != 42 {
		t.Fatalf("high-floor spec saw bound %v, want 42", highFloorSaw)
	}
}

func ExampleBatchTopK() {
	specs := []BatchSpec{
		scoreSpec(2, 2, 4, func(id int64) float64 { return float64(id) }),
		scoreSpec(2, 1, 4, func(id int64) float64 { return -float64(id) }),
	}
	results, _ := BatchTopK(context.Background(), 2, specs)
	fmt.Println(results[0][0].ID, results[1][0].ID)
	// Output: 7 0
}
