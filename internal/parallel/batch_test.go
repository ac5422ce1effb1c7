package parallel

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"modelir/internal/topk"
)

// scoreSpec builds a BatchSpec over a synthetic dataset: shard s yields
// items with IDs s*stride..s*stride+perShard-1 scored by score(id).
func scoreSpec(shards, k, perShard int, score func(id int64) float64) BatchSpec {
	return BatchSpec{
		Shards: shards,
		K:      k,
		Floor:  math.Inf(-1),
		Run: func(shard int, bound *topk.Bound, dst []topk.Item) ([]topk.Item, error) {
			h := topk.MustHeap(k)
			for i := 0; i < perShard; i++ {
				id := int64(shard*perShard + i)
				h.OfferScore(id, score(id))
			}
			return h.AppendUnordered(dst), nil
		},
	}
}

// TestBatchMatchesSolo pins that a batched spec returns exactly what
// its solo ShardTopKCtx run returns, across uneven shard counts and a
// shared pool far narrower than the cell count.
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
	for _, workers := range []int{1, 2, 8} {
		got, errs := BatchShardTopKCtx(ctx, workers, specs)
		for i, sp := range specs {
			if errs[i] != nil {
				t.Fatalf("workers=%d spec %d: %v", workers, i, errs[i])
			}
			want, err := ShardTopKCtx(ctx, sp.Shards, sp.K, workers, sp.Floor, sp.Run)
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
			Shards: 3, K: 4, Floor: math.Inf(-1),
			Run: func(shard int, _ *topk.Bound, dst []topk.Item) ([]topk.Item, error) {
				if shard == 1 {
					return nil, boom
				}
				return nil, nil
			},
		},
		scoreSpec(2, 2, 6, func(id int64) float64 { return float64(-id) }),
	}
	results, errs := BatchShardTopKCtx(context.Background(), 2, specs)
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
		{Shards: 1, K: 0, Run: func(int, *topk.Bound, []topk.Item) ([]topk.Item, error) { return nil, nil }},
		{Shards: -1, K: 1, Run: func(int, *topk.Bound, []topk.Item) ([]topk.Item, error) { return nil, nil }},
		{Shards: 1, K: 1, Run: nil},
		scoreSpec(2, 1, 3, func(id int64) float64 { return float64(id) }),
	}
	results, errs := BatchShardTopKCtx(context.Background(), 2, specs)
	for i := 0; i < 3; i++ {
		if errs[i] == nil {
			t.Fatalf("spec %d: want validation error", i)
		}
	}
	if errs[3] != nil || len(results[3]) != 1 {
		t.Fatalf("valid spec: %v, %v", errs[3], results[3])
	}
}

// TestBatchCancellation pins that a cancelled context poisons every
// spec with the context error.
func TestBatchCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 16)
	specs := []BatchSpec{
		{
			Shards: 4, K: 2, Floor: math.Inf(-1),
			Run: func(shard int, _ *topk.Bound, dst []topk.Item) ([]topk.Item, error) {
				started <- struct{}{}
				<-ctx.Done()
				return nil, ctx.Err()
			},
		},
		scoreSpec(4, 2, 5, func(id int64) float64 { return float64(id) }),
	}
	done := make(chan struct{})
	var errs []error
	go func() {
		defer close(done)
		_, errs = BatchShardTopKCtx(ctx, 2, specs)
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
			Shards: 1, K: 1, Floor: floor,
			Run: func(_ int, bound *topk.Bound, dst []topk.Item) ([]topk.Item, error) {
				*saw = bound.Get()
				h := topk.MustHeap(1)
				h.OfferScore(1, 50)
				return h.AppendUnordered(dst), nil
			},
		}
	}
	specs := []BatchSpec{mk(&lowFloorSaw, math.Inf(-1)), mk(&highFloorSaw, 42)}
	_, errs := BatchShardTopKCtx(context.Background(), 2, specs)
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

func ExampleBatchShardTopKCtx() {
	specs := []BatchSpec{
		scoreSpec(2, 2, 4, func(id int64) float64 { return float64(id) }),
		scoreSpec(2, 1, 4, func(id int64) float64 { return -float64(id) }),
	}
	results, _ := BatchShardTopKCtx(context.Background(), 2, specs)
	fmt.Println(results[0][0].ID, results[1][0].ID)
	// Output: 7 0
}
