package parallel

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"

	"modelir/internal/topk"
)

func TestTopKValidation(t *testing.T) {
	if _, err := TopK(-1, 1, 1, func(int) (float64, bool, error) { return 0, true, nil }); err == nil {
		t.Fatal("want negative count error")
	}
	if _, err := TopK(5, 1, 1, nil); err == nil {
		t.Fatal("want nil scorer error")
	}
	if _, err := TopK(5, 0, 1, func(int) (float64, bool, error) { return 0, true, nil }); err == nil {
		t.Fatal("want k error")
	}
}

func TestTopKMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	scores := make([]float64, 10_000)
	for i := range scores {
		scores[i] = float64(rng.Intn(100)) // deliberate ties
	}
	scorer := func(i int) (float64, bool, error) { return scores[i], true, nil }
	want, err := TopK(len(scores), 25, 1, scorer)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, 24, 1000} {
		got, err := TopK(len(scores), 25, workers, scorer)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: len %d vs %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d pos %d: %+v vs %+v", workers, i, got[i], want[i])
			}
		}
	}
}

func TestTopKSkip(t *testing.T) {
	got, err := TopK(10, 5, 4, func(i int) (float64, bool, error) {
		return float64(i), i%2 == 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("len=%d", len(got))
	}
	for _, it := range got {
		if it.ID%2 != 0 {
			t.Fatalf("skipped item %d retained", it.ID)
		}
	}
}

func TestTopKErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	_, err := TopK(1000, 5, 8, func(i int) (float64, bool, error) {
		if i == 777 {
			return 0, false, boom
		}
		return float64(i), true, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
}

func TestTopKZeroItems(t *testing.T) {
	got, err := TopK(0, 5, 4, func(int) (float64, bool, error) { return 0, true, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("len=%d", len(got))
	}
}

// Property: any worker count yields the exact serial result.
func TestTopKDeterminismProperty(t *testing.T) {
	f := func(seed int64, workersRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(500)
		k := 1 + rng.Intn(20)
		workers := int(workersRaw)%32 + 1
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = float64(rng.Intn(40))
		}
		scorer := func(i int) (float64, bool, error) { return scores[i], true, nil }
		want := topk.SelectTopK(scores, k)
		got, err := TopK(n, k, workers, scorer)
		if err != nil || len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i].ID != want[i].ID || got[i].Score != want[i].Score {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestForEach(t *testing.T) {
	var count atomic.Int64
	if err := ForEach(1000, 8, func(i int) error {
		count.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count.Load() != 1000 {
		t.Fatalf("ran %d of 1000", count.Load())
	}
	boom := errors.New("boom")
	err := ForEach(100, 4, func(i int) error {
		if i == 50 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
	if err := ForEach(5, 2, nil); err == nil {
		t.Fatal("want nil fn error")
	}
	if err := ForEach(-1, 2, func(int) error { return nil }); err == nil {
		t.Fatal("want negative count error")
	}
	if err := ForEach(0, 2, func(int) error { return errors.New("never") }); err != nil {
		t.Fatal("zero items must be a no-op")
	}
}

func TestShardTopKValidation(t *testing.T) {
	run := func(s int, sb *topk.Bound, dst []topk.Item) ([]topk.Item, error) { return nil, nil }
	if _, err := ShardTopK(-1, 1, 0, run); err == nil {
		t.Fatal("want negative shards error")
	}
	if _, err := ShardTopK(1, 1, 0, nil); err == nil {
		t.Fatal("want nil runner error")
	}
	if _, err := ShardTopK(1, 0, 0, run); err == nil {
		t.Fatal("want bad capacity error")
	}
	items, err := ShardTopK(0, 3, 0, run)
	if err != nil || len(items) != 0 {
		t.Fatalf("zero shards: items=%v err=%v", items, err)
	}
}

func TestShardTopKMergesExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	scores := make([]float64, 1000)
	for i := range scores {
		scores[i] = float64(rng.Intn(50)) // ties across shard boundaries
	}
	want := topk.SelectTopK(scores, 13)
	for _, shards := range []int{1, 2, 3, 7, 16} {
		chunk := (len(scores) + shards - 1) / shards
		got, err := ShardTopK(shards, 13, 4, func(s int, sb *topk.Bound, dst []topk.Item) ([]topk.Item, error) {
			lo := s * chunk
			hi := lo + chunk
			if hi > len(scores) {
				hi = len(scores)
			}
			h := topk.MustHeap(13)
			for i := lo; i < hi; i++ {
				h.OfferScore(int64(i), scores[i])
			}
			if tr, ok := h.Threshold(); ok {
				sb.Raise(tr)
			}
			return h.AppendUnordered(dst), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("shards=%d: %d items, want %d", shards, len(got), len(want))
		}
		for i := range want {
			if got[i].ID != want[i].ID || got[i].Score != want[i].Score {
				t.Fatalf("shards=%d pos %d: %+v vs %+v", shards, i, got[i], want[i])
			}
		}
	}
}

func TestShardTopKBoundIsShared(t *testing.T) {
	// Every worker should observe raises published by earlier workers;
	// with 1 worker the shards run in order, so shard 1 must see the
	// floor shard 0 raised.
	sawFloor := false
	_, err := ShardTopK(2, 1, 1, func(s int, sb *topk.Bound, dst []topk.Item) ([]topk.Item, error) {
		if s == 0 {
			sb.Raise(41)
			return append(dst, topk.Item{ID: 0, Score: 41}), nil
		}
		if sb.Get() == 41 {
			sawFloor = true
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawFloor {
		t.Fatal("shard 1 did not observe shard 0's raised floor")
	}
}

func TestShardTopKErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	if _, err := ShardTopK(4, 2, 2, func(s int, sb *topk.Bound, dst []topk.Item) ([]topk.Item, error) {
		if s == 2 {
			return nil, boom
		}
		return nil, nil
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

// ForEachCtx aborts at the next item boundary once the context is
// cancelled, returning the bare ctx.Err().
func TestForEachCtxCancelMidRun(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		err := ForEachCtx(ctx, 10_000, workers, func(i int) error {
			if ran.Add(1) == 3 {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got %v, want context.Canceled", workers, err)
		}
		if n := ran.Load(); n >= 10_000 {
			t.Fatalf("workers=%d: all %d items ran despite cancel", workers, n)
		}
	}
}

// ShardTopKCtx returns ctx.Err() unwrapped when a shard aborts on
// cancellation, and pre-seeds the shared bound with the floor.
func TestShardTopKCtxFloorAndCancel(t *testing.T) {
	// Floor seeding: shards see the floor before any heap fills.
	items, err := ShardTopKCtx(context.Background(), 3, 5, 0, 41.5,
		func(s int, b *topk.Bound, dst []topk.Item) ([]topk.Item, error) {
			if got := b.Get(); got != 41.5 {
				return nil, fmt.Errorf("shard %d saw floor %v", s, got)
			}
			return append(dst, topk.Item{ID: int64(s), Score: 42}), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 3 {
		t.Fatalf("%d items", len(items))
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancel()
	_, err = ShardTopKCtx(ctx, 4, 5, 0, math.Inf(-1),
		func(s int, b *topk.Bound, dst []topk.Item) ([]topk.Item, error) {
			return nil, ctx.Err()
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if err != context.Canceled {
		t.Fatalf("context error arrived wrapped: %v", err)
	}
}
