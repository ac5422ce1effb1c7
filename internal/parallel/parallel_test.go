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

// scoreQueue is a test Queue over items 0..n-1 in units of `per` items,
// handed out in order. score may skip an item (keep false) or fail it.
type scoreQueue struct {
	next   int
	n, per int
	score  func(i int) (float64, bool, error)
}

func newScoreQueue(n, per int, score func(i int) (float64, bool, error)) *scoreQueue {
	return &scoreQueue{n: n, per: per, score: score}
}

func (q *scoreQueue) Pop(float64) (int, bool) {
	if q.next*q.per >= q.n {
		return 0, false
	}
	q.next++
	return q.next - 1, true
}

func (q *scoreQueue) Run(u int, h *topk.Heap, _ *topk.Bound) error {
	for i := u * q.per; i < min(q.n, (u+1)*q.per); i++ {
		s, keep, err := q.score(i)
		if err != nil {
			return fmt.Errorf("item %d: %w", i, err)
		}
		if keep {
			h.OfferScore(int64(i), s)
		}
	}
	return nil
}

func topK(n, per, k int, score func(i int) (float64, bool, error)) ([]topk.Item, error) {
	return TopK(context.Background(), newScoreQueue(n, per, score), k, nil)
}

func TestTopKValidation(t *testing.T) {
	if _, err := TopK(context.Background(), nil, 1, nil); err == nil {
		t.Fatal("want nil queue error")
	}
	q := newScoreQueue(5, 1, func(int) (float64, bool, error) { return 0, true, nil })
	if _, err := TopK(context.Background(), q, 0, nil); !errors.Is(err, topk.ErrBadCapacity) {
		t.Fatalf("k 0: got %v, want ErrBadCapacity", err)
	}
}

// TestTopKMatchesSerial: draining units of any size into one heap
// equals the serial selection bit for bit, ties across units included.
func TestTopKMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	scores := make([]float64, 10_000)
	for i := range scores {
		scores[i] = float64(rng.Intn(100)) // deliberate ties
	}
	scorer := func(i int) (float64, bool, error) { return scores[i], true, nil }
	want := topk.SelectTopK(scores, 25)
	for _, per := range []int{1, 7, 37, 1000, 20_000} {
		got, err := topK(len(scores), per, 25, scorer)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("per=%d: len %d vs %d", per, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("per=%d pos %d: %+v vs %+v", per, i, got[i], want[i])
			}
		}
	}
}

func TestTopKSkip(t *testing.T) {
	got, err := topK(10, 3, 5, func(i int) (float64, bool, error) {
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
	_, err := topK(1000, 10, 5, func(i int) (float64, bool, error) {
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
	got, err := topK(0, 4, 5, func(int) (float64, bool, error) { return 0, true, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("len=%d", len(got))
	}
}

// Property: any unit size yields the exact serial result.
func TestTopKDeterminismProperty(t *testing.T) {
	f := func(seed int64, perRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(500)
		k := 1 + rng.Intn(20)
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = float64(rng.Intn(40))
		}
		scorer := func(i int) (float64, bool, error) { return scores[i], true, nil }
		want := topk.SelectTopK(scores, k)
		got, err := topK(n, int(perRaw)%50+1, k, scorer)
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

// boundQueue is a test Queue of units with fixed bounds, popped in
// order; unit u scores one item of score scores[u]. It records the
// shared floor each unit saw and, like a best-first queue, stops at the
// first unit whose bound is strictly below the caller's floor.
type boundQueue struct {
	next   int
	bounds []float64
	saw    []float64
}

func (q *boundQueue) Pop(floor float64) (int, bool) {
	if q.next == len(q.bounds) || q.bounds[q.next] < floor {
		return 0, false
	}
	q.next++
	return q.next - 1, true
}

func (q *boundQueue) Run(u int, h *topk.Heap, sb *topk.Bound) error {
	q.saw = append(q.saw, sb.Get())
	h.OfferScore(int64(u), q.bounds[u])
	return nil
}

// TestTopKPublishesBound: after each unit the heap threshold reaches
// the shared bound, so the next unit sees it, and the drain
// stops at the first unit bounded strictly below the floor (a tie still
// runs).
func TestTopKPublishesBound(t *testing.T) {
	q := &boundQueue{bounds: []float64{9, 7, 7, 6, 8}}
	got, err := TopK(context.Background(), q, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != 0 || got[0].Score != 9 {
		t.Fatalf("got %v", got)
	}
	if q.next != 1 || len(q.saw) != 1 || !math.IsInf(q.saw[0], -1) {
		t.Fatalf("k=1: ran %d units, saw %v", q.next, q.saw)
	}
	q = &boundQueue{bounds: []float64{9, 7, 7, 6, 8}}
	if _, err := TopK(context.Background(), q, 2, nil); err != nil {
		t.Fatal(err)
	}
	// Units 0 and 1 fill the heap (floor 7); unit 2 ties it and runs,
	// unit 3 is below it and ends the drain.
	if q.next != 3 || q.saw[2] != 7 {
		t.Fatalf("k=2: ran %d units, saw %v", q.next, q.saw)
	}
}

// TestTopKCtxFloorAndCancel: a caller-held bound seeds the floor every
// unit sees, the heap's threshold is published back to it, and a
// cancelled context returns ctx.Err() unwrapped.
func TestTopKCtxFloorAndCancel(t *testing.T) {
	bound := topk.NewBound()
	bound.Raise(41.5)
	q := &boundQueue{bounds: []float64{50, 45, 42}}
	items, err := TopK(context.Background(), q, 2, bound)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 || q.saw[0] != 41.5 {
		t.Fatalf("items %v, first unit saw %v", items, q.saw)
	}
	if bound.Get() != 45 {
		t.Fatalf("bound %v after the drain, want the threshold 45", bound.Get())
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = TopK(ctx, &boundQueue{bounds: []float64{1}}, 5, nil)
	if err != context.Canceled {
		t.Fatalf("got %v, want bare context.Canceled", err)
	}
}

// shardTopK drains items 0..len(scores)-1 split into `shards`
// contiguous units.
func shardTopK(scores []float64, shards, k int, fail func(i int) error) ([]topk.Item, error) {
	chunk := max(1, (len(scores)+shards-1)/max(1, shards))
	return topK(len(scores), chunk, k, func(i int) (float64, bool, error) {
		if fail != nil {
			if err := fail(i); err != nil {
				return 0, false, err
			}
		}
		return scores[i], true, nil
	})
}

// TestShardTopKValidation: a nil queue and a bad k are errors, and a
// request with no shards is an empty result, not an error.
func TestShardTopKValidation(t *testing.T) {
	if _, err := TopK(context.Background(), nil, 3, nil); err == nil {
		t.Fatal("want nil queue error")
	}
	for _, k := range []int{0, -1} {
		if _, err := shardTopK([]float64{1, 2}, 2, k, nil); !errors.Is(err, topk.ErrBadCapacity) {
			t.Fatalf("k %d: got %v, want ErrBadCapacity", k, err)
		}
	}
	items, err := shardTopK(nil, 0, 3, nil)
	if err != nil || len(items) != 0 {
		t.Fatalf("zero shards: items=%v err=%v", items, err)
	}
}

// TestShardTopKMergesExactly: shards drained as units of one queue give
// the exact top-K, ties across shard boundaries included.
func TestShardTopKMergesExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	scores := make([]float64, 1000)
	for i := range scores {
		scores[i] = float64(rng.Intn(50)) // ties across shard boundaries
	}
	want := topk.SelectTopK(scores, 13)
	for _, shards := range []int{1, 2, 3, 7, 16} {
		got, err := shardTopK(scores, shards, 13, nil)
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

// TestShardTopKErrorPropagates: a failing shard fails the request with
// its error wrapped.
func TestShardTopKErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	scores := make([]float64, 40)
	_, err := shardTopK(scores, 4, 2, func(i int) error {
		if i/10 == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

func TestForEach(t *testing.T) {
	var count atomic.Int64
	if err := ForEachCtx(context.Background(), 1000, 8, func(i int) error {
		count.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count.Load() != 1000 {
		t.Fatalf("ran %d of 1000", count.Load())
	}
	boom := errors.New("boom")
	err := ForEachCtx(context.Background(), 100, 4, func(i int) error {
		if i == 50 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
	if err := ForEachCtx(context.Background(), 5, 2, nil); err == nil {
		t.Fatal("want nil fn error")
	}
	if err := ForEachCtx(context.Background(), -1, 2, func(int) error { return nil }); err == nil {
		t.Fatal("want negative count error")
	}
	if err := ForEachCtx(context.Background(), 0, 2, func(int) error { return errors.New("never") }); err != nil {
		t.Fatal("zero items must be a no-op")
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
