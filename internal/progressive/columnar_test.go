package progressive

import (
	"context"
	"errors"
	"testing"

	"modelir/internal/topk"
)

// The columnar-descent pins: the flat-pyramid branch-and-bound must
// behave exactly like its Grid-based predecessor under budgets that
// truncate it at every pyramid-level boundary, under cancellation
// fired at every level boundary, and — steady state — without
// allocating.

// boundaryK is large enough relative to the 16×16 boundary scene that
// every pyramid level drains (and so emits a boundary event) before
// the floor prunes the frontier.
const boundaryK = 64

// levelBoundaryBudgets runs one unbudgeted descent and records the
// meter reading at every OnLevel event — the exact work totals at
// which a screening level completed.
func levelBoundaryBudgets(t *testing.T) (budgets []int, full Result) {
	t.Helper()
	pm, mp := hpsSetup(t, 21, 16, 16)
	meter := topk.NewMeter(1 << 40) // effectively unlimited, but readable
	res, err := combinedOpts(pm, mp, boundaryK, DescendOpts{
		Meter: meter,
		OnLevel: func(level int, sofar []topk.Item) error {
			budgets = append(budgets, int(meter.Used()))
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(budgets) < 3 {
		t.Fatalf("only %d level boundaries observed", len(budgets))
	}
	return budgets, res
}

// TestDescendBudgetEveryLevelBoundary mirrors onion's
// TestScanBudgetTruncates at each pyramid-level boundary: with the
// budget set exactly to the work recorded at a boundary, the descent
// must stop within one frontier step of it (the gate runs before each
// pop, and one pop charges at most the full-model pixel cost or four
// child bounds), never error, and report work consistent with the
// meter. A budget covering the whole descent must reproduce the
// unbudgeted result exactly.
func TestDescendBudgetEveryLevelBoundary(t *testing.T) {
	budgets, full := levelBoundaryBudgets(t)
	pm, mp := hpsSetup(t, 21, 16, 16)
	nTerms := pm.Full().NumTerms()
	// One frontier pop charges at most max(4 child bounds, one full
	// pixel) = 8*nTerms term evaluations.
	maxStep := 8 * nTerms
	for _, b := range budgets {
		meter := topk.NewMeter(b)
		part, err := combinedOpts(pm, mp, boundaryK, DescendOpts{Meter: meter})
		if err != nil {
			t.Fatalf("budget %d: %v", b, err)
		}
		if got := part.Stats.Work(); got > b+maxStep {
			t.Fatalf("budget %d: descent spent %d (> budget + one step %d)", b, got, b+maxStep)
		}
		if int(meter.Used()) != part.Stats.Work() {
			t.Fatalf("budget %d: meter %d != stats work %d", b, meter.Used(), part.Stats.Work())
		}
		// Every item a truncated descent returns must carry its true
		// model score — truncation may drop winners, never corrupt
		// scores.
		bind, err := Bind(pm.Full(), mp)
		if err != nil {
			t.Fatal(err)
		}
		xs := make([]float64, nTerms)
		for _, it := range part.Items {
			x, y := int(it.ID)%16, int(it.ID)/16
			mp.Flat(0).Means(x, y, bind.Bands, xs)
			if want := pm.Full().EvalUnchecked(xs); it.Score != want {
				t.Fatalf("budget %d: item %d score %v, true %v", b, it.ID, it.Score, want)
			}
		}
	}
	// Budget == total work: the meter is never exceeded, so the result
	// must equal the unbudgeted run bit for bit.
	total := full.Stats.Work()
	meter := topk.NewMeter(total)
	res, err := combinedOpts(pm, mp, boundaryK, DescendOpts{Meter: meter})
	if err != nil {
		t.Fatal(err)
	}
	if meter.Exhausted() {
		t.Fatal("exact-budget run reported exhaustion")
	}
	if len(res.Items) != len(full.Items) {
		t.Fatalf("exact budget changed result size: %d vs %d", len(res.Items), len(full.Items))
	}
	for i := range full.Items {
		if res.Items[i] != full.Items[i] {
			t.Fatalf("exact budget diverged at %d: %+v vs %+v", i, res.Items[i], full.Items[i])
		}
	}
}

// TestDescendCancelEveryLevelBoundary fires cancellation at each
// successive level boundary (the N-th OnLevel event) and requires the
// descent to return ctx.Err() promptly — a cancelled descent never
// yields a normal result.
func TestDescendCancelEveryLevelBoundary(t *testing.T) {
	budgets, _ := levelBoundaryBudgets(t)
	pm, mp := hpsSetup(t, 21, 16, 16)
	for at := 1; at <= len(budgets); at++ {
		ctx, cancel := context.WithCancel(context.Background())
		events := 0
		_, err := combinedOpts(pm, mp, boundaryK, DescendOpts{
			Ctx: ctx,
			OnLevel: func(level int, sofar []topk.Item) error {
				events++
				if events == at {
					cancel()
				}
				return nil
			},
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel at boundary %d: got %v, want context.Canceled", at, err)
		}
		if events > at {
			t.Fatalf("cancel at boundary %d: %d further level events fired", at, events-at)
		}
	}
}

// TestCombinedIntoMatchesCombined pins the engine's entry point — the
// caller's heap, pooled scratch — against the allocating whole-scene
// descent: same items, same stats.
func TestCombinedIntoMatchesCombined(t *testing.T) {
	pm, mp := hpsSetup(t, 22, 64, 64)
	want, err := Combined(pm, mp, 7)
	if err != nil {
		t.Fatal(err)
	}
	h := topk.MustHeap(7)
	st, err := CombinedInto(pm, mp, h, DescendOpts{})
	if err != nil {
		t.Fatal(err)
	}
	got := h.Results()
	if len(got) != len(want.Items) {
		t.Fatalf("CombinedInto returned %d items, want %d", len(got), len(want.Items))
	}
	for i := range want.Items {
		if got[i] != want.Items[i] {
			t.Fatalf("CombinedInto diverged at %d: %+v vs %+v", i, got[i], want.Items[i])
		}
	}
	if st != want.Stats {
		t.Fatalf("CombinedInto stats %+v, want %+v", st, want.Stats)
	}
}

// TestDescendSteadyStateZeroAllocs is the pyramid-family analogue of
// colstore's zero-allocation pin: a warmed-up CombinedInto descent into
// a reused heap, with pooled scratch, must not allocate.
func TestDescendSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under the race detector; allocation counts are only meaningful without it")
	}
	pm, mp := hpsSetup(t, 23, 64, 64)
	h := topk.MustHeap(10)
	buf := make([]topk.Item, 0, 10)
	scan := func() {
		h.Reset()
		if _, err := CombinedInto(pm, mp, h, DescendOpts{}); err != nil {
			t.Fatal(err)
		}
		buf = h.AppendResults(buf[:0])
	}
	scan() // warm the pools
	if allocs := testing.AllocsPerRun(10, scan); allocs != 0 {
		t.Fatalf("steady-state descent allocates %.1f allocs/op, want 0", allocs)
	}
	if len(buf) != 10 {
		t.Fatalf("descent kept %d items", len(buf))
	}
}
