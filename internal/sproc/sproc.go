// Package sproc implements SPROC, the paper's search-space pruning
// machinery for fuzzy Cartesian (composite-object) queries [15,16]
// (Section 3.2). A query asks for the top-K assignments of M rule slots
// to database items, scored by fuzzy-AND (min) over per-slot unary grades
// and between-slot pairwise constraints — e.g. the geology model of
// Fig. 4: slot 1 = shale, slot 2 = sandstone adjacent below, slot 3 =
// siltstone adjacent below, all with gamma > 45.
//
// Three evaluators are provided:
//
//   - BruteForce — enumerates all L^M tuples; the paper's O(L^M) baseline
//     (guarded by a combination cap).
//   - DP — exact top-K dynamic programming keeping the K best partial
//     assignments per (slot, ending item): O(M·K·L²), the complexity the
//     paper quotes for SPROC [15].
//   - Pruned — the [16]-style refinement: a cheap beam pass derives a
//     lower bound on the K-th best score, unary-sorted item lists then
//     discard every item that cannot beat it (sound under min semantics
//     because a tuple's score never exceeds any of its unary grades),
//     and the exact DP runs on the survivors: O(M·L·log L + DP on L').
//
// The engine serves k == 1 per well through top1.go's DP1FloorCtx: the
// DP specialized to one match, screening items against the floor of
// the scan's merged top-K (DP1Ctx is its unfloored case).
package sproc

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"modelir/internal/topk"
)

// Query defines an M-slot fuzzy Cartesian query over items 0..L-1.
type Query struct {
	// M is the number of rule slots (>= 1).
	M int
	// Unary grades item `item` for slot m (0-based); must return a value
	// in [0, 1].
	Unary func(m, item int) float64
	// Pair grades the compatibility of consecutive slot assignments:
	// prev fills slot m-1, cur fills slot m (m in [1, M)). Must return a
	// value in [0, 1]. May be nil when M == 1 or there are no pairwise
	// constraints (treated as always 1).
	Pair func(m, prev, cur int) float64
}

// Match is one scored slot assignment.
type Match struct {
	Items []int
	Score float64
}

// Stats counts the work an evaluation did.
type Stats struct {
	UnaryEvals int
	PairEvals  int
	// TuplesConsidered counts complete or partial assignments extended.
	TuplesConsidered int
	// ItemsAfterPrune reports the per-slot surviving item counts for
	// Pruned (nil otherwise).
	ItemsAfterPrune []int
}

// MaxBruteForceTuples caps BruteForce enumeration.
const MaxBruteForceTuples = 20_000_000

func (q Query) validate(l int) error {
	if q.M < 1 {
		return errors.New("sproc: query needs M >= 1 slots")
	}
	if l < 1 {
		return errors.New("sproc: empty item set")
	}
	if q.Unary == nil {
		return errors.New("sproc: nil unary scorer")
	}
	if q.M > 1 && q.Pair == nil {
		return errors.New("sproc: nil pair scorer for multi-slot query")
	}
	return nil
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// ctxCheckMask amortizes the evaluators' cooperative-cancellation
// polls: the non-blocking ctx.Done() select runs once every 64 units
// of inner-loop work (branch expansions, DP cells) instead of every
// unit. Each evaluator performs one final ctx.Err() read before
// returning its matches, so a cancellation that lands between polls is
// still surfaced — an evaluation never returns normal results from a
// cancelled context.
const ctxCheckMask = 63

// ctxTicker is the amortized poll state one evaluation threads through
// its loops.
type ctxTicker struct {
	ctx  context.Context
	done <-chan struct{}
	n    uint
}

func newCtxTicker(ctx context.Context) *ctxTicker {
	return &ctxTicker{ctx: ctx, done: ctx.Done()}
}

// tick polls ctx on every 64th call and returns its error once fired.
func (t *ctxTicker) tick() error {
	t.n++
	if t.n&ctxCheckMask != 0 {
		return nil
	}
	select {
	case <-t.done:
		return t.ctx.Err()
	default:
		return nil
	}
}

// BruteForce enumerates every tuple. Errors if L^M exceeds
// MaxBruteForceTuples.
func BruteForce(l int, q Query, k int) ([]Match, Stats, error) {
	return BruteForceCtx(context.Background(), l, q, k)
}

// BruteForceCtx is BruteForce with cooperative cancellation: the context
// is checked once per enumeration branch, and a cancelled evaluation
// returns ctx.Err().
func BruteForceCtx(ctx context.Context, l int, q Query, k int) ([]Match, Stats, error) {
	var st Stats
	if err := q.validate(l); err != nil {
		return nil, st, err
	}
	total := 1
	for m := 0; m < q.M; m++ {
		total *= l
		if total > MaxBruteForceTuples {
			return nil, st, fmt.Errorf("sproc: %d^%d tuples exceed brute-force cap", l, q.M)
		}
	}
	h, err := topk.NewHeap(k)
	if err != nil {
		return nil, st, err
	}
	tick := newCtxTicker(ctx)
	items := make([]int, q.M)
	// Pre-compute unary grades (the baseline still pays L·M evals).
	unary := precomputeUnary(l, q, &st)
	var rec func(m int, score float64) error
	id := int64(0)
	rec = func(m int, score float64) error {
		if m == q.M {
			st.TuplesConsidered++
			tuple := make([]int, q.M)
			copy(tuple, items)
			h.Offer(topk.Item{ID: id, Score: score, Payload: tuple})
			id++
			return nil
		}
		if err := tick.tick(); err != nil {
			return err
		}
		for j := 0; j < l; j++ {
			s := minF(score, unary[m][j])
			if m > 0 {
				st.PairEvals++
				s = minF(s, q.Pair(m, items[m-1], j))
			}
			items[m] = j
			if err := rec(m+1, s); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0, 1); err != nil {
		return nil, st, err
	}
	// Final poll: a cancellation that landed between amortized checks
	// must not be swallowed by a completed enumeration.
	if err := ctx.Err(); err != nil {
		return nil, st, err
	}
	return heapToMatches(h), st, nil
}

// DP computes the exact top-K by dynamic programming: for each slot m and
// ending item j it keeps the K best partial scores (with back-pointers),
// transitioning over all L predecessor items — O(M·K·L²).
func DP(l int, q Query, k int) ([]Match, Stats, error) {
	return DPCtx(context.Background(), l, q, k)
}

// DPCtx is DP with cooperative cancellation: the context is checked once
// per (slot, ending item) DP cell, and a cancelled evaluation returns
// ctx.Err().
func DPCtx(ctx context.Context, l int, q Query, k int) ([]Match, Stats, error) {
	var st Stats
	if err := q.validate(l); err != nil {
		return nil, st, err
	}
	if k < 1 {
		return nil, st, errors.New("sproc: k must be >= 1")
	}
	items := make([]int, l)
	for j := range items {
		items[j] = j
	}
	unary := precomputeUnary(l, q, &st)
	return dpOver(ctx, items, unary, q, k, &st)
}

// Pruned runs the [16]-style sorted pruning, then exact DP on survivors:
//  1. Beam pass (width k) finds a lower bound LB on the k-th best score.
//  2. Any item with unary grade strictly below LB for its slot cannot
//     appear in a tuple scoring at least LB (min semantics), so it is
//     discarded, as is any item grading exactly 0 — unless fewer than k
//     items survive a slot, in which case the slot keeps its k best
//     items to preserve exact top-K. An item grading exactly LB is kept:
//     the k-th best tuple's binding grade may equal LB.
//  3. Exact DP over the surviving items.
func Pruned(l int, q Query, k int) ([]Match, Stats, error) {
	return PrunedCtx(context.Background(), l, q, k)
}

// PrunedCtx is Pruned with cooperative cancellation: the context is
// checked per beam slot and per DP cell, and a cancelled evaluation
// returns ctx.Err().
func PrunedCtx(ctx context.Context, l int, q Query, k int) ([]Match, Stats, error) {
	var st Stats
	if err := q.validate(l); err != nil {
		return nil, st, err
	}
	if k < 1 {
		return nil, st, errors.New("sproc: k must be >= 1")
	}
	if err := ctx.Err(); err != nil {
		return nil, st, err
	}
	unary := precomputeUnary(l, q, &st)

	// Stage 1: beam lower bound.
	lb, err := beamLowerBound(ctx, l, unary, q, k, &st)
	if err != nil {
		return nil, st, err
	}

	// Stage 2: sorted pruning per slot.
	st.ItemsAfterPrune = make([]int, q.M)
	kept := make([][]int, q.M)
	for m := 0; m < q.M; m++ {
		idx := make([]int, l)
		for j := range idx {
			idx[j] = j
		}
		sort.Slice(idx, func(a, b int) bool {
			if unary[m][idx[a]] != unary[m][idx[b]] {
				return unary[m][idx[a]] > unary[m][idx[b]]
			}
			return idx[a] < idx[b]
		})
		// Keep items with unary >= lb: a tuple scoring at least lb needs
		// every unary grade >= lb (min semantics), and the binding grade
		// of the k-th best tuple may equal lb exactly, so the comparison
		// must not be strict. Items grading exactly 0 are additionally
		// dropped even when lb == 0 — they can only form zero-score
		// (non-match) tuples, whose tie-break identity is not part of
		// the exactness contract; the keep-at-least-k fallback below
		// still guarantees k results.
		cut := 0
		for cut < l && unary[m][idx[cut]] >= lb && unary[m][idx[cut]] > 0 {
			cut++
		}
		if cut < k {
			cut = k
			if cut > l {
				cut = l
			}
		}
		slot := make([]int, cut)
		copy(slot, idx[:cut])
		sort.Ints(slot)
		kept[m] = slot
		st.ItemsAfterPrune[m] = cut
	}

	// Stage 3: exact DP over survivors. Different slots may keep
	// different item subsets, so dpOver receives per-slot item lists.
	return dpOverPerSlot(ctx, kept, unary, q, k, &st)
}

func precomputeUnary(l int, q Query, st *Stats) [][]float64 {
	unary := make([][]float64, q.M)
	for m := 0; m < q.M; m++ {
		unary[m] = make([]float64, l)
		for j := 0; j < l; j++ {
			unary[m][j] = q.Unary(m, j)
			st.UnaryEvals++
		}
	}
	return unary
}

// beamLowerBound runs a width-k greedy beam over slots and returns the
// k-th best (or worst surviving) complete score — a valid lower bound on
// the true k-th best, used only for pruning.
func beamLowerBound(ctx context.Context, l int, unary [][]float64, q Query, k int, st *Stats) (float64, error) {
	type partial struct {
		item  int
		score float64
	}
	done := ctx.Done()
	beam := make([]partial, 0, k)
	// Seed with the k best slot-0 items.
	idx := topk.SelectTopK(unary[0], k)
	for _, it := range idx {
		beam = append(beam, partial{item: int(it.ID), score: it.Score})
	}
	for m := 1; m < q.M; m++ {
		select {
		case <-done:
			return 0, ctx.Err()
		default:
		}
		h := topk.MustHeap(k)
		for bi, p := range beam {
			for j := 0; j < l; j++ {
				st.PairEvals++
				s := minF(p.score, minF(unary[m][j], q.Pair(m, p.item, j)))
				h.Offer(topk.Item{ID: int64(bi*l + j), Score: s, Payload: j})
			}
		}
		res := h.Results()
		nb := make([]partial, 0, len(res))
		for _, it := range res {
			j, ok := it.Payload.(int)
			if !ok {
				continue // cannot happen; payloads are ints by construction
			}
			nb = append(nb, partial{item: j, score: it.Score})
		}
		beam = nb
	}
	if len(beam) == 0 {
		return 0, nil
	}
	// Worst score still on the beam is the bound.
	lb := beam[0].score
	for _, p := range beam[1:] {
		if p.score < lb {
			lb = p.score
		}
	}
	return lb, nil
}

type dpEntry struct {
	score    float64
	prevItem int // index into previous slot's item list, -1 for slot 0
	prevSlot int // which of the K entries of the predecessor
}

// dpOver runs exact top-K DP when every slot uses the same item list.
func dpOver(ctx context.Context, items []int, unary [][]float64, q Query, k int, st *Stats) ([]Match, Stats, error) {
	perSlot := make([][]int, q.M)
	for m := range perSlot {
		perSlot[m] = items
	}
	return dpOverPerSlot(ctx, perSlot, unary, q, k, st)
}

// dpOverPerSlot runs exact top-K DP with per-slot candidate item lists.
// unary is indexed by original item id.
func dpOverPerSlot(ctx context.Context, perSlot [][]int, unary [][]float64, q Query, k int, st *Stats) ([]Match, Stats, error) {
	tick := newCtxTicker(ctx)
	m0 := perSlot[0]
	// table[m][ji] = up to k entries, best first.
	table := make([][][]dpEntry, q.M)
	table[0] = make([][]dpEntry, len(m0))
	for ji, j := range m0 {
		table[0][ji] = []dpEntry{{score: unary[0][j], prevItem: -1, prevSlot: -1}}
		st.TuplesConsidered++
	}
	for m := 1; m < q.M; m++ {
		cur := perSlot[m]
		prev := perSlot[m-1]
		table[m] = make([][]dpEntry, len(cur))
		for ji, j := range cur {
			if err := tick.tick(); err != nil {
				return nil, *st, err
			}
			h := topk.MustHeap(k)
			for pi, p := range prev {
				st.PairEvals++
				pairS := q.Pair(m, p, j)
				for si, e := range table[m-1][pi] {
					s := minF(e.score, minF(unary[m][j], pairS))
					st.TuplesConsidered++
					h.Offer(topk.Item{
						ID:      int64(pi)*int64(k+1) + int64(si),
						Score:   s,
						Payload: [2]int{pi, si},
					})
				}
			}
			res := h.Results()
			entries := make([]dpEntry, 0, len(res))
			for _, it := range res {
				ps, ok := it.Payload.([2]int)
				if !ok {
					return nil, *st, errors.New("sproc: internal payload corruption")
				}
				entries = append(entries, dpEntry{score: it.Score, prevItem: ps[0], prevSlot: ps[1]})
			}
			table[m][ji] = entries
		}
	}
	// Final poll (see ctxCheckMask): a cancellation between amortized
	// checks must surface even when the DP table completed.
	if err := ctx.Err(); err != nil {
		return nil, *st, err
	}
	// Collect global top-K over final-slot entries.
	h := topk.MustHeap(k)
	last := q.M - 1
	for ji := range perSlot[last] {
		for si, e := range table[last][ji] {
			h.Offer(topk.Item{
				ID:      int64(ji)*int64(k+1) + int64(si),
				Score:   e.score,
				Payload: [2]int{ji, si},
			})
		}
	}
	var out []Match
	for _, it := range h.Results() {
		ps, ok := it.Payload.([2]int)
		if !ok {
			return nil, *st, errors.New("sproc: internal payload corruption")
		}
		items := make([]int, q.M)
		ji, si := ps[0], ps[1]
		for m := last; m >= 0; m-- {
			items[m] = perSlot[m][ji]
			e := table[m][ji][si]
			ji, si = e.prevItem, e.prevSlot
		}
		out = append(out, Match{Items: items, Score: it.Score})
	}
	return out, *st, nil
}

func heapToMatches(h *topk.Heap) []Match {
	res := h.Results()
	out := make([]Match, 0, len(res))
	for _, it := range res {
		tuple, ok := it.Payload.([]int)
		if !ok {
			continue // cannot happen; payloads are tuples by construction
		}
		out = append(out, Match{Items: tuple, Score: it.Score})
	}
	return out
}
