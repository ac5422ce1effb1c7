// Top-1 DP with a reusable scratch and a screening floor. The engine's
// geology scan asks every well for its single best slot assignment
// (k == 1) that can still enter the merged top-K; running the general
// DP for that pays per-cell heaps with boxed payloads, a [][]float64
// unary table and a three-level back-pointer table — per well, per
// query — and evaluates every pair even when the well cannot compete.
//
// dp1 is the dynamic program specialized to k == 1 and restricted to
// what can reach a floor f. Under min semantics a tuple never scores
// above any of its grades, so an item whose unary grade is strictly
// below f cannot appear in a match scoring >= f: each slot keeps only
// its survivors, in ascending item order, and a slot with none ends
// the well after the M·L unary evaluations. Likewise a partial
// assignment strictly below f cannot be extended to reach it, so only
// survivors whose partial score reaches f are predecessors of the next
// slot. Every match scoring >= f is built from survivors alone, and
// among them the tie rule is the general DP's (equal scores resolve to
// the smallest predecessor index, matching the (score, ID) heap order
// DPCtx uses), so that match, its strata and its score are unchanged.
// At f = -Inf nothing is dropped: DP1Ctx is that case, bit-identical
// to DPCtx(ctx, l, q, 1)'s first match and Stats.

package sproc

import (
	"context"
	"math"
)

// Scratch is the top-1 evaluators' reusable working set. Buffers
// regrow as needed; one scratch must not be shared concurrently — pool
// one per worker.
type Scratch struct {
	unary     []float64 // M*L unary grades, slot-major
	surv      []int     // M*L survivor lists, slot-major, ascending
	nsurv     []int     // per-slot survivor count
	prev, cur []float64 // per-item best partial scores, two slots
	back      []int     // M*L back pointers (best predecessor item)
	items     []int     // reconstructed winning assignment
}

// NewScratch returns an empty scratch.
func NewScratch() *Scratch { return &Scratch{} }

func (sc *Scratch) size(m, l int) {
	if cap(sc.unary) < m*l {
		sc.unary = make([]float64, m*l)
		sc.surv = make([]int, m*l)
		sc.back = make([]int, m*l)
	}
	sc.unary = sc.unary[:m*l]
	sc.surv = sc.surv[:m*l]
	sc.back = sc.back[:m*l]
	if cap(sc.prev) < l {
		sc.prev = make([]float64, l)
		sc.cur = make([]float64, l)
	}
	sc.prev, sc.cur = sc.prev[:l], sc.cur[:l]
	if cap(sc.items) < m {
		sc.items = make([]int, m)
		sc.nsurv = make([]int, m)
	}
	sc.items = sc.items[:m]
	sc.nsurv = sc.nsurv[:m]
}

// DP1Ctx computes the exact best (top-1) assignment. The returned
// Match.Items slice is owned by the scratch and valid only until the
// next call with the same scratch; callers that retain it must copy.
// Stats and the match are bit-identical to DPCtx(ctx, l, q, 1).
func DP1Ctx(ctx context.Context, l int, q Query, sc *Scratch) (Match, Stats, error) {
	m, _, st, err := dp1(ctx, l, q, math.Inf(-1), sc)
	return m, st, err
}

// DP1FloorCtx computes the best assignment that scores above zero and
// at least floor, the screening floor of a top-K scan (a match strictly
// below it cannot enter the merged result). ok is false when no such
// assignment exists; otherwise the match is bit-identical to
// DPCtx(ctx, l, q, 1)'s first one. The Items slice is owned by the
// scratch, as with DP1Ctx. UnaryEvals is always M·L; PairEvals is zero
// exactly when some slot had no item grading at least the floor, so
// the well was rejected before its pair DP.
func DP1FloorCtx(ctx context.Context, l int, q Query, floor float64, sc *Scratch) (_ Match, ok bool, _ Stats, _ error) {
	// Zero-score tuples are not matches: the least positive float64 is
	// the lowest floor a reported match may have.
	if !(floor >= math.SmallestNonzeroFloat64) {
		floor = math.SmallestNonzeroFloat64
	}
	return dp1(ctx, l, q, floor, sc)
}

// dp1 is the one top-1 DP loop (see the file comment). ok reports
// whether some assignment reaches floor; the returned match is then
// the best one.
func dp1(ctx context.Context, l int, q Query, floor float64, sc *Scratch) (_ Match, ok bool, st Stats, _ error) {
	if err := q.validate(l); err != nil {
		return Match{}, false, st, err
	}
	sc.size(q.M, l)
	tick := newCtxTicker(ctx)

	// Unary precompute, slot-major — the same evaluation order and
	// count as precomputeUnary — and each slot's survivors: the items
	// not strictly below the floor.
	reject := false
	for m := 0; m < q.M; m++ {
		row := sc.unary[m*l : (m+1)*l]
		surv := sc.surv[m*l : (m+1)*l]
		n := 0
		for j := 0; j < l; j++ {
			u := q.Unary(m, j)
			row[j] = u
			st.UnaryEvals++
			if u >= floor {
				surv[n] = j
				n++
			}
		}
		sc.nsurv[m] = n
		reject = reject || n == 0
	}
	if reject {
		return Match{}, false, st, ctx.Err()
	}

	// Slot 0 seeds the partial scores (one tuple considered per
	// survivor, as in the general DP's first table row); its survivors
	// are the first predecessors.
	pred := sc.surv[:sc.nsurv[0]]
	for _, j := range pred {
		sc.prev[j] = sc.unary[j]
	}
	st.TuplesConsidered += len(pred)

	for m := 1; m < q.M; m++ {
		row := sc.unary[m*l : (m+1)*l]
		backRow := sc.back[m*l : (m+1)*l]
		surv := sc.surv[m*l : m*l+sc.nsurv[m]]
		next := 0
		for _, j := range surv {
			if err := tick.tick(); err != nil {
				return Match{}, false, st, err
			}
			u := row[j]
			best, bestPi := -1.0, -1
			for _, pi := range pred {
				st.PairEvals++
				pairS := q.Pair(m, pi, j)
				s := minF(sc.prev[pi], minF(u, pairS))
				st.TuplesConsidered++
				// Strictly greater keeps the first (smallest) pi on
				// ties — the (score, ID) order of the general DP's
				// per-cell heap.
				if bestPi < 0 || s > best {
					best, bestPi = s, pi
				}
			}
			sc.cur[j] = best
			backRow[j] = bestPi
			// Only a partial that reaches the floor can be extended
			// to a match that does; the list stays ascending.
			if best >= floor {
				surv[next] = j
				next++
			}
		}
		if next == 0 {
			return Match{}, false, st, ctx.Err()
		}
		pred = surv[:next]
		sc.prev, sc.cur = sc.cur, sc.prev
	}
	// Final poll (see ctxCheckMask): a cancellation between amortized
	// checks must surface even when the DP completed.
	if err := ctx.Err(); err != nil {
		return Match{}, false, st, err
	}

	// Global best over the last slot, ties to the smallest item index.
	bestJ := pred[0]
	for _, j := range pred[1:] {
		if sc.prev[j] > sc.prev[bestJ] {
			bestJ = j
		}
	}
	items := sc.items
	items[q.M-1] = bestJ
	for m := q.M - 1; m >= 1; m-- {
		items[m-1] = sc.back[m*l+items[m]]
	}
	return Match{Items: items, Score: sc.prev[bestJ]}, true, st, nil
}
