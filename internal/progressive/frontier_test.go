package progressive

import (
	"math/rand"
	"testing"
)

// swapPush and swapPop are the frontier's former swap-based sifts, kept
// as the oracle for the hole-moving ones: strict > picks the child and
// ties go to the left.
func swapPush(pq []cellEntry, e cellEntry) []cellEntry {
	pq = append(pq, e)
	i := len(pq) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if pq[parent].upper >= pq[i].upper {
			break
		}
		pq[i], pq[parent] = pq[parent], pq[i]
		i = parent
	}
	return pq
}

func swapPop(pq []cellEntry) (cellEntry, []cellEntry) {
	top := pq[0]
	n := len(pq) - 1
	pq[0] = pq[n]
	pq = pq[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && pq[l].upper > pq[largest].upper {
			largest = l
		}
		if r < n && pq[r].upper > pq[largest].upper {
			largest = r
		}
		if largest == i {
			break
		}
		pq[i], pq[largest] = pq[largest], pq[i]
		i = largest
	}
	return top, pq
}

// TestFrontierPopOrderMatchesSwapSift replays random pushes and pops,
// their bounds drawn from a handful of values so most compare equal,
// through the descent's frontier and the swap-based oracle: every pop
// must return the same entry, so CellsVisited and the descent's order
// cannot move.
func TestFrontierPopOrderMatchesSwapSift(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		d := &descender{sc: &descentScratch{}}
		var oracle []cellEntry
		distinct := 1 + rng.Intn(5)
		for op, id := 0, 0; op < 600; op++ {
			if len(oracle) == 0 || rng.Intn(3) > 0 {
				e := cellEntry{level: trial, x: id, upper: float64(rng.Intn(distinct))}
				id++
				d.pqPush(e)
				oracle = swapPush(oracle, e)
				continue
			}
			var want cellEntry
			want, oracle = swapPop(oracle)
			if got := d.pqPop(); got != want {
				t.Fatalf("trial %d op %d: popped %+v, the swap sift pops %+v", trial, op, got, want)
			}
		}
		for len(oracle) > 0 {
			var want cellEntry
			want, oracle = swapPop(oracle)
			if got := d.pqPop(); got != want {
				t.Fatalf("trial %d drain: popped %+v, the swap sift pops %+v", trial, got, want)
			}
		}
		if len(d.sc.pq) != 0 {
			t.Fatalf("trial %d: %d entries left", trial, len(d.sc.pq))
		}
	}
}
