// Allocation-free variants of machine extraction and behavioral
// distance. The engine's FSM-distance scan extracts a machine per
// region (Table.Extract) and scores it against the target; the plain
// entry points allocate a transition count table, a fresh Machine and
// two probability planes per call. Scratch keeps all of that alive
// across calls so a steady-state serving scan allocates nothing.
// Results are bit-identical: the algorithms are the same, only the
// buffers' lifetimes change.

package fsm

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Scratch is the reusable working set of Table.Extract and DistanceWith.
// A Scratch may be reused across machines of different sizes (buffers
// regrow as needed) but must not be shared concurrently; pool one per
// worker.
type Scratch struct {
	// counts is extraction's flat transition-count table:
	// counts[(s*ne+e)*ns + to].
	counts []int
	// prob/next are Distance's product-automaton probability planes.
	prob, next []float64
	// out is the reusable extracted machine. Its states, alphabet and
	// accept tables alias the reference machine (immutable); only the
	// transition table is rewritten per extraction.
	out Machine
}

// NewScratch returns an empty scratch.
func NewScratch() *Scratch { return &Scratch{} }

func (sc *Scratch) ints(n int) []int {
	if cap(sc.counts) < n {
		sc.counts = make([]int, n)
	}
	s := sc.counts[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

func (sc *Scratch) planes(n int) (prob, next []float64) {
	if cap(sc.prob) < n {
		sc.prob = make([]float64, n)
		sc.next = make([]float64, n)
	}
	prob, next = sc.prob[:n], sc.next[:n]
	for i := range prob {
		prob[i] = 0
		next[i] = 0
	}
	return prob, next
}

// majority builds the extracted machine from a transition-count table
// counts[(s*ne+e)*ns + to] into sc.out: the majority observed successor
// per (state, event). Ties and the unobserved case resolve exactly as
// Extract does (first maximum, reference transition when nothing was
// observed).
func (sc *Scratch) majority(ref *Machine, counts []int) *Machine {
	ns, ne := ref.NumStates(), ref.NumEvents()
	m := &sc.out
	m.states = ref.states
	m.alphabet = ref.alphabet
	m.accept = ref.accept
	m.start = ref.start
	if cap(m.trans) < ns*ne {
		m.trans = make([]int, ns*ne)
	}
	m.trans = m.trans[:ns*ne]
	for se := 0; se < ns*ne; se++ {
		best, bestN := -1, 0
		row := counts[se*ns : (se+1)*ns]
		for to, n := range row {
			if n > bestN {
				best, bestN = to, n
			}
		}
		if best < 0 {
			best = ref.trans[se]
		}
		m.trans[se] = best
	}
	return m
}

// DistanceWith is Distance reusing sc's probability planes. Behavior
// is identical to Distance(a, b, maxLen).
func DistanceWith(a, b *Machine, maxLen int, sc *Scratch) (float64, error) {
	if a == nil || b == nil {
		return 0, errors.New("fsm: nil machine")
	}
	if a.NumEvents() != b.NumEvents() {
		return 0, fmt.Errorf("fsm: alphabet sizes differ (%d vs %d)", a.NumEvents(), b.NumEvents())
	}
	if maxLen < 1 {
		return 0, errors.New("fsm: maxLen must be >= 1")
	}
	na, nb := a.NumStates(), b.NumStates()
	ne := a.NumEvents()
	prob, next := sc.planes(na * nb)
	prob[a.start*nb+b.start] = 1

	var total float64
	pe := 1.0 / float64(ne)
	for k := 1; k <= maxLen; k++ {
		for i := range next {
			next[i] = 0
		}
		for i := 0; i < na; i++ {
			for j := 0; j < nb; j++ {
				p := prob[i*nb+j]
				if p == 0 {
					continue
				}
				for e := 0; e < ne; e++ {
					ni := a.trans[i*ne+e]
					nj := b.trans[j*ne+e]
					next[ni*nb+nj] += p * pe
				}
			}
		}
		prob, next = next, prob
		var dis float64
		for i := 0; i < na; i++ {
			for j := 0; j < nb; j++ {
				if a.accept[i] != b.accept[j] {
					dis += prob[i*nb+j]
				}
			}
		}
		total += dis
	}
	return total / float64(maxLen), nil
}

// DistanceMemo memoises DistanceWith(target, b, horizon) within one
// scan. Distance depends on b only through its start state, alphabet
// size, accepting set and transition table, so the memo keys on exactly
// those and is exact for any b. Regions whose data extract the same
// machine share one distance computation. A memo is not safe for
// concurrent use.
type DistanceMemo struct {
	target  *Machine
	horizon int
	key     []byte
	dist    map[string]float64
}

// NewDistanceMemo returns an empty memo for distances to target over
// strings up to horizon.
func NewDistanceMemo(target *Machine, horizon int) *DistanceMemo {
	return &DistanceMemo{target: target, horizon: horizon}
}

// Distance is DistanceWith(target, b, horizon, sc), computed once per
// distinct behaviour of b. Errors are returned, not memoised.
func (dm *DistanceMemo) Distance(b *Machine, sc *Scratch) (float64, error) {
	if b == nil {
		return DistanceWith(dm.target, b, dm.horizon, sc)
	}
	k := binary.AppendUvarint(dm.key[:0], uint64(b.start))
	k = binary.AppendUvarint(k, uint64(len(b.alphabet)))
	k = binary.AppendUvarint(k, uint64(len(b.accept)))
	for _, a := range b.accept {
		if a {
			k = append(k, 1)
		} else {
			k = append(k, 0)
		}
	}
	for _, to := range b.trans {
		k = binary.AppendUvarint(k, uint64(to))
	}
	dm.key = k
	if d, ok := dm.dist[string(k)]; ok {
		return d, nil
	}
	d, err := DistanceWith(dm.target, b, dm.horizon, sc)
	if err != nil {
		return 0, err
	}
	if dm.dist == nil {
		dm.dist = make(map[string]float64)
	}
	dm.dist[string(k)] = d
	return d, nil
}
