package fsm

import (
	"math/rand"
	"testing"
)

// randomEventSeries draws a deterministic event series over ne events.
func randomEventSeries(rng *rand.Rand, n, ne int) []Event {
	out := make([]Event, n)
	for i := range out {
		out[i] = Event(rng.Intn(ne))
	}
	return out
}

// packEvents packs an event series of the three packed symbols.
func packEvents(ev []Event) []byte {
	return pack(nil, len(ev), func(i int) Event { return ev[i] })
}

// TestPackedExtractMatchesExtract: extraction from a packed run, through
// the compiled step table and day by day, must produce exactly the
// machine Extract produces, for many random series, reusing one scratch
// throughout.
func TestPackedExtractMatchesExtract(t *testing.T) {
	ref := FireAnts()
	rng := rand.New(rand.NewSource(41))
	sc := NewScratch()
	tabs := []*Table{NewExtractTable(ref, 1<<20), NewTable(ref, 1<<20), NewExtractTable(ref, 0)}
	if tabs[0].idx == nil || tabs[1].steps == nil || tabs[1].idx != nil || tabs[2].steps != nil {
		t.Fatal("compile rule: want an extraction table, a scoring table and a day-by-day table")
	}
	for trial := 0; trial < 50; trial++ {
		ev := randomEventSeries(rng, 5+rng.Intn(200), ref.NumEvents())
		p := packEvents(ev)
		want, err := Extract(ref, [][]Event{ev})
		if err != nil {
			t.Fatal(err)
		}
		for ti, tab := range tabs {
			got, err := tab.Extract(p, len(ev), sc)
			if err != nil {
				t.Fatal(err)
			}
			if got.start != want.start || len(got.trans) != len(want.trans) {
				t.Fatalf("trial %d table %d: shape mismatch", trial, ti)
			}
			for i := range want.trans {
				if got.trans[i] != want.trans[i] {
					t.Fatalf("trial %d table %d: trans[%d] = %d, want %d", trial, ti, i, got.trans[i], want.trans[i])
				}
			}
			for s := range want.accept {
				if got.accept[s] != want.accept[s] {
					t.Fatalf("trial %d table %d: accept[%d] differs", trial, ti, s)
				}
			}
		}
	}
}

// TestDistanceWithMatchesDistance: the scratch-backed distance must be
// bit-identical to Distance across random extracted machines and
// horizons, with one scratch reused for every call.
func TestDistanceWithMatchesDistance(t *testing.T) {
	ref := FireAnts()
	rng := rand.New(rand.NewSource(43))
	sc := NewScratch()
	for trial := 0; trial < 30; trial++ {
		ev := randomEventSeries(rng, 10+rng.Intn(150), ref.NumEvents())
		ext, err := Extract(ref, [][]Event{ev})
		if err != nil {
			t.Fatal(err)
		}
		for _, horizon := range []int{1, 3, 7} {
			want, err := Distance(ref, ext, horizon)
			if err != nil {
				t.Fatal(err)
			}
			got, err := DistanceWith(ref, ext, horizon, sc)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("trial %d horizon %d: %v vs %v", trial, horizon, got, want)
			}
		}
	}
	if _, err := DistanceWith(ref, nil, 3, sc); err == nil {
		t.Fatal("want nil machine error")
	}
	if _, err := DistanceWith(ref, ref, 0, sc); err == nil {
		t.Fatal("want bad horizon error")
	}
}

// TestDistanceMemoMatchesDistance: the memo returns Distance's bits for
// machines that differ in transitions, accepting set or start alone,
// computes each distinct machine once, and memoises no error.
func TestDistanceMemoMatchesDistance(t *testing.T) {
	ref := FireAnts()
	sc := NewScratch()
	memo := NewDistanceMemo(ref, 6)
	other := func(edit func(m *Machine)) *Machine {
		m := *ref
		m.trans = append([]int(nil), ref.trans...)
		m.accept = append([]bool(nil), ref.accept...)
		edit(&m)
		return &m
	}
	machines := []*Machine{
		ref,
		other(func(m *Machine) { m.trans[1] = 4 }),
		other(func(m *Machine) { m.accept[0] = true }),
		other(func(m *Machine) { m.start = 2 }),
	}
	for round := 0; round < 2; round++ {
		for i, m := range machines {
			want, err := Distance(ref, m, 6)
			if err != nil {
				t.Fatal(err)
			}
			got, err := memo.Distance(m, sc)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("round %d machine %d: memo %v, Distance %v", round, i, got, want)
			}
		}
	}
	if len(memo.dist) != len(machines) {
		t.Fatalf("memo holds %d distances for %d distinct machines", len(memo.dist), len(machines))
	}
	if _, err := NewDistanceMemo(ref, 0).Distance(ref, sc); err == nil {
		t.Fatal("want bad horizon error")
	}
	if _, err := memo.Distance(nil, sc); err == nil {
		t.Fatal("want nil machine error")
	}
}

// TestScratchSteadyStateZeroAllocs: a warmed-up packed extract+distance
// cycle must not allocate — the FSM-distance family's scan-kernel
// guarantee — whether the distance is computed or served by the memo.
func TestScratchSteadyStateZeroAllocs(t *testing.T) {
	ref := FireAnts()
	rng := rand.New(rand.NewSource(47))
	ev := randomEventSeries(rng, 365, ref.NumEvents())
	p := packEvents(ev)
	tab := NewExtractTable(ref, 1<<20)
	memo := NewDistanceMemo(ref, 8)
	sc := NewScratch()
	cycle := func() {
		ext, err := tab.Extract(p, len(ev), sc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DistanceWith(ref, ext, 8, sc); err != nil {
			t.Fatal(err)
		}
		if _, err := memo.Distance(ext, sc); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
		t.Fatalf("steady-state extract+distance allocates %.1f allocs/op, want 0", allocs)
	}
}
