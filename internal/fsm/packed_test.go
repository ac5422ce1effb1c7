package fsm

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"modelir/internal/synth"
)

// TestPackRoundTrip: packing five days per byte and unpacking returns
// the events, at every length around a byte boundary, and CheckPacked
// accepts the run; the packed form of a weather series equals its
// classified events; and CheckPacked refuses a run of the wrong length,
// a code past 242 and a digit set past the tail days.
func TestPackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 0; n <= 17; n++ {
		ev := randomEventSeries(rng, n, 3)
		p := packEvents(ev)
		if err := CheckPacked(p, n); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(p) != PackedLen(n) {
			t.Fatalf("n=%d: %d bytes, want %d", n, len(p), PackedLen(n))
		}
		if got := AppendUnpacked(nil, p, n); !slices.Equal(got, ev) {
			t.Fatalf("n=%d: unpacked %v, want %v", n, got, ev)
		}
	}
	arch, err := synth.WeatherArchive(synth.WeatherConfig{Seed: 7, Regions: 3, Days: 123, MeanTempC: 18})
	if err != nil {
		t.Fatal(err)
	}
	for _, reg := range arch {
		p := AppendPackedSeries(nil, reg.Days)
		if want := packEvents(ClassifySeries(reg.Days)); !reflect.DeepEqual(p, want) {
			t.Fatalf("region %d: packed series differs from packed classification", reg.Region)
		}
	}
	for _, c := range []struct {
		p []byte
		n int
	}{
		{[]byte{0, 0}, 5}, {[]byte{0}, 6}, {[]byte{243}, 5}, {[]byte{0, 255}, 10},
		{[]byte{3}, 1}, {[]byte{0, 9}, 7}, {[]byte{0, 81}, 9},
	} {
		if err := CheckPacked(c.p, c.n); err == nil {
			t.Fatalf("run %v of %d events accepted", c.p, c.n)
		}
	}
	if err := CheckPacked([]byte{242, 8}, 7); err != nil {
		t.Fatalf("largest codes refused: %v", err)
	}
}

// randomMachine builds a complete machine with ns states over ne events
// from rng.
func randomMachine(rng *rand.Rand, ns, ne int) *Machine {
	alphabet := make([]string, ne)
	for i := range alphabet {
		alphabet[i] = string(rune('a' + i))
	}
	b := NewBuilder(alphabet)
	for s := 0; s < ns; s++ {
		b.State(string(rune('A' + s)))
		if rng.Intn(3) == 0 {
			b.Accept(s)
		}
		for e := 0; e < ne; e++ {
			b.On(s, Event(e), rng.Intn(ns))
		}
	}
	b.Start(rng.Intn(ns))
	m, err := b.Build()
	if err != nil {
		panic(err)
	}
	return m
}

// FuzzPackedMatchesRun: over random machines of 1-6 states and 1-5
// events (so codes holding an event outside a small alphabet occur) and
// event runs of any length, packed scoring, packed extraction and their
// errors equal FlyScore, Extract and Machine.Run over the unpacked
// events, with the step table compiled and without it.
func FuzzPackedMatchesRun(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(2), []byte{})
	f.Add(int64(2), uint8(0), uint8(0), []byte{1})
	f.Add(int64(3), uint8(4), uint8(2), []byte{0, 1, 2, 0, 1})
	f.Add(int64(4), uint8(2), uint8(1), []byte{0, 0, 0, 0, 0, 0, 1, 1, 2})
	f.Add(int64(5), uint8(5), uint8(4), []byte("a run of days that is not a multiple of five"))
	f.Add(int64(6), uint8(3), uint8(2), []byte{2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2})
	f.Fuzz(func(t *testing.T, seed int64, nsB, neB uint8, raw []byte) {
		rng := rand.New(rand.NewSource(seed))
		m := randomMachine(rng, 1+int(nsB)%6, 1+int(neB)%5)
		ev := make([]Event, len(raw))
		for i, b := range raw {
			ev[i] = Event(b % 3)
		}
		p := packEvents(ev)
		wantRun, wantRunErr := m.Run(ev)
		wantScore, wantScoreErr := FlyScore(m, ev)
		wantExt, wantExtErr := Extract(m, [][]Event{ev})
		sc := NewScratch()
		for _, tab := range []*Table{NewExtractTable(m, 1<<20), NewTable(m, 1<<20), NewExtractTable(m, 0)} {
			run, err := tab.run(p, len(ev))
			if !sameErr(err, wantRunErr) || run != wantRun {
				t.Fatalf("steps %v idx %v: run %+v, %v; want %+v, %v", tab.steps != nil, tab.idx != nil, run, err, wantRun, wantRunErr)
			}
			score, err := tab.FlyScore(p, len(ev))
			if !sameErr(err, wantScoreErr) || score != wantScore {
				t.Fatalf("steps %v idx %v: FlyScore %v, %v; want %v, %v", tab.steps != nil, tab.idx != nil, score, err, wantScore, wantScoreErr)
			}
			ext, err := tab.Extract(p, len(ev), sc)
			if !sameErr(err, wantExtErr) {
				t.Fatalf("steps %v idx %v: Extract error %v, want %v", tab.steps != nil, tab.idx != nil, err, wantExtErr)
			}
			if err == nil && (ext.start != wantExt.start || !reflect.DeepEqual(ext.trans, wantExt.trans) ||
				!reflect.DeepEqual(ext.accept, wantExt.accept)) {
				t.Fatalf("steps %v idx %v: extracted %v, want %v", tab.steps != nil, tab.idx != nil, ext.trans, wantExt.trans)
			}
		}
	})
}

// sameErr reports whether two errors are both nil or carry one text.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}
