package main

import (
	"encoding/json"
	"io"
	"reflect"
	"strings"
	"testing"
)

// fakeRun answers runs from a script, recording the order they ran in.
type fakeRun struct {
	calls []string
	next  func(side string, seed int64, attempt int) Run
	seen  map[string]int
}

func (f *fakeRun) run(side string, seed int64) (Run, error) {
	if f.seen == nil {
		f.seen = map[string]int{}
	}
	key := side + "/" + string(rune('0'+seed))
	f.seen[key]++
	f.calls = append(f.calls, key)
	return f.next(side, seed, f.seen[key]), nil
}

func quiet(cpu float64) Run {
	return Run{Metrics: map[string]float64{"cpu_ms_per_req": cpu}, Info: map[string]float64{"host_steal_frac": 0.001}, ProbeS: 0.1}
}

// TestAlternation: pair i runs the parent first when i is even.
func TestAlternation(t *testing.T) {
	f := &fakeRun{next: func(string, int64, int) Run { return quiet(1) }}
	pairs, err := runPairs("w", []int64{1, 2, 3, 4}, f.run, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"parent/1", "change/1", "change/2", "parent/2", "parent/3", "change/3", "change/4", "parent/4"}
	if !reflect.DeepEqual(f.calls, want) {
		t.Fatalf("order %v, want %v", f.calls, want)
	}
	for i, p := range pairs {
		if p.ParentFirst != (i%2 == 0) || p.Attempts != 1 || p.Noisy != "" {
			t.Fatalf("pair %d: %+v", i, p)
		}
	}
}

// TestRerunRule: a pair with steal above the limit, or probes further
// apart than the ratio, is re-run; a pair still noisy after maxAttempts
// is kept, marked, and not dropped.
func TestRerunRule(t *testing.T) {
	f := &fakeRun{next: func(side string, seed int64, attempt int) Run {
		r := quiet(1)
		switch {
		case seed == 1 && attempt == 1 && side == "change":
			r.Info["host_steal_frac"] = stealLimit + 0.01
		case seed == 2 && attempt < 3 && side == "parent":
			r.ProbeS = 0.1 * (probeRatio + 0.05)
		case seed == 3 && side == "parent":
			r.Info["host_steal_frac"] = 0.3
		}
		return r
	}}
	pairs, err := runPairs("w", []int64{1, 2, 3, 4}, f.run, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 4 {
		t.Fatalf("%d pairs kept, want 4", len(pairs))
	}
	for i, want := range []int{2, 3, maxAttempts, 1} {
		if pairs[i].Attempts != want {
			t.Fatalf("pair %d: %d attempts, want %d", i, pairs[i].Attempts, want)
		}
	}
	if pairs[2].Noisy == "" || pairs[0].Noisy != "" || pairs[1].Noisy != "" {
		t.Fatalf("noisy marks: %q %q %q", pairs[0].Noisy, pairs[1].Noisy, pairs[2].Noisy)
	}
	if noisy(quiet(1), quiet(2)) != "" {
		t.Fatal("quiet runs flagged")
	}
}

func pairsOf(parent, change []float64) []Pair {
	var out []Pair
	for i := range parent {
		out = append(out, Pair{Parent: quiet(parent[i]), Change: quiet(change[i])})
	}
	return out
}

// TestVerdict on hand-built records: 9 of 10 with a gap past the
// parent's IQR is better; 8 of 10 is not; a clear loss is worse; a
// tie everywhere is unchanged.
func TestVerdict(t *testing.T) {
	parent := []float64{10, 10.2, 9.8, 10.1, 9.9, 10.3, 9.7, 10, 10.05, 9.95}
	cpu := func(cells []Cell) Cell {
		for _, c := range cells {
			if c.Metric == "cpu_ms_per_req" {
				return c
			}
		}
		t.Fatal("no cpu cell")
		return Cell{}
	}
	lower := make([]float64, 10)
	for i, v := range parent {
		lower[i] = v * 0.8
	}
	lower[3] = 10.5 // one lost pair: 9 of 10
	c := cpu(judge("w", pairsOf(parent, lower)))
	if c.Won != 9 || c.Lost != 1 || c.Verdict != "better" {
		t.Fatalf("9/10 lower: %+v", c)
	}
	lower[5] = 10.6 // 8 of 10
	if c := cpu(judge("w", pairsOf(parent, lower))); c.Verdict != "unchanged" {
		t.Fatalf("8/10: %+v", c)
	}
	higher := make([]float64, 10)
	for i, v := range parent {
		higher[i] = v * 1.3
	}
	if c := cpu(judge("w", pairsOf(parent, higher))); c.Verdict != "worse" || c.Lost != 10 {
		t.Fatalf("all higher: %+v", c)
	}
	// Wins every pair by less than the parent's IQR: unchanged.
	tiny := make([]float64, 10)
	for i, v := range parent {
		tiny[i] = v - 0.01
	}
	if c := cpu(judge("w", pairsOf(parent, tiny))); c.Verdict != "unchanged" || c.Won != 10 {
		t.Fatalf("tiny gap: %+v", c)
	}
	if c := cpu(judge("w", pairsOf(parent, parent))); c.Verdict != "unchanged" || c.Won+c.Lost != 0 {
		t.Fatalf("A/A: %+v", c)
	}
	// Three pairs are too few for a verdict, however clear.
	if c := cpu(judge("w", pairsOf(parent[:3], higher[:3]))); c.Verdict != "unchanged" || c.Lost != 3 {
		t.Fatalf("3/3 higher: %+v", c)
	}
	for n, want := range map[int]int{10: 9, 20: 16, 7: 7, 6: 7, 3: 4} {
		if got := winsNeeded(n); got != want {
			t.Fatalf("winsNeeded(%d) = %d, want %d", n, got, want)
		}
	}
	q := quartiles([]float64{4, 1, 3, 2})
	if q != (Summary{Median: 2.5, Q1: 1.25, Q3: 3.75}) {
		t.Fatalf("quartiles %+v", q)
	}
}

// TestTableEqualsJSON: the table printed is the one the JSON carries,
// and re-rendering the JSON's cells gives the same text.
func TestTableEqualsJSON(t *testing.T) {
	parent := []float64{1, 1.1, 1.2, 1, 1.1, 1.2, 1, 1.1, 1.2, 1.1}
	change := []float64{0.5, 0.6, 0.7, 0.5, 0.6, 0.7, 0.5, 0.6, 0.7, 0.6}
	cells := judge("ingest_reads", pairsOf(parent, change))
	rep := Report{Cells: cells, Table: table(cells)}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Table != table(back.Cells) || back.Table != rep.Table {
		t.Fatalf("table and JSON disagree:\n%s\n%s", back.Table, table(back.Cells))
	}
	if !strings.Contains(rep.Table, "| ingest_reads | cpu_ms_per_req | 1.1 [1, 1.2] | 0.6 [0.5, 0.7] | -45.5% | 10/0 | better |") {
		t.Fatalf("table:\n%s", rep.Table)
	}
}

func TestParseSeeds(t *testing.T) {
	if s, err := parseSeeds("", 3); err != nil || !reflect.DeepEqual(s, []int64{1, 2, 3}) {
		t.Fatalf("default: %v %v", s, err)
	}
	if s, err := parseSeeds("41-43", 3); err != nil || !reflect.DeepEqual(s, []int64{41, 42, 43}) {
		t.Fatalf("41-43: %v %v", s, err)
	}
	if _, err := parseSeeds("1-5", 3); err == nil {
		t.Fatal("want a count mismatch error")
	}
	if err := run("", nil, 1, "", 1, 0); err == nil {
		t.Fatal("want a missing -parent error")
	}
}
