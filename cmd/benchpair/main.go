// Command benchpair runs the ten-pair rule against a parent commit: it
// alternates runs of the load benchmark (bench/run.sh) on the parent and
// on the working tree, pair by pair, and judges every (workload,
// end-to-end metric) cell. It shells out to bench/run.sh --out and
// imports nothing from bench/.
//
//	go run ./cmd/benchpair -parent <ref> [-workload W[,W...]] [-n 10] [-seeds a-b] [-seconds 20] [-pr N]
//
// The parent is built in a git worktree under .bench_build/, removed
// when the command ends; every file it writes is inside the checkout.
// Pair i runs the parent first when i is even and the change first when
// it is odd. A pair is re-run when either side's host_steal_frac
// exceeds stealLimit or a fixed CPU-loop probe, timed before each run,
// differs between the sides by more than probeRatio; after maxAttempts
// the last attempt is kept and marked noisy, never dropped. The
// markdown table goes to standard output; with -pr N the report,
// pairs included, is written to BENCH_<N>.json.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

const (
	// stealLimit is the host_steal_frac above which a run is re-done:
	// runs at 0.16 and more have shown slo_ok_frac collapsing.
	stealLimit = 0.05
	// probeRatio bounds how much slower one side's probe may be than
	// the other's before the pair is re-run.
	probeRatio = 1.10
	// maxAttempts caps re-runs of one pair.
	maxAttempts = 3
)

// metrics are BENCHMARK.json's end-to-end metrics and their direction.
var metrics = []struct{ Name, Better string }{
	{"setup_s", "lower"},
	{"throughput_rps", "higher"},
	{"slo_ok_frac", "higher"},
	{"cpu_ms_per_req", "lower"},
	{"peak_rss_mb", "lower"},
}

// Run is what benchpair keeps of one bench/run.sh --out record, plus
// the probe timed before it.
type Run struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Info      map[string]float64 `json:"info,omitempty"`
	ProbeS    float64            `json:"probe_s"`
}

// Pair is one seed's parent and change runs.
type Pair struct {
	Workload    string `json:"workload"`
	Seed        int64  `json:"seed"`
	ParentFirst bool   `json:"parent_first"`
	Attempts    int    `json:"attempts"`
	Noisy       string `json:"noisy,omitempty"` // why the kept attempt still breaks the re-run rule
	Parent      Run    `json:"parent"`
	Change      Run    `json:"change"`
}

// Summary is a median with its quartiles.
type Summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// Cell is the verdict on one (workload, metric).
type Cell struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Better   string  `json:"better"`
	Pairs    int     `json:"pairs"`
	Parent   Summary `json:"parent"`
	Change   Summary `json:"change"`
	Won      int     `json:"won"`
	Lost     int     `json:"lost"`
	Verdict  string  `json:"verdict"`
}

// Report is BENCH_<pr>.json.
type Report struct {
	Parent string `json:"parent"`
	Change string `json:"change"`
	Rule   string `json:"rule"`
	Cells  []Cell `json:"cells"`
	Pairs  []Pair `json:"pairs,omitempty"`
	Table  string `json:"table"`
}

const rule = "better (worse): the change wins (loses) at least 9 of 10 pairs (for n pairs, as many as makes a fair coin no likelier to do it: 16 of 20, 7 of 7, no verdict below 7) and the medians differ by more than the parent's IQR; otherwise unchanged"

// runFunc runs one side ("parent" or "change") of a pair at a seed.
type runFunc func(side string, seed int64) (Run, error)

// noisy applies the re-run rule to a pair's two runs.
func noisy(p, c Run) string {
	for _, r := range []Run{p, c} {
		if s := r.Info["host_steal_frac"]; s > stealLimit {
			return fmt.Sprintf("host_steal_frac %.3f > %.2f", s, stealLimit)
		}
	}
	if lo, hi := min(p.ProbeS, c.ProbeS), max(p.ProbeS, c.ProbeS); lo > 0 && hi/lo > probeRatio {
		return fmt.Sprintf("probe %.3fs vs %.3fs, ratio > %.2f", p.ProbeS, c.ProbeS, probeRatio)
	}
	return ""
}

// runPairs runs one pair per seed, alternating which side goes first and
// re-running a pair the re-run rule flags. log gets one line per run.
func runPairs(workload string, seeds []int64, run runFunc, log io.Writer) ([]Pair, error) {
	var out []Pair
	for i, seed := range seeds {
		p := Pair{Workload: workload, Seed: seed, ParentFirst: i%2 == 0}
		order := []string{"parent", "change"}
		if !p.ParentFirst {
			order[0], order[1] = order[1], order[0]
		}
		for p.Attempts = 1; ; p.Attempts++ {
			runs := map[string]Run{}
			for _, side := range order {
				r, err := run(side, seed)
				if err != nil {
					return out, fmt.Errorf("%s seed %d %s: %w", workload, seed, side, err)
				}
				fmt.Fprintf(log, "benchpair: %s seed %d attempt %d %s: cpu_ms_per_req %.4g steal %.3f probe %.3fs\n",
					workload, seed, p.Attempts, side, r.Metrics["cpu_ms_per_req"], r.Info["host_steal_frac"], r.ProbeS)
				runs[side] = r
			}
			p.Parent, p.Change = runs["parent"], runs["change"]
			if p.Noisy = noisy(p.Parent, p.Change); p.Noisy == "" || p.Attempts == maxAttempts {
				break
			}
		}
		out = append(out, p)
	}
	return out, nil
}

// quartiles returns the median and quartiles of v, interpolated at
// positions k(n+1)/4 as bench/ does.
func quartiles(v []float64) Summary {
	s := append([]float64(nil), v...)
	for i := 1; i < len(s); i++ { // insertion sort: n is ten
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	q := func(k int) float64 {
		n := len(s)
		if n == 1 {
			return s[0]
		}
		pos := float64(k) * float64(n+1) / 4
		j := min(max(int(pos), 1), n-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return Summary{Median: q(2), Q1: q(1), Q3: q(3)}
}

// judge computes every metric's cell for one workload's pairs.
func judge(workload string, pairs []Pair) []Cell {
	var cells []Cell
	for _, m := range metrics {
		c := Cell{Workload: workload, Metric: m.Name, Better: m.Better, Pairs: len(pairs)}
		var pv, cv []float64
		for _, p := range pairs {
			a, b := p.Parent.Metrics[m.Name], p.Change.Metrics[m.Name]
			pv, cv = append(pv, a), append(cv, b)
			if d := b - a; d != 0 && (d < 0) == (m.Better == "lower") {
				c.Won++
			} else if d != 0 {
				c.Lost++
			}
		}
		if len(pairs) == 0 {
			continue
		}
		c.Parent, c.Change = quartiles(pv), quartiles(cv)
		need := winsNeeded(len(pairs))
		gap, iqr := c.Change.Median-c.Parent.Median, c.Parent.Q3-c.Parent.Q1
		improved := (gap < 0) == (m.Better == "lower")
		switch {
		case c.Won >= need && improved && abs(gap) > iqr:
			c.Verdict = "better"
		case c.Lost >= need && !improved && abs(gap) > iqr:
			c.Verdict = "worse"
		default:
			c.Verdict = "unchanged"
		}
		cells = append(cells, c)
	}
	return cells
}

func abs(x float64) float64 { return max(x, -x) }

// winsNeeded is the fewest of n pairs one side must win for a verdict:
// the least k at which k or more wins of n fair coin flips is no more
// likely than 9 or more of 10 (11/1024). It is 9 of 10 and 16 of 20;
// below 7 pairs no count is that unlikely, so the cell reads unchanged.
func winsNeeded(n int) int {
	tail, c := 0.0, 1.0 // tail = P(wins >= k), c = C(n, k)
	for k := n; k >= 0; k-- {
		if tail+c/math.Pow(2, float64(n)) > 11.0/1024 {
			return k + 1
		}
		tail += c / math.Pow(2, float64(n))
		c = c * float64(k) / float64(n-k+1)
	}
	return 0
}

// table renders cells as CHANGES.md's markdown table.
func table(cells []Cell) string {
	var b strings.Builder
	b.WriteString("| workload | metric | parent median [q1, q3] | change median [q1, q3] | delta | pairs won/lost | verdict |\n")
	b.WriteString("|---|---|---|---|---|---|---|\n")
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', 4, 64) }
	for _, c := range cells {
		delta := 0.0
		if c.Parent.Median != 0 {
			delta = 100 * (c.Change.Median - c.Parent.Median) / c.Parent.Median
		}
		fmt.Fprintf(&b, "| %s | %s | %s [%s, %s] | %s [%s, %s] | %+.1f%% | %d/%d | %s |\n",
			c.Workload, c.Metric, g(c.Parent.Median), g(c.Parent.Q1), g(c.Parent.Q3),
			g(c.Change.Median), g(c.Change.Q1), g(c.Change.Q3), delta, c.Won, c.Lost, c.Verdict)
	}
	return b.String()
}

// probe times a fixed CPU loop: how fast this host runs right now.
func probe() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 50_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	probeSink = x
	return time.Since(t0).Seconds()
}

var probeSink uint64

// benchRun runs bench/run.sh in dir and reads back the record it
// appended to out.
func benchRun(dir, out, workload string, seed int64, seconds int) (Run, error) {
	r := Run{ProbeS: probe()}
	cmd := exec.Command("bash", "bench/run.sh", "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0", "--out", out)
	cmd.Dir, cmd.Stdout, cmd.Stderr = dir, io.Discard, os.Stderr
	if err := cmd.Run(); err != nil {
		return r, err
	}
	f, err := os.Open(out)
	if err != nil {
		return r, err
	}
	defer f.Close()
	var last []byte
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	if err := sc.Err(); err != nil {
		return r, err
	}
	return r, json.Unmarshal(last, &r)
}

func git(args ...string) (string, error) {
	out, err := exec.Command("git", args...).Output()
	return strings.TrimSpace(string(out)), err
}

// parseSeeds reads "a-b" (or "" for 1..n) into n seeds.
func parseSeeds(spec string, n int) ([]int64, error) {
	lo, hi := int64(1), int64(n)
	if spec != "" {
		a, b, ok := strings.Cut(spec, "-")
		var err1, err2 error
		lo, err1 = strconv.ParseInt(a, 10, 64)
		hi, err2 = strconv.ParseInt(b, 10, 64)
		if !ok || err1 != nil || err2 != nil || hi-lo+1 != int64(n) {
			return nil, fmt.Errorf("-seeds %q: want a-b with b-a+1 = -n (%d)", spec, n)
		}
	}
	var seeds []int64
	for s := lo; s <= hi; s++ {
		seeds = append(seeds, s)
	}
	return seeds, nil
}

func main() {
	parent := flag.String("parent", "", "git ref of the parent commit (required)")
	workloads := flag.String("workload", "ingest_reads", "comma-separated workloads")
	n := flag.Int("n", 10, "pairs per workload")
	seedSpec := flag.String("seeds", "", "seeds a-b, one per pair (default 1-n)")
	seconds := flag.Int("seconds", 20, "seconds per run")
	pr := flag.Int("pr", 0, "write BENCH_<pr>.json when > 0")
	flag.Parse()
	if err := run(*parent, strings.Split(*workloads, ","), *n, *seedSpec, *seconds, *pr); err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(1)
	}
}

func run(parent string, workloads []string, n int, seedSpec string, seconds, pr int) error {
	if parent == "" || n < 1 {
		return errors.New("need -parent and -n >= 1")
	}
	seeds, err := parseSeeds(seedSpec, n)
	if err != nil {
		return err
	}
	sha, err := git("rev-parse", "--verify", parent+"^{commit}")
	if err != nil {
		return fmt.Errorf("parent %q: %w", parent, err)
	}
	change, _ := git("rev-parse", "HEAD")
	if st, _ := git("status", "--porcelain", "--untracked-files=no"); st != "" {
		change += "+dirty"
	}
	build, err := filepath.Abs(".bench_build")
	if err != nil {
		return err
	}
	wt := filepath.Join(build, "parent-"+sha[:12])
	if _, err := os.Stat(wt); err != nil {
		if _, err := git("worktree", "add", "--detach", wt, sha); err != nil {
			return fmt.Errorf("git worktree add: %w", err)
		}
	}
	defer git("worktree", "remove", "--force", wt)
	rep := Report{Parent: sha, Change: change, Rule: rule}
	for _, w := range workloads {
		pairs, err := runPairs(w, seeds, func(side string, seed int64) (Run, error) {
			dir := "."
			if side == "parent" {
				dir = wt
			}
			return benchRun(dir, filepath.Join(build, "benchpair-"+side+".jsonl"), w, seed, seconds)
		}, os.Stderr)
		rep.Pairs = append(rep.Pairs, pairs...)
		rep.Cells = append(rep.Cells, judge(w, pairs)...)
		if err != nil {
			return err
		}
	}
	rep.Table = table(rep.Cells)
	fmt.Print(rep.Table)
	if pr <= 0 {
		return nil
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(fmt.Sprintf("BENCH_%d.json", pr), append(b, '\n'), 0o644)
}
