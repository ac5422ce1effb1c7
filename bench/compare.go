package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// readRecords loads the run records of a -out file.
func readRecords(path string) ([]runResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runResult
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// verdict judges one (workload, end-to-end metric) cell of a
// comparison of run sets a (before) and b (after).
func verdict(d metricDef, a, b []float64) (medA, medB, delta float64, v string) {
	medA, medB = median(a), median(b)
	if medA != 0 {
		delta = (medB - medA) / medA
	}
	worse := delta
	if d.Better == "higher" {
		worse = -delta
	}
	switch {
	case worse > d.Bound:
		v = "regressed"
	case quartileSpread(a) > d.Bound || quartileSpread(b) > d.Bound:
		// The runs of one side disagree by more than the bound, so
		// "no worse than the bound" cannot be told from noise.
		v = "unresolved"
	default:
		v = "ok"
	}
	return medA, medB, delta, v
}

// compareFiles prints one row per (workload, end-to-end metric) and
// returns a non-zero exit code on any regressed cell or when b failed
// more operations than a.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readRecords(pathA)
	if err == nil && len(a) == 0 {
		err = fmt.Errorf("%s holds no runs", pathA)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := readRecords(pathB)
	if err == nil && len(b) == 0 {
		err = fmt.Errorf("%s holds no runs", pathB)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	type side struct {
		values            map[string][]float64
		attempted, failed int
	}
	group := func(rs []runResult) map[string]*side {
		out := map[string]*side{}
		for _, r := range rs {
			if r.Trace != 0 {
				continue // end-to-end numbers only ever come from untraced runs
			}
			s := out[r.Workload]
			if s == nil {
				s = &side{values: map[string][]float64{}}
				out[r.Workload] = s
			}
			s.attempted += r.Attempted
			s.failed += r.Failed
			for k, v := range r.Metrics {
				s.values[k] = append(s.values[k], v)
			}
		}
		return out
	}
	ga, gb := group(a), group(b)
	names := make([]string, 0, len(ga))
	for name := range ga {
		if gb[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	code := 0
	fmt.Fprintf(w, "%-13s %-15s %12s %12s %8s %6s %5s  %s\n", "workload", "metric", "a.median", "b.median", "delta", "bound", "runs", "verdict")
	for _, name := range names {
		sa, sb := ga[name], gb[name]
		for _, d := range endToEnd {
			va, vb := sa.values[d.Name], sb.values[d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb, delta, v := verdict(d, va, vb)
			if v == "regressed" {
				code = 1
			}
			fmt.Fprintf(w, "%-13s %-15s %12.4f %12.4f %+7.1f%% %5.0f%% %2d/%-2d  %s\n",
				name, d.Name, ma, mb, 100*delta, 100*d.Bound, len(va), len(vb), v)
		}
		fa := float64(sa.failed) / float64(max(sa.attempted, 1))
		fb := float64(sb.failed) / float64(max(sb.attempted, 1))
		v := "ok"
		if fb > fa {
			v, code = "regressed", 1
		}
		fmt.Fprintf(w, "%-13s %-15s %12.6f %12.6f %8s %6s %5s  %s\n", name, "fail_frac", fa, fb, "", "0", "", v)
	}
	return code
}
