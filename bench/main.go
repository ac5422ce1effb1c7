//go:build linux

// Command bench is the load benchmark of modelird: it authors its own
// archives from a seed, boots the real daemon on them (single role, or
// router + 2 nodes), drives it over HTTP, checks the answers against
// an in-process reference engine, and prints every metric BENCHMARK.json
// names. Run it through bench/run.sh, which builds both binaries; see
// README.md for the metric and workload definitions.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// watchdog bounds one workload's run: the harness allows 180 s.
const watchdog = 170 * time.Second

func main() {
	os.Exit(realMain())
}

func realMain() int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workloadName := fs.String("workload", "", "workload to run: cold_mix, hot_batch, ingest_reads or cluster_mix (empty = all four)")
	seed := fs.Int64("seed", 1, "seed of the archives, requests and schedules")
	seconds := fs.Int("seconds", 20, "seconds of timed phases per run (40 % closed loop, 60 % open loop)")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and bench/out/trace-<workload>.json; 0 = end-to-end metrics")
	out := fs.String("out", "", "append each run's full record to this file, one JSON object per line (input of -compare)")
	compare := fs.Bool("compare", false, "compare two -out files: bench -compare a.jsonl b.jsonl")
	modelird := fs.String("modelird", "", "path of the modelird binary to measure (bench/run.sh builds and passes it)")
	workdir := fs.String("workdir", ".bench_build", "directory for snapshots and daemon logs, removed after the run")
	outDir := fs.String("outdir", "bench/out", "directory for trace files and the stderr of failed daemons")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two files")
			return 2
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if *modelird == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: need -modelird PATH, -seconds >= 1 and -trace 0 or 1 (use bench/run.sh)")
		return 2
	}
	todo := workloads
	if *workloadName != "" {
		w, ok := workloadByName(*workloadName)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
			return 2
		}
		todo = []workload{w}
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	runDir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	// Every exit path kills the daemons, waits for them and removes
	// the scratch directory: return, signal, watchdog and panic.
	cleanup := func() {
		running.killAll()
		os.RemoveAll(runDir)
	}
	defer cleanup()
	defer func() {
		if r := recover(); r != nil {
			cleanup()
			panic(r)
		}
	}()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "bench: %v, stopping daemons\n", s)
		cleanup()
		os.Exit(1)
	}()

	ev := &env{modelird: *modelird, runDir: runDir, outDir: *outDir, nproc: runtime.NumCPU(), sz: frozenSizes, seed: *seed, seconds: *seconds}
	st := newStamp(*seed)
	code := 0
	for _, w := range todo {
		res, err := runOne(ctx, ev, w, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
			return 1
		}
		res.Workload, res.Seed, res.Seconds, res.Trace, res.Stamp = w.Name, *seed, *seconds, *trace, st
		if *out != "" {
			if err := appendRecord(*out, res); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
		}
		printResult(res, *trace == 1)
		if !res.Correct || res.Failed > 0 {
			code = 1
		}
	}
	return code
}

// runOne runs one workload under the watchdog.
func runOne(ctx context.Context, ev *env, w workload, traced bool) (*runResult, error) {
	ctx, cancel := context.WithTimeout(ctx, watchdog)
	defer cancel()
	fmt.Fprintf(os.Stderr, "bench: %s seed %d, %d s, trace %v\n", w.Name, ev.seed, ev.seconds, traced)
	var res *runResult
	var err error
	if traced {
		res, err = runTraced(ctx, ev, w)
	} else {
		res, err = runUntraced(ctx, ev, w)
	}
	if err != nil && errors.Is(ctx.Err(), context.DeadlineExceeded) {
		err = fmt.Errorf("watchdog: run exceeded %v: %w", watchdog, err)
	}
	return res, err
}

// stamp records where a result came from.
type stamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

func newStamp(seed int64) stamp {
	s := stamp{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Kernel: "unknown", Commit: "unknown", Seed: seed}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		s.Kernel = strings.TrimSpace(string(b))
	}
	// Only a checkout that is itself a repository is asked: git would
	// otherwise walk up into directories that are none of our business.
	if _, err := os.Stat(".git"); err == nil {
		if b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
			s.Commit = strings.TrimSpace(string(b))
		}
	}
	return s
}

func appendRecord(path string, res *runResult) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(res)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// finalLine is the machine-readable last line of a run.
type finalLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult prints every metric by name with its unit, the sample
// counts and notes, and last the one JSON object the harness reads.
func printResult(res *runResult, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	s := res.Stamp
	fmt.Printf("# %s seed=%d seconds=%d trace=%d nproc=%d gomaxprocs=%d %s kernel=%s commit=%s\n",
		res.Workload, res.Seed, res.Seconds, res.Trace, s.NProc, s.GOMAXPROCS, s.Go, s.Kernel, s.Commit)
	final := finalLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := res.Metrics[d.Name]
		fmt.Printf("%-40s %14.4f %s\n", d.Name, v, d.Unit)
		final.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for _, k := range sortedKeys(res.Info) {
		fmt.Printf("info.%-35s %14.4f\n", k, res.Info[k])
	}
	for _, k := range sortedKeys(res.Samples) {
		fmt.Printf("samples.%-32s %14d count\n", k, res.Samples[k])
	}
	fmt.Printf("%-40s %14d count\n%-40s %14d count\n", "ops_attempted", res.Attempted, "ops_failed", res.Failed)
	for _, n := range res.Notes {
		fmt.Println("note:", n)
	}
	b, err := json.Marshal(final)
	if err != nil {
		panic(err) // finite floats and strings always marshal
	}
	fmt.Println(string(b))
}
