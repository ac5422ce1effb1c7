package main

import (
	"bytes"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func TestRunValidation(t *testing.T) {
	if err := run([]string{"-e", "e99"}); err == nil {
		t.Fatal("want unknown experiment error")
	}
	if err := run([]string{"-badflag"}); err == nil {
		t.Fatal("want flag parse error")
	}
}

func TestRunSelectedQuick(t *testing.T) {
	// One cheap experiment end-to-end through the printer.
	if err := run([]string{"-quick", "-e", "e3"}); err != nil {
		t.Fatalf("e3 quick: %v", err)
	}
	if err := run([]string{"-quick", "-e", "a3"}); err != nil {
		t.Fatalf("a3 quick: %v", err)
	}
}

func TestRunTimeoutRecordsCancellation(t *testing.T) {
	// -timeout is checked between tables, so a deadline that fires
	// before the first one skips the rest. The run must still exit
	// cleanly (a fired deadline is not a failure) and report how many
	// tables completed, matching the tables it printed.
	out := captureStdout(t, func() error {
		return run([]string{"-quick", "-timeout", "1ns", "-e", "e3,e1"})
	})
	m := regexp.MustCompile(`timeout 1ns reached \(.+\): (\d+) experiment table\(s\) completed`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no timeout report in output:\n%s", out)
	}
	done, _ := strconv.Atoi(m[1])
	if printed := strings.Count(out, "== E"); done >= 2 || done != printed {
		t.Fatalf("reported %d tables completed, printed %d, of 2 requested", done, printed)
	}
}

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed; fn's error fails the test.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	var buf bytes.Buffer
	copied := make(chan struct{})
	go func() {
		io.Copy(&buf, r)
		close(copied)
	}()
	runErr := fn()
	os.Stdout = stdout
	w.Close()
	<-copied
	r.Close()
	if runErr != nil {
		t.Fatalf("run failed: %v\n%s", runErr, buf.String())
	}
	return buf.String()
}

func TestRunProfiles(t *testing.T) {
	// -cpuprofile/-memprofile write non-empty pprof files.
	dir := t.TempDir()
	cpu, mem := dir+"/cpu.pprof", dir+"/mem.pprof"
	if err := run([]string{"-quick", "-e", "e3", "-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatalf("profiled run failed: %v", err)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Fatalf("%s is empty", p)
		}
	}
}
