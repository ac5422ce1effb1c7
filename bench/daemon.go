//go:build linux

package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// procSet tracks every daemon the benchmark started, so that each exit
// path (return, signal, watchdog) can kill them and wait.
type procSet struct {
	mu   sync.Mutex
	cmds []*exec.Cmd
}

var running procSet

func (p *procSet) add(c *exec.Cmd) {
	p.mu.Lock()
	p.cmds = append(p.cmds, c)
	p.mu.Unlock()
}

// killAll kills and reaps every tracked daemon. It is safe to call
// more than once and from any goroutine.
func (p *procSet) killAll() {
	p.mu.Lock()
	cmds := p.cmds
	p.cmds = nil
	p.mu.Unlock()
	for _, c := range cmds {
		_ = c.Process.Kill() // already exited is fine
		_ = c.Wait()         // reaping; the exit status of a killed daemon is not news
	}
}

// daemon is one running modelird.
type daemon struct {
	cmd *exec.Cmd
	log string // stderr file
}

// freeAddrs reserves n distinct loopback addresses by binding port 0,
// then releases them for the daemons. It refuses an address on which
// something still answers: a leftover modelird would otherwise be
// measured in place of the one under test.
func freeAddrs(n int) ([]string, error) {
	// All n are held at once, so that they are distinct.
	var lns []net.Listener
	closeAll := func() {
		for _, ln := range lns {
			ln.Close()
		}
	}
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeAll()
			return nil, err
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	closeAll()
	for _, a := range addrs {
		if c, err := net.DialTimeout("tcp", a, 200*time.Millisecond); err == nil {
			c.Close()
			return nil, fmt.Errorf("something already answers on %s (a leftover modelird?)", a)
		}
	}
	return addrs, nil
}

// startDaemon execs modelird with its stderr in logDir. The child gets
// SIGKILL if this process dies without running its exit paths.
func startDaemon(bin, logDir, name, addr string, args ...string) (*daemon, error) {
	logPath := filepath.Join(logDir, name+".log")
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stderr = logFile
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	running.add(cmd)
	return &daemon{cmd: cmd, log: logPath}, nil
}

// waitHealthz polls GET /healthz until it answers 200.
func waitHealthz(ctx context.Context, c *http.Client, addr string) error {
	for {
		resp, err := c.Get("http://" + addr + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained for keep-alive
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s/healthz not ready: %w", addr, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// waitListening polls until a TCP connect to addr succeeds (the node
// role has no HTTP surface).
func waitListening(ctx context.Context, addr string) error {
	for {
		c, err := net.DialTimeout("tcp", addr, 100*time.Millisecond)
		if err == nil {
			c.Close()
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s not listening: %w", addr, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// clockTick is USER_HZ, which Linux fixes at 100 for /proc on every
// architecture Go supports.
const clockTick = 100

// cpuSeconds is the user+system CPU time the process has used so far.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after ')'.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	f := strings.Fields(s[i+1:])
	if i < 0 || len(f) < 13 {
		return 0, errors.New("unexpected /proc stat format")
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("unexpected /proc stat format")
	}
	return (utime + stime) / clockTick, nil
}

// peakRSSMB is the process's resident-set high-water mark.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// hostCPU returns the guest's stolen and total CPU ticks so far.
func hostCPU() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i, v := range f[1:] {
		x, _ := strconv.ParseFloat(v, 64)
		total += x
		if i == 7 {
			steal = x
		}
	}
	return steal, total
}
