//go:build linux

package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// newClient returns an HTTP client limited to conns keep-alive
// connections per host: the whole load of a run shares them, and
// waiting for a free one counts as latency in the open phase.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
	}}
}

// errorField marks a response whose "error" member is set: modelird
// omits the member when empty, and no other member can hold the text.
var errorField = []byte(`"error"`)

// post sends one JSON body and returns the response body. An operation
// fails on a transport error, a non-2xx status, or a non-empty "error".
func post(ctx context.Context, c *http.Client, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return out, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(out))
	}
	if bytes.Contains(out, errorField) {
		return out, fmt.Errorf("error in response: %s", bytes.TrimSpace(out))
	}
	return out, nil
}

// sample is one finished operation.
type sample struct {
	idx   int           // operation index within its stream
	due   time.Duration // offset from phase start at which it was due (open) or sent (closed)
	late  time.Duration // actual send minus due (open phase only)
	lat   time.Duration // completion minus due
	err   error
	bytes int
	body  []byte // kept for every verifyEvery-th read, or for all when capturing
}

func (s sample) ok() bool { return s.err == nil }

// phaseResult is the outcome of one phase of one kind of operation.
type phaseResult struct {
	samples []sample
	elapsed time.Duration
	backlog int // operations due before the phase ended but not yet sent then
}

func (p phaseResult) failed() int {
	n := 0
	for _, s := range p.samples {
		if !s.ok() {
			n++
		}
	}
	return n
}

// okLatencies returns the latencies of the successful operations.
func (p phaseResult) okLatencies() []time.Duration {
	out := make([]time.Duration, 0, len(p.samples))
	for _, s := range p.samples {
		if s.ok() {
			out = append(out, s.lat)
		}
	}
	return out
}

// withinLimit counts operations that succeeded within limit.
func (p phaseResult) withinLimit(limit time.Duration) int {
	n := 0
	for _, s := range p.samples {
		if s.ok() && s.lat <= limit {
			n++
		}
	}
	return n
}

// opSource yields the path and body of operation i.
type opSource func(i int) (path string, body []byte)

// keepBody decides which responses are kept for later comparison.
type keepBody func(i int) bool

// runClosed sends operations from clients goroutines, each sending its
// next one when the last returns, until d has passed.
func runClosed(ctx context.Context, c *http.Client, base string, src opSource, keep keepBody, clients int, d time.Duration) phaseResult {
	var next atomic.Int64
	var mu sync.Mutex
	var out []sample
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			for ctx.Err() == nil {
				sent := time.Since(start)
				if sent >= d {
					break
				}
				i := int(next.Add(1) - 1)
				path, body := src(i)
				resp, err := post(ctx, c, base+path, body)
				s := sample{idx: i, due: sent, lat: time.Since(start) - sent, err: err, bytes: len(resp)}
				if keep(i) {
					s.body = resp
				}
				mine = append(mine, s)
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return phaseResult{samples: out, elapsed: time.Since(start)}
}

// runOpen sends operation i at start+due[i] whatever the server does,
// on at most clients connections. Latency runs from the due time, so a
// stall is charged to every operation that was due during it. The
// phase nominally lasts d; operations still unsent then are counted as
// backlog and sent all the same, so every scheduled operation is
// attempted.
func runOpen(ctx context.Context, c *http.Client, base string, src opSource, keep keepBody, clients int, due []time.Duration, d time.Duration) phaseResult {
	var next atomic.Int64
	out := make([]sample, len(due))
	var started atomic.Int64 // operations sent before the nominal end
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				sleepUntil(start.Add(due[i]))
				path, body := src(i)
				sent := time.Since(start)
				if sent < d {
					started.Add(1)
				}
				resp, err := post(ctx, c, base+path, body)
				s := sample{idx: i, due: due[i], late: sent - due[i], lat: time.Since(start) - due[i], err: err, bytes: len(resp)}
				if keep(i) {
					s.body = resp
				}
				out[i] = s
			}
		}()
	}
	wg.Wait()
	done := int(next.Load())
	if done > len(due) {
		done = len(due)
	}
	return phaseResult{samples: out[:done], elapsed: time.Since(start), backlog: len(due) - int(started.Load())}
}

// sleepUntil blocks the calling thread in nanosleep(2) until t. The Go
// runtime's own timers wake an otherwise idle process through
// epoll_wait, whose timeout has millisecond granularity: with
// time.Sleep the open loop sent its requests a median 0.6 ms late,
// which doubled the measured read_p50_ms. The waits are at most one
// inter-arrival gap long, so they need not watch the context.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the remainder
	}
}

// windowThroughput is the median over whole seconds of the phase of
// successful operations completed in that second: one slow second
// (a collection, a neighbour on the box) does not move it.
func windowThroughput(p phaseResult, d time.Duration) float64 {
	n := int(d / time.Second)
	if n < 1 {
		return float64(len(p.okLatencies())) / p.elapsed.Seconds()
	}
	counts := make([]float64, n)
	for _, s := range p.samples {
		if !s.ok() {
			continue
		}
		if w := int((s.due + s.lat) / time.Second); w < n {
			counts[w]++
		}
	}
	return median(counts)
}

// maxLatencyWindows is the most equal windows the open phase is cut
// into for its latency percentiles; a slow workload gets fewer, so
// that each window keeps the thousand samples p99 needs.
const maxLatencyWindows = 6

// windowedPercentile is the median over the open phase's windows of the
// want-th percentile of the successful operations due in that window.
// On this two-core box a neighbour, a collection or a page-cache flush
// slows a second or two of a run; the whole-phase p99 then reports that
// episode, and differed by a factor of two between runs of one commit.
// The median of window percentiles moves only when most of the phase
// moved. Each window's percentile still needs ten samples beyond it:
// used is the percentile the smallest window supports.
func windowedPercentile(p phaseResult, d time.Duration, want float64) (v, used float64) {
	n := min(max(len(p.samples)/1000, 1), maxLatencyWindows)
	width := d / time.Duration(n)
	windows := make([][]float64, n)
	for _, s := range p.samples {
		if w := int(s.due / width); s.ok() && w < n {
			windows[w] = append(windows[w], ms(s.lat))
		}
	}
	used = want
	for _, w := range windows {
		if s := supportedTail(len(w)); s < used {
			used = max(s, 50)
		}
	}
	per := make([]float64, 0, n)
	for _, w := range windows {
		if len(w) > 0 {
			sort.Float64s(w)
			per = append(per, percentile(w, used))
		}
	}
	return median(per), used
}

// stallFrac is the share of the phase's wall time spent inside
// operations slower than 20 times the phase median: the foreground
// stalls background work causes.
func stallFrac(p phaseResult) float64 {
	lats := p.okLatencies()
	if len(lats) == 0 || p.elapsed <= 0 {
		return 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	limit := 20 * lats[len(lats)/2]
	// Stalled operations overlap when several were due during one
	// stall; merge their [due, due+lat] intervals.
	type span struct{ a, b time.Duration }
	var spans []span
	for _, s := range p.samples {
		if s.ok() && s.lat > limit {
			spans = append(spans, span{s.due, s.due + s.lat})
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].a < spans[j].a })
	var total, end time.Duration
	for _, sp := range spans {
		if sp.a > end {
			total += sp.b - sp.a
			end = sp.b
		} else if sp.b > end {
			total += sp.b - end
			end = sp.b
		}
	}
	return float64(total) / float64(p.elapsed)
}
