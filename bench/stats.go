package main

import (
	"math"
	"sort"
	"time"
)

// rng is a splitmix64 generator. Request i of a stream is a pure
// function of (seed, stream, i), so the closed loop can draw requests
// in any interleaving and the stream stays byte-identical per seed.
type rng struct{ s uint64 }

func newRNG(seed int64, stream, i uint64) *rng {
	r := &rng{s: uint64(seed)*0x9e3779b97f4a7c15 ^ stream*0xbf58476d1ce4e5b9 ^ i*0x94d049bb133111eb}
	r.u64() // decorrelate neighbouring (stream, i) pairs
	return r
}

func (r *rng) u64() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0,1).
func (r *rng) float() float64 { return float64(r.u64()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.u64() % uint64(n)) }

// between returns a uniform value in [lo,hi).
func (r *rng) between(lo, hi float64) float64 { return lo + (hi-lo)*r.float() }

// norm returns a standard normal value (Box-Muller, one branch).
func (r *rng) norm() float64 {
	return math.Sqrt(-2*math.Log(1-r.float())) * math.Cos(2*math.Pi*r.float())
}

// exp returns an exponential value with mean 1.
func (r *rng) exp() float64 { return -math.Log(1 - r.float()) }

// logInt returns an integer log-uniform in [lo,hi].
func (r *rng) logInt(lo, hi int) int {
	return int(math.Floor(math.Exp(r.between(math.Log(float64(lo)), math.Log(float64(hi)+1)))))
}

// percentile is the nearest-rank percentile of an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := rank(len(sorted), p) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// rank is the 1-based nearest rank of percentile p among n samples.
// The epsilon keeps 99.9 % of 10000 at 9990 despite binary fractions.
func rank(n int, p float64) int { return int(math.Ceil(p/100*float64(n) - 1e-9)) }

// tailPercentiles are the tail percentiles the benchmark may report.
var tailPercentiles = []float64{50, 90, 95, 99, 99.9}

// supportedTail is the highest reportable percentile of n samples: the
// highest one that still has at least ten samples beyond it.
func supportedTail(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if n-rank(n, p) >= 10 {
			best = p
		}
	}
	return best
}

// tail returns the wanted percentile when n samples support it, else
// the highest supported one, and which one it used.
func tail(sorted []float64, want float64) (v, used float64) {
	used = want
	if s := supportedTail(len(sorted)); s < want {
		used = s
	}
	if used == 0 {
		used = 50
	}
	return percentile(sorted, used), used
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median averages the two middle values of an even count, as Python's
// statistics.median does.
func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// sortedIn converts durations to the given unit, ascending.
func sortedIn(ds []time.Duration, unit func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = unit(d)
	}
	sort.Float64s(out)
	return out
}

// quartileSpread is (Q3-Q1)/median with statistics.quantiles(n=4)'s
// exclusive method, the rule the acceptance check applies to ten runs.
func quartileSpread(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	m := q(2)
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(m)
}
