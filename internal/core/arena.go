// Request-scoped scratch arena: every Run/RunBatch execution of a
// scan-shaped family needs a per-worker accounting slice. A serving
// engine answers thousands of requests at the same width, so these come
// from sync.Pools and are returned inside each plan's finish hook — the
// last point that reads them.
// Error paths that skip finish simply drop the slices; sync.Pool makes
// that a lost reuse, never a leak.

package core

import (
	"sync"

	"modelir/internal/fsm"
	"modelir/internal/sproc"
)

// slicePool recycles fixed-purpose []T scratch. get returns a zeroed
// length-n slice; put recycles its backing array (via pointer, so the
// pool round-trip itself does not allocate).
type slicePool[T any] struct{ p sync.Pool }

func (sp *slicePool[T]) get(n int) *[]T {
	if v, ok := sp.p.Get().(*[]T); ok && cap(*v) >= n {
		s := (*v)[:n]
		var zero T
		for i := range s {
			s[i] = zero
		}
		*v = s
		return v
	}
	s := make([]T, n)
	return &s
}

func (sp *slicePool[T]) put(s *[]T) { sp.p.Put(s) }

// scanCounts is one worker's share of a scan-shaped family's work
// report (see scanPlan): evaluation units spent, candidates examined,
// candidates screened out.
type scanCounts struct{ evals, examined, pruned int }

var countsArena slicePool[scanCounts]

// Evaluator scratch pools for the columnar scan kernels: machine
// extraction / behavioral distance buffers (FSM-distance family) and
// the top-1 SPROC DP's working set (geology family). One scratch per
// in-flight worker; get/put brackets each candidate so mixed
// concurrent queries share the pools safely.
var (
	fsmScratchPool   = sync.Pool{New: func() any { return fsm.NewScratch() }}
	sprocScratchPool = sync.Pool{New: func() any { return sproc.NewScratch() }}
)
