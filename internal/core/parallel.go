package core

import (
	"fmt"

	"modelir/internal/fsm"
	"modelir/internal/parallel"
	"modelir/internal/sproc"
	"modelir/internal/topk"
)

// Worker-count overrides. Since the engine shards archives at ingest
// and every query already fans out one worker per shard, FSMTopKParallel
// and GeologyTopKParallel only pin the size of the goroutine pool the
// shards are scheduled on (0 = GOMAXPROCS); results and stats are
// identical to the plain methods for any worker count, and effective
// parallelism is bounded by the engine's ingest shard count.
// ScanTopKTuplesParallel, by contrast, partitions per *item* so its
// `workers` always controls fan-out — it is the honest multi-core
// baseline even on a Shards:1 engine.

// FSMTopKParallel is FSMTopK scheduled on `workers` goroutines.
func (e *Engine) FSMTopKParallel(dataset string, m *fsm.Machine, k int, pre FSMPrefilter, workers int) ([]topk.Item, FSMStats, error) {
	return e.fsmTopK(dataset, m, k, pre, workers)
}

// GeologyTopKParallel is GeologyTopK scheduled on `workers` goroutines.
func (e *Engine) GeologyTopKParallel(dataset string, q GeologyQuery, k int, method GeologyMethod, workers int) ([]WellMatch, sproc.Stats, error) {
	return e.geologyTopK(dataset, q, k, method, workers)
}

// ScanTopKTuplesParallel is the sequential-scan baseline sharded across
// workers: used to keep speedup comparisons honest on multi-core hosts
// (the indexed path and the baseline both get the same cores).
func (e *Engine) ScanTopKTuplesParallel(dataset string, coeffs []float64, intercept float64, k, workers int) ([]topk.Item, error) {
	e.mu.RLock()
	ts, ok := e.tuples[dataset]
	e.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDataset, dataset)
	}
	pts := ts.raw
	if pts == nil {
		// A snapshot-restored engine persists only the built indexes;
		// the raw rows the scan baseline walks were never written.
		return nil, fmt.Errorf("core: %q: sequential-scan baseline unavailable on a restored engine", dataset)
	}
	if len(ts.deltas) > 0 {
		// Live delta segments carry their raw rows; walk base + deltas
		// in global row order so IDs match the indexed path.
		all := make([][]float64, 0, ts.rows)
		all = append(all, pts...)
		for _, d := range ts.deltas {
			all = append(all, d.points...)
		}
		pts = all
	}
	if dim := len(pts[0]); dim != len(coeffs) {
		return nil, fmt.Errorf("core: %d coefficients for %d-dim tuples", len(coeffs), dim)
	}
	return parallel.TopK(len(pts), k, workers, func(i int) (float64, bool, error) {
		s := intercept
		for j, c := range coeffs {
			s += c * pts[i][j]
		}
		return s, true, nil
	})
}
