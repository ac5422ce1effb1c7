// Batched shard fan-out: the serving layer groups many compatible
// requests and executes all of their (request, shard) scan cells on one
// shared worker pool, instead of paying a goroutine pool per request.
// Each request keeps its own screening bound and merge heap, so every
// request's result is bit-identical to what its solo ShardTopKCtx run
// would have produced — batching, like sharding, changes wall-clock
// time only.

package parallel

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"modelir/internal/topk"
)

// BatchSpec describes one request's shard fan-out inside a batch: its
// shard count, result count, screening-floor seed, and per-shard
// runner. The runner sees the same Bound semantics as in ShardTopKCtx,
// scoped to this spec only — specs never share screening state.
type BatchSpec struct {
	Shards int
	K      int
	Floor  float64
	Run    ShardRunner
}

// BatchShardTopKCtx evaluates every spec's shards on one pool of
// `workers` goroutines (0 = GOMAXPROCS) and merges each spec's partial
// top-Ks independently. Error isolation is per spec: a failing runner
// poisons only its own spec (remaining cells of that spec are skipped,
// its error lands in the returned slice) while other specs run to
// completion. Context cancellation is global — once ctx ends, every
// unfinished spec reports the context error.
//
// The returned slices are parallel to specs: results[i] is spec i's
// merged top-K (nil when errs[i] != nil).
func BatchShardTopKCtx(ctx context.Context, workers int, specs []BatchSpec) ([][]topk.Item, []error) {
	results := make([][]topk.Item, len(specs))
	errs := make([]error, len(specs))

	type cell struct{ spec, shard int }
	var cells []cell
	bounds := make([]*topk.Bound, len(specs))
	partials := make([]*[][]topk.Item, len(specs))
	merged := make([]*topk.Heap, len(specs))
	failed := make([]atomic.Bool, len(specs))
	for i, sp := range specs {
		if sp.Run == nil {
			errs[i] = errors.New("parallel: nil shard runner")
			continue
		}
		if sp.Shards < 0 {
			errs[i] = errors.New("parallel: negative shard count")
			continue
		}
		h, err := topk.GetHeap(sp.K)
		if err != nil {
			errs[i] = err
			continue
		}
		merged[i] = h
		bounds[i] = topk.NewBound()
		bounds[i].Raise(sp.Floor)
		partials[i] = getPartials(sp.Shards)
		for s := 0; s < sp.Shards; s++ {
			cells = append(cells, cell{spec: i, shard: s})
		}
	}

	var errMu sync.Mutex
	poolErr := ForEachCtx(ctx, len(cells), workers, func(ci int) error {
		c := cells[ci]
		if failed[c.spec].Load() {
			return nil
		}
		slot := &(*partials[c.spec])[c.shard]
		items, err := specs[c.spec].Run(c.shard, bounds[c.spec], *slot)
		*slot = items
		if err != nil {
			// Cancellation aborts the whole batch; any other failure is
			// confined to its spec.
			if ctxErr := ctx.Err(); ctxErr != nil && errors.Is(err, ctxErr) {
				return err
			}
			failed[c.spec].Store(true)
			errMu.Lock()
			if errs[c.spec] == nil {
				errs[c.spec] = err
			}
			errMu.Unlock()
			return nil
		}
		return nil
	})

	for i := range specs {
		if merged[i] == nil {
			continue
		}
		if errs[i] == nil && poolErr != nil {
			errs[i] = poolErr
		}
		if errs[i] == nil {
			// Merge in shard order — the same order ShardTopKCtx uses —
			// so batched results match solo runs bit for bit.
			for _, items := range *partials[i] {
				topk.MergeItems(merged[i], items)
			}
			results[i] = merged[i].Results()
		}
		putPartials(partials[i])
		topk.PutHeap(merged[i])
	}
	return results, errs
}
