// Batched execution: the serving layer runs many requests as the units
// of one shared pool. Each request drains its own queue into its own
// heap under its own bound, alone on whichever worker took it, so its
// result is bit-identical to its solo TopK run.
package parallel

import (
	"context"
	"errors"

	"modelir/internal/topk"
)

// BatchSpec is one request of a batch: its unit queue, result count and
// screening-floor seed. Specs never share screening state.
type BatchSpec struct {
	Queue Queue
	K     int
	Floor float64
}

// BatchTopK runs each spec as one unit of one pool of `workers`
// goroutines (0 = GOMAXPROCS): a worker takes a spec and drains its
// queue with TopK. Errors are isolated per spec: a failing spec reports
// its error in the returned slice while the others run to completion. Context cancellation is global — once ctx ends,
// every spec reports the context error.
//
// The returned slices are parallel to specs: results[i] is spec i's
// top-K (nil when errs[i] != nil).
func BatchTopK(ctx context.Context, workers int, specs []BatchSpec) ([][]topk.Item, []error) {
	results := make([][]topk.Item, len(specs))
	errs := make([]error, len(specs))
	poolErr := ForEachCtx(ctx, len(specs), workers, func(i int) error {
		sp := specs[i]
		bound := topk.NewBound()
		bound.Raise(sp.Floor)
		items, err := TopK(ctx, sp.Queue, sp.K, bound)
		if ce := ctx.Err(); ce != nil && errors.Is(err, ce) {
			return ce
		}
		results[i], errs[i] = items, err
		return nil
	})
	if poolErr != nil {
		for i := range specs {
			results[i], errs[i] = nil, poolErr
		}
	}
	return results, errs
}
