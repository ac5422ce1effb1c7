// Engine.RunBatch: the serving layer's many-requests entry point. A
// batch is cheaper than its requests run separately for three reasons,
// applied in order:
//
//  1. cache — each request is probed against the result cache first;
//  2. dedup — identical cacheable requests (same canonical key bytes)
//     execute once, with followers receiving copies of the leader's
//     result;
//  3. one pool — surviving requests are ordered into per-model-family
//     groups and each runs as one unit of ONE shared worker pool
//     (parallel.BatchTopK) under ONE admission grant, instead of a
//     grant per request; mixed-family batches run their families
//     concurrently.
//
// Every request's items and stats are bit-identical (modulo Wall and
// Cache) to what a solo Engine.Run of the same request would return:
// batching, like sharding, changes scheduling only.

package core

import (
	"context"
	"errors"
	"runtime"
	"time"

	"modelir/internal/parallel"
)

// BatchResult is one request's outcome within a batch: exactly one of
// Result or Err is meaningful (Err nil means Result is valid).
type BatchResult struct {
	Result Result
	Err    error
}

// batchEntry is one deduped unit of execution: a validated request plus
// the batch positions its result must be copied to.
type batchEntry struct {
	idx       int     // position in the caller's request slice
	req       Request // validated copy (defaults resolved)
	key       *[]byte // cache key; nil when not cacheable
	gen       uint64  // target dataset's generation at probe time
	followers []int   // positions holding identical requests
}

// RunBatch executes many requests as one serving unit and returns one
// BatchResult per request, positionally. Failures are isolated: a
// malformed or failing request poisons only its own slot. The error
// return is non-nil only for whole-batch conditions (context
// cancellation), in which case every not-yet-completed slot also
// carries that error.
func (e *Engine) RunBatch(ctx context.Context, reqs []Request) ([]BatchResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]BatchResult, len(reqs))
	if len(reqs) == 0 {
		return out, nil
	}
	if err := ctx.Err(); err != nil {
		for i := range out {
			out[i].Err = err
		}
		return out, err
	}
	start := time.Now()

	// Phase 1: validate, probe the cache, dedup identical requests. A
	// leader keeps its key until its result is stored.
	var exec []*batchEntry
	leaderByKey := make(map[string]*batchEntry)
	defer func() {
		for _, l := range leaderByKey {
			releaseKey(l.key)
		}
	}()
	for i := range reqs {
		req := reqs[i]
		if err := validateRequest(&req); err != nil {
			out[i].Err = err
			continue
		}
		var key *[]byte
		var gen uint64
		parts := ownParts(req)
		if e.cache != nil {
			key = cacheKey(req, parts)
		}
		if key != nil {
			// Per-dataset generation, sampled before the plan resolves
			// the shard list — same staleness argument as runReq.
			gen = e.generationOf(req, parts)
			if res, ok := e.cacheGet(*key, gen, start); ok {
				out[i].Result = res
				releaseKey(key)
				continue
			}
			if l, ok := leaderByKey[string(*key)]; ok {
				l.followers = append(l.followers, i)
				releaseKey(key)
				continue
			}
		}
		en := &batchEntry{idx: i, req: req, key: key, gen: gen}
		if key != nil {
			leaderByKey[string(*key)] = en
		}
		exec = append(exec, en)
	}
	if len(exec) == 0 {
		return out, nil
	}

	// Phase 2: order the survivors family-major (compatible requests
	// grouped per model family, first-appearance order), then plan them
	// and run each as one unit of one shared pool under one admission
	// grant — a mixed-family batch runs its families concurrently, not
	// back to back.
	groups := make(map[ModelKind][]*batchEntry)
	var order []ModelKind
	for _, en := range exec {
		k := en.req.Query.Kind()
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], en)
	}
	exec = exec[:0]
	for _, kind := range order {
		exec = append(exec, groups[kind]...)
	}

	live := make([]*batchEntry, 0, len(exec))
	plans := make([]queryPlan, 0, len(exec))
	specs := make([]parallel.BatchSpec, 0, len(exec))
	for _, en := range exec {
		p, err := en.req.Query.plan(ctx, e, en.req, ownParts(en.req))
		if err != nil {
			fillBatchErr(out, en, bareCtxErr(ctx, err))
			continue
		}
		live = append(live, en)
		plans = append(plans, p)
		specs = append(specs, parallel.BatchSpec{Queue: p.q, K: en.req.K, Floor: p.floor})
	}
	if len(live) == 0 {
		return out, nil
	}
	// The batch admits once, a unit per request it can run at a time: no
	// more than one per request, which run alone, nor than one per core.
	workers, release, err := e.admit(ctx, min(runtime.GOMAXPROCS(0), len(live)))
	if err != nil {
		for _, en := range live {
			fillBatchErr(out, en, err)
		}
		return out, err
	}
	defer release()

	results, errs := parallel.BatchTopK(ctx, workers, specs)
	var ctxErr error
	for gi, en := range live {
		if errs[gi] != nil {
			err := bareCtxErr(ctx, errs[gi])
			if ce := ctx.Err(); ce != nil && errors.Is(err, ce) {
				ctxErr = ce
			}
			fillBatchErr(out, en, err)
			continue
		}
		items, st, err := plans[gi].finish(results[gi])
		if err != nil {
			fillBatchErr(out, en, bareCtxErr(ctx, err))
			continue
		}
		if en.req.MinScore != nil {
			items = filterMinScore(items, *en.req.MinScore)
		}
		st.Kind = en.req.Query.Kind()
		if en.key != nil {
			e.cachePut(*en.key, en.gen, items, st)
		}
		st.Wall = time.Since(start)
		st.Cache = e.cacheInfo(false)
		out[en.idx] = BatchResult{Result: Result{Items: items, Stats: st}}
		// Followers get their own copies: batchmates must not share
		// mutable slices.
		for _, fi := range en.followers {
			fst := st
			fst.Wall = time.Since(start)
			out[fi] = BatchResult{Result: Result{Items: cloneItems(items), Stats: fst}}
		}
	}
	return out, ctxErr
}

func fillBatchErr(out []BatchResult, en *batchEntry, err error) {
	out[en.idx].Err = err
	for _, fi := range en.followers {
		out[fi].Err = err
	}
}
