// Result-cache wiring: the cache key, generation-checked lookup,
// defensive copying so cached results stay immutable no matter what
// callers do with the slices they receive, and the per-entry memo of a
// serving layer's encoded items.
//
// The key is the request's canonical encoding (AppendRequest, codec.go),
// followed by the part list when RunParts reads other datasets than the
// request's own, built in a pooled buffer: equal bytes mean equal
// requests, and the encoding leaves out Workers, which is ignored, so
// requests that differ only in Workers share a cache line. Three things opt a request
// out of the cache:
//
//   - Budget > 0 — a truncated run is a best-effort answer, not the
//     top-K the key names;
//   - an FSMQuery with a Prefilter — a func value has no content of
//     its own (the encoding names the registered ones only so the
//     wire can carry them);
//   - a request AppendRequest refuses, such as a KnowledgeQuery whose
//     rule set uses a Membership the bayes package cannot serialize.
//
// Invalidation is generation-based and PER DATASET: every set carries
// a generation counter (1 at registration, +1 per append; compaction
// leaves it alone — content is unchanged), results are stamped with
// the generation of the datasets they read (summed over RunParts'
// parts) sampled before execution, and qcache.Get refuses entries
// stamped with any other generation. So a write to dataset A never
// evicts dataset B's entries — the engine-wide epoch scheme this
// replaces evicted everything on every registration. Staleness safety is unchanged: the generation is
// sampled BEFORE the plan resolves the dataset's shard list, so an
// append racing the request either lands before the sample (the entry
// is stored under — and valid for — the new generation) or after it
// (the entry is stamped with the old generation and refused the
// moment the new one is probed). A stale answer is never served, no
// matter how the bump interleaves with in-flight queries.

package core

import (
	"sync"
	"sync/atomic"
	"time"

	"modelir/internal/canon"
	"modelir/internal/qcache"
	"modelir/internal/topk"
)

// CacheInfo reports the result cache's involvement in one request.
type CacheInfo struct {
	// Hit is true when the result was served from the cache,
	// bit-identical to the cold run that populated it.
	Hit bool
	// Hits, Misses, Evictions and Invalidations sample the engine-wide
	// cache counters as the request completed (all zero when the cache
	// is disabled).
	Hits          uint64
	Misses        uint64
	Evictions     uint64
	Invalidations uint64
}

// cachedResult is one stored answer. Its items and stats are never
// handed out directly: cacheGet clones on the way out exactly as
// cachePut clones on the way in. memo holds the encoded items the first
// hit's Result.AppendItems produced; a replaced or invalidated entry
// takes its memo with it, so a memo always encodes these items.
type cachedResult struct {
	items []topk.Item
	stats QueryStats // Wall and Cache zeroed; filled per serve
	memo  atomic.Pointer[[]byte]
}

// Size reports the memoised bytes (qcache.Sized).
func (cr *cachedResult) Size() int {
	if m := cr.memo.Load(); m != nil {
		return len(*m)
	}
	return 0
}

// AppendItems appends enc's encoding of r.Items to dst. For a result
// served from the cache it encodes the entry's own items (r.Items is a
// copy of them) once, keeps the bytes on the entry, and appends those
// on every later serve of the entry, so enc must be a pure function of
// the items and the same function on every call in a process. An enc
// error is returned as is and nothing is kept.
func (r *Result) AppendItems(dst []byte, enc func(dst []byte, items []topk.Item) ([]byte, error)) ([]byte, error) {
	if r.cached == nil {
		return enc(dst, r.Items)
	}
	if m := r.cached.memo.Load(); m != nil {
		return append(dst, *m...), nil
	}
	start := len(dst)
	dst, err := enc(dst, r.cached.items)
	if err != nil {
		return dst, err
	}
	memo := append([]byte(nil), dst[start:]...)
	r.cached.memo.Store(&memo)
	return dst, nil
}

// cloneItems deep-copies a result set far enough that no caller can
// reach cached memory: the slice itself plus the one payload type the
// engine produces (geology strata indices).
func cloneItems(items []topk.Item) []topk.Item {
	out := make([]topk.Item, len(items))
	copy(out, items)
	for i, it := range out {
		if strata, ok := it.Payload.([]int); ok {
			out[i].Payload = append([]int(nil), strata...)
		}
	}
	return out
}

// cacheGet serves a live cached result, stamping the hit's own Wall and
// cache counters onto otherwise bit-identical stats. gen is the target
// dataset's current generation; entries stamped with any other
// generation are refused (and dropped) by qcache.
func (e *Engine) cacheGet(key []byte, gen uint64, start time.Time) (Result, bool) {
	v, ok := e.cache.Get(key, gen)
	if !ok {
		return Result{}, false
	}
	cr := v.(*cachedResult)
	st := cr.stats
	st.Wall = time.Since(start)
	st.Cache = e.cacheInfo(true)
	return Result{Items: cloneItems(cr.items), Stats: st, cached: cr}, true
}

// cachePut stores a cold result under the dataset generation observed
// before its execution began.
func (e *Engine) cachePut(key []byte, gen uint64, items []topk.Item, st QueryStats) {
	st.Wall = 0
	st.Cache = CacheInfo{}
	e.cache.Put(key, gen, &cachedResult{items: cloneItems(items), stats: st})
}

// cacheInfo samples the engine-wide counters into a per-request view.
// It reads only the atomic counters (qcache.Counters), never the
// shard-locking entry count — this runs on every request completion.
func (e *Engine) cacheInfo(hit bool) CacheInfo {
	if e.cache == nil {
		return CacheInfo{Hit: hit}
	}
	s := e.cache.Counters()
	return CacheInfo{
		Hit:           hit,
		Hits:          s.Hits,
		Misses:        s.Misses,
		Evictions:     s.Evictions,
		Invalidations: s.Invalidations,
	}
}

// CacheStats samples the result cache's counters (zero when the cache
// is disabled).
func (e *Engine) CacheStats() qcache.Stats {
	if e.cache == nil {
		return qcache.Stats{}
	}
	return e.cache.Stats()
}

// generationOf resolves the cache-invalidation stamp of the datasets
// a validated request reads, sampled before execution: the sum of the
// parts' generations. A dataset's generation only rises (1 at
// registration, +1 per append, old+1 at an install), so the sum moves
// whenever any part changes. Returns 0 when a part is unknown —
// results are only ever stored with live sets' generations (>= 1), so
// a 0 probe can never hit, and the plan will fail the request with
// ErrUnknownDataset before anything could be stored.
func (e *Engine) generationOf(req Request, parts []Part) uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var sum uint64
	for _, p := range parts {
		var gen uint64
		switch req.Query.(type) {
		case LinearQuery:
			if ts, ok := e.tuples[p.Dataset]; ok {
				gen = ts.gen
			}
		case SceneQuery, KnowledgeQuery:
			if ss, ok := e.scenes[p.Dataset]; ok {
				gen = ss.gen
			}
		case FSMQuery, FSMDistanceQuery:
			if ss, ok := e.series[p.Dataset]; ok {
				gen = ss.gen
			}
		case GeologyQuery:
			if ws, ok := e.wells[p.Dataset]; ok {
				gen = ws.gen
			}
		}
		if gen == 0 {
			return 0
		}
		sum += gen
	}
	return sum
}

// keyPool holds the buffers cache keys are built in.
var keyPool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledKey keeps a rare huge key (a large rule set) from pinning its
// buffer in the pool; request keys are a few hundred bytes.
const maxPooledKey = 64 << 10

// cacheKey encodes a validated request's cache key over parts into a
// pooled buffer, or returns nil when the request is not cacheable: the
// request's canonical bytes, then — unless parts is the request's own
// dataset alone — the part list. The canonical encoding is
// self-delimiting, so the two shapes never collide. The caller hands a
// key back with releaseKey once nothing references its bytes.
func cacheKey(req Request, parts []Part) *[]byte {
	if req.Budget > 0 {
		return nil
	}
	if q, ok := req.Query.(FSMQuery); ok && q.Prefilter != nil {
		return nil
	}
	kp := keyPool.Get().(*[]byte)
	b, err := AppendRequest((*kp)[:0], req)
	if len(parts) != 1 || parts[0] != (Part{Dataset: req.Dataset}) {
		b = canon.AppendUint(b, uint64(len(parts)))
		for _, p := range parts {
			b = canon.AppendUint(canon.AppendString(b, p.Dataset), uint64(p.Offset))
		}
	}
	*kp = b
	if err != nil {
		releaseKey(kp)
		return nil
	}
	return kp
}

func releaseKey(kp *[]byte) {
	if cap(*kp) <= maxPooledKey {
		keyPool.Put(kp)
	}
}
