// Package qcache is the engine's query-result cache: a sharded LRU
// keyed by the exact canonical bytes of a request (core.AppendRequest,
// which leaves out Workers and is decodable, so equal bytes mean equal
// requests) and
// invalidated by a generation counter the caller supplies — the engine
// passes the target dataset's own generation, bumped on every append
// to that dataset, so writes to one dataset never evict another's
// entries. By the engine's determinism guarantee a model re-run against
// an unchanged archive produces the same answer, so serving it from
// memory is exact, not approximate.
//
// Keys: Get takes the request bytes and looks them up without
// copying or allocating; only Put keeps a copy. Two requests share an
// entry iff their encodings are byte-equal. A seeded maphash of the key
// picks the shard.
//
// Concurrency: each shard is guarded by its own mutex, so concurrent
// hits on different shards never contend. Counters are cache-wide
// atomics.
//
// Invalidation: every entry records the generation it was computed
// under. Get compares it against the caller's current one and treats
// any mismatch as a miss, deleting the stale entry — so after an append
// bumps the dataset's generation, no pre-append result is ever served
// again. (The cache itself is agnostic to what the counter means.)
package qcache

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// Options tunes cache construction.
type Options struct {
	// Entries caps the total cached results across all shards; 0 means
	// DefaultEntries.
	Entries int
	// Shards is the number of independently locked partitions; 0 means
	// DefaultShards. Rounded up to a power of two.
	Shards int
}

// Default sizing: a serving deployment tunes these via Options.
const (
	DefaultEntries = 1024
	DefaultShards  = 16
)

// Stats is a point-in-time sample of the cache counters.
type Stats struct {
	// Hits counts Gets that returned a live entry.
	Hits uint64
	// Misses counts Gets that found nothing (including generation
	// invalidations, which are also counted separately).
	Misses uint64
	// Stores counts Puts (inserts and replacements both).
	Stores uint64
	// Evictions counts entries dropped by LRU capacity pressure.
	Evictions uint64
	// Invalidations counts entries dropped because their generation
	// was stale at lookup.
	Invalidations uint64
	// Entries is the number of currently cached results.
	Entries int
	// Bytes is what the entries hold beyond their fixed overhead: every
	// key plus, for values implementing Sized, their Size.
	Bytes int
}

// Sized is implemented by cached values that hold bytes of their own
// (the engine's memoised response fragments); Stats counts them.
type Sized interface{ Size() int }

// Cache is a sharded, generation-checked LRU. The zero value is not
// usable; construct with New.
type Cache struct {
	shards []*cacheShard
	mask   uint64
	seed   maphash.Seed

	hits          atomic.Uint64
	misses        atomic.Uint64
	stores        atomic.Uint64
	evictions     atomic.Uint64
	invalidations atomic.Uint64
}

// New builds a cache. Entries is split evenly across shards (each shard
// holds at least one entry, so tiny Entries with many shards rounds the
// effective capacity up).
func New(opt Options) *Cache {
	entries := opt.Entries
	if entries <= 0 {
		entries = DefaultEntries
	}
	shards := opt.Shards
	if shards <= 0 {
		shards = DefaultShards
	}
	// Round shards up to a power of two so shard selection is a single
	// AND.
	n := 1
	for n < shards {
		n <<= 1
	}
	perShard := (entries + n - 1) / n
	c := &Cache{shards: make([]*cacheShard, n), mask: uint64(n - 1), seed: maphash.MakeSeed()}
	for i := range c.shards {
		c.shards[i] = newCacheShard(perShard)
	}
	return c
}

func (c *Cache) shardFor(key []byte) *cacheShard {
	return c.shards[maphash.Bytes(c.seed, key)&c.mask]
}

// Get returns the value cached under key if it is live at generation
// gen. A stale entry (any generation mismatch) is deleted and reported
// as a miss. Get neither retains nor copies key.
func (c *Cache) Get(key []byte, gen uint64) (any, bool) {
	v, ok, stale := c.shardFor(key).get(key, gen)
	if stale {
		c.invalidations.Add(1)
	}
	if ok {
		c.hits.Add(1)
		return v, true
	}
	c.misses.Add(1)
	return nil, false
}

// Put caches value under a copy of key at generation gen, replacing any
// previous entry for the key and evicting the least-recently-used entry
// when the shard is full.
func (c *Cache) Put(key []byte, gen uint64, value any) {
	c.stores.Add(1)
	if c.shardFor(key).put(key, gen, value) {
		c.evictions.Add(1)
	}
}

// Stats samples the counters plus the entry count and bytes. It locks
// every shard in turn and walks its entries; hot paths that only need
// the atomic counters should use Counters.
func (c *Cache) Stats() Stats {
	s := c.Counters()
	for _, sh := range c.shards {
		sh.mu.Lock()
		s.Entries += len(sh.table)
		for e := sh.head; e != nil; e = e.next {
			s.Bytes += len(e.key)
			if v, ok := e.value.(Sized); ok {
				s.Bytes += v.Size()
			}
		}
		sh.mu.Unlock()
	}
	return s
}

// Counters samples only the lock-free atomic counters (Entries and
// Bytes stay zero). This is the per-request sampling path: it takes no
// locks and never contends with cache traffic on other shards.
func (c *Cache) Counters() Stats {
	return Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Stores:        c.stores.Load(),
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
	}
}

// entry is one cached result on a shard's intrusive LRU list.
type entry struct {
	key        string
	gen        uint64
	value      any
	prev, next *entry
}

// cacheShard is one locked partition: a map for lookup plus a doubly
// linked list in recency order (head = most recent).
type cacheShard struct {
	mu         sync.Mutex
	capacity   int
	table      map[string]*entry
	head, tail *entry
}

func newCacheShard(capacity int) *cacheShard {
	if capacity < 1 {
		capacity = 1
	}
	return &cacheShard{capacity: capacity, table: make(map[string]*entry, capacity)}
}

func (s *cacheShard) get(key []byte, gen uint64) (v any, ok, stale bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, found := s.table[string(key)]
	if !found {
		return nil, false, false
	}
	if e.gen != gen {
		s.unlink(e)
		delete(s.table, e.key)
		return nil, false, true
	}
	s.moveToFront(e)
	return e.value, true, false
}

func (s *cacheShard) put(key []byte, gen uint64, value any) (evicted bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, found := s.table[string(key)]; found {
		e.gen = gen
		e.value = value
		s.moveToFront(e)
		return false
	}
	if len(s.table) >= s.capacity {
		lru := s.tail
		s.unlink(lru)
		delete(s.table, lru.key)
		evicted = true
	}
	e := &entry{key: string(key), gen: gen, value: value}
	s.table[e.key] = e
	s.pushFront(e)
	return evicted
}

func (s *cacheShard) pushFront(e *entry) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *cacheShard) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *cacheShard) moveToFront(e *entry) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}
