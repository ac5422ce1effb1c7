package qcache

import (
	"fmt"
	"sync"
	"testing"

	"modelir/internal/canon"
)

func keyOf(s string) []byte { return []byte(s) }

func TestGetPutBasics(t *testing.T) {
	c := New(Options{Entries: 8, Shards: 2})
	k := keyOf("a")
	if _, ok := c.Get(k, 0); ok {
		t.Fatal("empty cache hit")
	}
	c.Put(k, 0, "va")
	v, ok := c.Get(k, 0)
	if !ok || v.(string) != "va" {
		t.Fatalf("got %v/%v, want va", v, ok)
	}
	// Replacement updates in place.
	c.Put(k, 0, "vb")
	if v, _ := c.Get(k, 0); v.(string) != "vb" {
		t.Fatalf("replace: got %v", v)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestEpochInvalidation(t *testing.T) {
	c := New(Options{Entries: 8, Shards: 1})
	k := keyOf("a")
	c.Put(k, 1, "old")
	// Stale lookups miss, delete the entry, and count an invalidation.
	if _, ok := c.Get(k, 2); ok {
		t.Fatal("stale entry served")
	}
	st := c.Stats()
	if st.Invalidations != 1 || st.Misses != 1 || st.Entries != 0 {
		t.Fatalf("stats after invalidation: %+v", st)
	}
	// Even a LOWER generation invalidates: any mismatch is stale.
	c.Put(k, 5, "new")
	if _, ok := c.Get(k, 4); ok {
		t.Fatal("mismatched-generation entry served")
	}
}

func TestLRUEviction(t *testing.T) {
	// One shard, capacity 3: inserting a 4th entry evicts the least
	// recently used.
	c := New(Options{Entries: 3, Shards: 1})
	ka, kb, kc, kd := keyOf("a"), keyOf("b"), keyOf("c"), keyOf("d")
	c.Put(ka, 0, "a")
	c.Put(kb, 0, "b")
	c.Put(kc, 0, "c")
	// Touch a and c so b is the LRU.
	c.Get(ka, 0)
	c.Get(kc, 0)
	c.Put(kd, 0, "d")
	if _, ok := c.Get(kb, 0); ok {
		t.Fatal("LRU entry b survived eviction")
	}
	for _, k := range [][]byte{ka, kc, kd} {
		if _, ok := c.Get(k, 0); !ok {
			t.Fatalf("recently used entry evicted")
		}
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 3 {
		t.Fatalf("stats %+v", st)
	}
}

func TestShardRoundingAndDefaults(t *testing.T) {
	c := New(Options{})
	if len(c.shards) != DefaultShards {
		t.Fatalf("default shards %d, want %d", len(c.shards), DefaultShards)
	}
	// Shards round up to a power of two.
	c = New(Options{Entries: 10, Shards: 5})
	if len(c.shards) != 8 {
		t.Fatalf("shards %d, want 8", len(c.shards))
	}
	// Every shard holds at least one entry.
	c = New(Options{Entries: 1, Shards: 4})
	for i := 0; i < 64; i++ {
		c.Put(keyOf(fmt.Sprint(i)), 0, i)
	}
	if c.Stats().Entries < 1 {
		t.Fatal("cache lost everything")
	}
}

// TestConcurrentMixedTraffic hammers all operations from many
// goroutines; run with -race. Correctness invariant: a hit must return
// the value put under that key and generation.
func TestConcurrentMixedTraffic(t *testing.T) {
	c := New(Options{Entries: 64, Shards: 4})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := (g*31 + i) % 40
				k := keyOf(fmt.Sprint("key", id))
				gen := uint64(i % 3)
				if i%2 == 0 {
					c.Put(k, gen, id)
				} else if v, ok := c.Get(k, gen); ok && v.(int) != id {
					t.Errorf("key %d returned %v", id, v)
				}
			}
		}(g)
	}
	wg.Wait()
	c.Stats() // must not race
}

// TestFingerprintFraming pins the cache's side of request keying: keys
// framed with the canonical encoding stay on separate entries wherever
// their fields would re-associate unframed, a key is matched on all of
// its bytes (a prefix is another entry), and Put keeps its own copy, so
// a pooled key buffer reused for a longer or different key later
// leaves the stored entry intact.
func TestFingerprintFraming(t *testing.T) {
	c := New(Options{Entries: 64, Shards: 4})
	str := func(ss ...string) []byte {
		var b []byte
		for _, s := range ss {
			b = canon.AppendString(b, s)
		}
		return b
	}
	flts := func(ls ...[]float64) []byte {
		var b []byte
		for _, l := range ls {
			b = canon.AppendFloats(b, l)
		}
		return b
	}
	keys := map[string][]byte{
		// Adjacent strings must not re-associate.
		"ab|c": str("ab", "c"),
		"a|bc": str("a", "bc"),
		// List boundaries are part of the frame.
		"12|3": flts([]float64{1, 2}, []float64{3}),
		"1|23": flts([]float64{1}, []float64{2, 3}),
		// Distinct float bit patterns stay distinct.
		"+0": canon.AppendFloat(nil, 0),
		"-0": canon.AppendFloat(nil, negZero()),
		// A key and its own prefix are different entries.
		"ab|c+": append(str("ab", "c"), 0),
	}
	for name, k := range keys {
		c.Put(k, 1, name)
	}
	for name, k := range keys {
		v, ok := c.Get(k, 1)
		if !ok || v.(string) != name {
			t.Fatalf("key %q: got %v/%v", name, v, ok)
		}
	}

	// Put copies: overwriting the caller's buffer after the store, as a
	// pooled key buffer is, changes neither the entry nor its lookup.
	pooled := append(make([]byte, 0, 256), str("q", "x")...)
	want := append([]byte(nil), pooled...)
	c.Put(pooled, 1, "qx")
	pooled = append(pooled[:0], str("a much longer key than the last one")...)
	if v, ok := c.Get(want, 1); !ok || v.(string) != "qx" {
		t.Fatalf("stored key changed with the caller's buffer: %v/%v", v, ok)
	}
	if _, ok := c.Get(pooled, 1); ok {
		t.Fatal("reused buffer hit an entry it was never stored under")
	}
}

func negZero() float64 { z := 0.0; return -z }

// TestGetDoesNotAllocate pins the hit path: the lookup by key bytes and
// the shard pick allocate nothing.
func TestGetDoesNotAllocate(t *testing.T) {
	c := New(Options{Entries: 8, Shards: 4})
	k := keyOf("a")
	c.Put(k, 1, "v")
	if n := testing.AllocsPerRun(100, func() { c.Get(k, 1) }); n != 0 {
		t.Fatalf("Get: %v allocs per hit, want 0", n)
	}
}

type sized int

func (s sized) Size() int { return int(s) }

// TestStatsBytes pins Stats.Bytes: every live key plus each Sized
// value's own bytes, dropped with the entry.
func TestStatsBytes(t *testing.T) {
	c := New(Options{Entries: 8, Shards: 2})
	ka, kb := keyOf("a"), keyOf("bb")
	c.Put(ka, 1, "plain")
	c.Put(kb, 1, sized(100))
	if got, want := c.Stats().Bytes, len(ka)+len(kb)+100; got != want {
		t.Fatalf("bytes %d, want %d", got, want)
	}
	c.Get(kb, 2) // stale: dropped
	if got, want := c.Stats().Bytes, len(ka); got != want {
		t.Fatalf("bytes after invalidation %d, want %d", got, want)
	}
}
