package server

import (
	"fmt"
	"sync"
	"testing"

	"xmlac"
)

func compiledPolicy(t testing.TB, subject string) *xmlac.CompiledPolicy {
	t.Helper()
	cp, err := xmlac.DoctorPolicy(subject).Compile()
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

func TestPolicyCachePutGet(t *testing.T) {
	c := NewPolicyCache(64)
	k := cacheKey{docID: "d", subject: "s", hash: "h"}
	if _, ok := c.Get(k); ok {
		t.Fatal("empty cache must miss")
	}
	cp := compiledPolicy(t, "DrA")
	c.Put(k, cp)
	got, ok := c.Get(k)
	if !ok || got != cp {
		t.Fatal("expected the cached compiled policy back")
	}
	if c.Len() != 1 {
		t.Fatalf("len=%d, want 1", c.Len())
	}
	// A different policy hash is a different entry: the stale compilation is
	// never returned for an updated policy.
	if _, ok := c.Get(cacheKey{docID: "d", subject: "s", hash: "h2"}); ok {
		t.Fatal("changed hash must miss")
	}
}

func TestPolicyCacheLRUEviction(t *testing.T) {
	// Capacity 16 over 16 shards = 1 entry per shard: inserting two keys
	// landing in the same shard must evict the older one.
	c := NewPolicyCache(16)
	cp := compiledPolicy(t, "DrA")
	keys := make([]cacheKey, 0, 64)
	for i := 0; i < 64; i++ {
		k := cacheKey{docID: "d", subject: fmt.Sprintf("s%d", i), hash: "h"}
		keys = append(keys, k)
		c.Put(k, cp)
	}
	if got := c.Len(); got > 16 {
		t.Fatalf("cache grew to %d entries, capacity is 16", got)
	}
	// The most recently inserted key of some shard must still be present.
	if _, ok := c.Get(keys[len(keys)-1]); !ok {
		t.Fatal("most recently used entry was evicted")
	}
}

func TestPolicyCacheInvalidateDoc(t *testing.T) {
	// 256 over 16 shards = 16 per shard: the 16 keys below can never trigger
	// an eviction regardless of how the seeded hash distributes them, so the
	// length check observes invalidation only.
	c := NewPolicyCache(256)
	cp := compiledPolicy(t, "DrA")
	for i := 0; i < 8; i++ {
		c.Put(cacheKey{docID: "a", subject: fmt.Sprintf("s%d", i), hash: "h"}, cp)
		c.Put(cacheKey{docID: "b", subject: fmt.Sprintf("s%d", i), hash: "h"}, cp)
	}
	c.InvalidateDoc("a")
	if got := c.Len(); got != 8 {
		t.Fatalf("len=%d after invalidating doc a, want 8", got)
	}
	if _, ok := c.Get(cacheKey{docID: "a", subject: "s0", hash: "h"}); ok {
		t.Fatal("invalidated doc entry still cached")
	}
	if _, ok := c.Get(cacheKey{docID: "b", subject: "s0", hash: "h"}); !ok {
		t.Fatal("other doc entry was dropped")
	}
}

func TestPolicyCacheConcurrent(t *testing.T) {
	c := NewPolicyCache(128)
	cp := compiledPolicy(t, "DrA")
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := cacheKey{docID: "d", subject: fmt.Sprintf("s%d", i%32), hash: "h"}
				if _, ok := c.Get(k); !ok {
					c.Put(k, cp)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() == 0 {
		t.Fatal("cache empty after concurrent fill")
	}
}
