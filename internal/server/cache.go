// Package server is the multi-tenant document server built on the xmlac
// library: a concurrency-safe store of protected documents and per-subject
// policies, a sharded LRU cache of compiled policies (compile once, evaluate
// many), one accounting ledger holding every exported counter, and the HTTP
// handler set served by cmd/xmlac-serve.
//
// The paper's architecture keeps the publisher untrusted and pushes policy
// evaluation into each client's Secure Operating Environment. This server
// plays the complementary role for deployments where the operator is
// trusted: it hosts the protected documents and simulates one SOE per
// request, so that many tenants (documents) and many subjects are served
// concurrently from the same process while the per-request cost model
// (bytes transferred, decrypted, skipped) stays observable through
// /metrics.
package server

import (
	"container/list"
	"hash/maphash"
	"sync"

	"xmlac"
)

// cacheKey identifies one compiled policy: a subject's policy version over
// one document. The hash component is the policy fingerprint, so replacing a
// subject's policy changes the key and the stale compilation simply ages out.
type cacheKey struct {
	docID   string
	subject string
	hash    string
}

// policyCacheShards is the number of independently locked shards; a power of
// two so the hash folds with a mask.
const policyCacheShards = 16

// PolicyCache is a sharded LRU cache of compiled policies keyed on
// (document, subject, policy hash). Shards are locked independently so
// concurrent view requests for different subjects rarely contend; each shard
// keeps its entries in LRU order and evicts the least recently used compiled
// policy when full. Hits and misses are counted by the server's ledger,
// per (subject, policy), when a view folds.
type PolicyCache struct {
	seed   maphash.Seed
	shards [policyCacheShards]cacheShard
}

type cacheShard struct {
	mu       sync.Mutex
	capacity int
	entries  map[cacheKey]*list.Element
	order    *list.List // front = most recently used
}

type cacheEntry struct {
	key cacheKey
	cp  *xmlac.CompiledPolicy
}

// NewPolicyCache builds a cache holding at most capacity compiled policies
// in total (rounded up to a multiple of the shard count). A non-positive
// capacity defaults to 1024.
func NewPolicyCache(capacity int) *PolicyCache {
	if capacity <= 0 {
		capacity = 1024
	}
	perShard := (capacity + policyCacheShards - 1) / policyCacheShards
	c := &PolicyCache{seed: maphash.MakeSeed()}
	for i := range c.shards {
		c.shards[i].capacity = perShard
		c.shards[i].entries = make(map[cacheKey]*list.Element)
		c.shards[i].order = list.New()
	}
	return c
}

func (c *PolicyCache) shard(k cacheKey) *cacheShard {
	var h maphash.Hash
	h.SetSeed(c.seed)
	h.WriteString(k.docID)
	h.WriteByte(0)
	h.WriteString(k.subject)
	h.WriteByte(0)
	h.WriteString(k.hash)
	return &c.shards[h.Sum64()&(policyCacheShards-1)]
}

// Get returns the cached compiled policy for the key, marking it most
// recently used.
func (c *PolicyCache) Get(k cacheKey) (*xmlac.CompiledPolicy, bool) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[k]
	if !ok {
		return nil, false
	}
	s.order.MoveToFront(el)
	return el.Value.(*cacheEntry).cp, true
}

// Put inserts (or refreshes) a compiled policy, evicting the least recently
// used entry of its shard when the shard is full.
func (c *PolicyCache) Put(k cacheKey, cp *xmlac.CompiledPolicy) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[k]; ok {
		el.Value.(*cacheEntry).cp = cp
		s.order.MoveToFront(el)
		return
	}
	if s.order.Len() >= s.capacity {
		oldest := s.order.Back()
		if oldest != nil {
			s.order.Remove(oldest)
			delete(s.entries, oldest.Value.(*cacheEntry).key)
		}
	}
	s.entries[k] = s.order.PushFront(&cacheEntry{key: k, cp: cp})
}

// InvalidateDoc drops every cached compilation for a document (all subjects,
// all policy versions); used when the document is deleted or re-registered.
func (c *PolicyCache) InvalidateDoc(docID string) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for el := s.order.Front(); el != nil; {
			next := el.Next()
			if e := el.Value.(*cacheEntry); e.key.docID == docID {
				s.order.Remove(el)
				delete(s.entries, e.key)
			}
			el = next
		}
		s.mu.Unlock()
	}
}

// Len returns the current number of cached compiled policies.
func (c *PolicyCache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.order.Len()
		s.mu.Unlock()
	}
	return n
}
