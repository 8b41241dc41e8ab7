package remote

import "container/list"

// pageLRU is the bounded chunk cache of the remote source: fixed-size
// ciphertext pages keyed by page index, evicted least-recently-used. The
// secure reader above it issues many tiny overlapping reads (block-granular
// decryption, CBC previous-block lookups); the cache turns those into cheap
// memory hits so each page crosses the wire at most once while it stays
// resident.
type pageLRU struct {
	cap int
	ll  *list.List // front = most recently used; Value is *pageEntry
	m   map[int64]*list.Element
}

type pageEntry struct {
	idx  int64
	data []byte
}

func newPageLRU(capacity int) *pageLRU {
	return &pageLRU{cap: capacity, ll: list.New(), m: make(map[int64]*list.Element)}
}

// contains reports residency without bumping recency (used to compute the
// miss set of a request before fetching).
func (c *pageLRU) contains(idx int64) bool {
	_, ok := c.m[idx]
	return ok
}

// get returns the page bytes and marks the page most recently used.
func (c *pageLRU) get(idx int64) ([]byte, bool) {
	el, ok := c.m[idx]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*pageEntry).data, true
}

// put inserts or refreshes a page, evicting from the cold end past capacity.
func (c *pageLRU) put(idx int64, data []byte) {
	if el, ok := c.m[idx]; ok {
		el.Value.(*pageEntry).data = data
		c.ll.MoveToFront(el)
		return
	}
	c.m[idx] = c.ll.PushFront(&pageEntry{idx: idx, data: data})
	for c.ll.Len() > c.cap {
		el := c.ll.Back()
		c.ll.Remove(el)
		delete(c.m, el.Value.(*pageEntry).idx)
	}
}

func (c *pageLRU) len() int { return c.ll.Len() }

// remove drops one page if resident (a changed chunk's page).
func (c *pageLRU) remove(idx int64) {
	if el, ok := c.m[idx]; ok {
		c.ll.Remove(el)
		delete(c.m, idx)
	}
}

// removeAbove drops every page with an index greater than max (the document
// shrank: pages past the new end of ciphertext are no longer addressable).
func (c *pageLRU) removeAbove(max int64) {
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if e := el.Value.(*pageEntry); e.idx > max {
			c.ll.Remove(el)
			delete(c.m, e.idx)
		}
		el = next
	}
}

func (c *pageLRU) reset() {
	c.ll.Init()
	clear(c.m)
}
