package remote

import "math/rand/v2"

// pageCache is the bounded chunk cache of the remote source: fixed-size
// ciphertext pages keyed by page index. The secure reader above it issues
// many tiny overlapping reads (block-granular decryption, CBC
// previous-block lookups); the cache turns those into memory hits, so each
// page crosses the wire at most once while it stays resident.
//
// A full cache overwrites a page drawn at random. Every view is a forward
// scan in document order, and under LRU (or FIFO, or CLOCK) a scan whose
// working set exceeds the cache by a single page evicts each page just
// before its next use, so a repeated view hits nothing. Random replacement
// keeps most of such a loop resident: a scan of W pages repeated through
// C < W slots misses about 2(W-C) pages per pass when W is close to C.
// While the working set fits, nothing is evicted at all.
//
// The generator is a PCG seeded from constants, one per Source and used
// under its lock, so evictions depend only on the sequence of reads: tests
// can count exact requests, and the round trips of a run repeat from one
// run to the next.
type pageCache struct {
	capacity int
	pages    []cachedPage  // the resident pages, in no particular order
	slot     map[int64]int // page index -> position in pages
	rng      *rand.Rand
}

type cachedPage struct {
	idx  int64
	data []byte
}

// The PCG seeds of every cache's eviction sequence.
const evictSeed1, evictSeed2 = 0x786d6c6163, 0x7061676573

// newPageCache returns an empty cache of capacity pages. The page slice
// grows as pages arrive: the capacity is the caller's number, so nothing is
// allocated for it up front.
func newPageCache(capacity int) *pageCache {
	return &pageCache{
		capacity: capacity,
		slot:     make(map[int64]int),
		rng:      rand.New(rand.NewPCG(evictSeed1, evictSeed2)),
	}
}

// contains reports whether page idx is resident.
func (c *pageCache) contains(idx int64) bool {
	_, ok := c.slot[idx]
	return ok
}

// get returns the bytes of page idx, if resident.
func (c *pageCache) get(idx int64) ([]byte, bool) {
	i, ok := c.slot[idx]
	if !ok {
		return nil, false
	}
	return c.pages[i].data, true
}

// put inserts or refreshes a page. A new page past capacity overwrites a
// resident page drawn at random.
func (c *pageCache) put(idx int64, data []byte) {
	if i, ok := c.slot[idx]; ok {
		c.pages[i].data = data
		return
	}
	if len(c.pages) < c.capacity {
		c.slot[idx] = len(c.pages)
		c.pages = append(c.pages, cachedPage{idx, data})
		return
	}
	i := c.rng.IntN(len(c.pages))
	delete(c.slot, c.pages[i].idx)
	c.slot[idx] = i
	c.pages[i] = cachedPage{idx, data}
}

func (c *pageCache) len() int { return len(c.pages) }

// remove drops one page if resident (a changed chunk's page).
func (c *pageCache) remove(idx int64) {
	if i, ok := c.slot[idx]; ok {
		c.removeAt(i)
	}
}

// removeAbove drops every page with an index greater than max (the document
// shrank: pages past the new end of ciphertext are no longer addressable).
func (c *pageCache) removeAbove(max int64) {
	for i := 0; i < len(c.pages); {
		if c.pages[i].idx > max {
			c.removeAt(i) // the last page moved into slot i: look again
			continue
		}
		i++
	}
}

// removeAt drops the page in slot i, moving the last page into its place.
func (c *pageCache) removeAt(i int) {
	delete(c.slot, c.pages[i].idx)
	last := len(c.pages) - 1
	if i != last {
		c.pages[i] = c.pages[last]
		c.slot[c.pages[i].idx] = i
	}
	c.pages[last] = cachedPage{} // drop the reference to the page bytes
	c.pages = c.pages[:last]
}

// reset empties the cache.
func (c *pageCache) reset() {
	clear(c.pages)
	c.pages = c.pages[:0]
	clear(c.slot)
}
