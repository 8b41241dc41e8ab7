package remote

import "fmt"

// MaxErrorBody bounds what the client reads of an error response.
const MaxErrorBody = maxErrorBody

// ParseContentRange is the client's parser of a Content-Range header.
var ParseContentRange = parseContentRange

// CheckCache reports the first way the page cache breaks its bookkeeping:
// more pages than its capacity, a slot map that disagrees with the page
// slice, a page longer than a page, or a page whose capacity exceeds its
// length (it would keep bytes alive that the cache does not hold).
func (s *Source) CheckCache() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache.check()
}

// HasPage reports whether page p is resident.
func (s *Source) HasPage(p int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache.contains(p)
}

func (c *pageCache) check() error {
	if len(c.pages) > c.capacity {
		return fmt.Errorf("%d pages resident, capacity %d", len(c.pages), c.capacity)
	}
	if len(c.slot) != len(c.pages) {
		return fmt.Errorf("slot map holds %d pages, page slice %d", len(c.slot), len(c.pages))
	}
	for i, pg := range c.pages {
		if j, ok := c.slot[pg.idx]; !ok || j != i {
			return fmt.Errorf("page %d sits in slot %d, slot map says %d (present %v)", pg.idx, i, j, ok)
		}
		if len(pg.data) > PageSize {
			return fmt.Errorf("page %d holds %d bytes", pg.idx, len(pg.data))
		}
		if cap(pg.data) != len(pg.data) {
			return fmt.Errorf("page %d has length %d and capacity %d", pg.idx, len(pg.data), cap(pg.data))
		}
	}
	return nil
}
