package remote

import (
	"bytes"
	"math/rand/v2"
	"testing"
)

// TestPageCacheModel drives the cache's bookkeeping with fixed-seed random
// sequences of put, get, remove, removeAbove and reset, and checks it after
// every step against a map of the bytes last put for each page: the cache
// holds at most its capacity, its slot map and page slice agree, every
// resident page holds the bytes last put, a page just put is resident, a
// full cache evicts one page per new page and a cache with room none, and
// nothing above max remains after removeAbove.
func TestPageCacheModel(t *testing.T) {
	for seed := uint64(0); seed < 32; seed++ {
		rng := rand.New(rand.NewPCG(seed, 1))
		capacity := 1 + rng.IntN(16)
		c := newPageCache(capacity)
		model := map[int64][]byte{}
		for step := 0; step < 2000; step++ {
			idx := int64(rng.IntN(3 * capacity))
			before := c.len()
			switch op := rng.IntN(20); {
			case op < 10:
				data := make([]byte, 1+rng.IntN(PageSize))
				for i := range data {
					data[i] = byte(rng.Uint32())
				}
				was := c.contains(idx)
				c.put(idx, data)
				model[idx] = data
				want := before
				if !was {
					want = min(before+1, capacity)
				}
				if !c.contains(idx) || c.len() != want {
					t.Fatalf("seed %d step %d: put(%d) left resident=%v, %d pages; want resident, %d pages",
						seed, step, idx, c.contains(idx), c.len(), want)
				}
			case op < 15:
				if data, ok := c.get(idx); ok && !bytes.Equal(data, model[idx]) {
					t.Fatalf("seed %d step %d: get(%d) returned bytes other than the last put", seed, step, idx)
				}
			case op < 18:
				c.remove(idx)
				delete(model, idx)
				if c.contains(idx) {
					t.Fatalf("seed %d step %d: page %d resident after remove", seed, step, idx)
				}
			case op < 19:
				c.removeAbove(idx)
				for p := range model {
					if p > idx {
						delete(model, p)
					}
				}
				for _, pg := range c.pages {
					if pg.idx > idx {
						t.Fatalf("seed %d step %d: page %d resident after removeAbove(%d)", seed, step, pg.idx, idx)
					}
				}
			default:
				c.reset()
				clear(model)
				if c.len() != 0 {
					t.Fatalf("seed %d step %d: %d pages resident after reset", seed, step, c.len())
				}
			}
			if err := c.check(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			for _, pg := range c.pages {
				if want, ok := model[pg.idx]; !ok || !bytes.Equal(pg.data, want) {
					t.Fatalf("seed %d step %d: resident page %d does not hold the bytes last put (put: %v)", seed, step, pg.idx, ok)
				}
			}
		}
	}
}
