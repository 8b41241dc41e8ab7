package server

import (
	"errors"
	"strings"
	"sync"
	"time"

	"xmlac"
)

// Request coalescing: concurrent GET /view requests for the same immutable
// protected blob (same document id, same blob etag) join one shared scan
// (xmlac.AuthorizedViewsCompiled) instead of each paying its own
// decrypt/integrity/parse pass. The first request of a wave opens a batch and
// waits a small window for company; requests arriving inside the window join
// it (each with its own subject, options and response writer) up to a
// per-scan subject cap. Filling the cap seals the batch immediately. While a
// sealed batch is scanning, late arrivals run their own singleton batch —
// they never queue behind a running scan, so the window bounds the
// worst-case added latency and a cold cache never convoys. Every batch, from
// one subject to the cap, runs on the same engine: a singleton batch is a
// one-element multicast, exactly what the solo entry points run.

// DefaultCoalesceWindow is how long the first request of a batch waits for
// other subjects to join its shared scan.
const DefaultCoalesceWindow = 2 * time.Millisecond

// DefaultCoalesceMaxSubjects caps the subjects sharing one scan: beyond it,
// per-subject evaluation work dominates the shared pass and the batch only
// adds latency.
const DefaultCoalesceMaxSubjects = 16

// errBatchAbandoned reaches joiners if the batch leader dies (panic in the
// handler goroutine) before distributing results.
var errBatchAbandoned = errors.New("server: shared scan abandoned by its leader")

// viewRequest is one request's slot inside a batch.
type viewRequest struct {
	view   xmlac.CompiledView
	done   chan struct{}
	result xmlac.ViewResult
	// batch is the number of views the scan that served this request
	// carried, and leader marks the batch's first member (0 and false when
	// the request never reached a scan). late marks a request that found a
	// sealed batch scanning and ran its own. The ledger reads the three to
	// amortize shared work and to record the scan's shape.
	batch  int
	leader bool
	late   bool
}

// batchState is the joinability of a scanBatch.
type batchState int

const (
	batchOpen   batchState = iota // collecting joiners inside the window
	batchSealed                   // scanning; late arrivals go solo
	batchDone                     // results distributed, removed from the table
)

// scanBatch is one wave of coalesced requests over one (doc, etag).
type scanBatch struct {
	entry  *DocumentEntry
	reqs   []*viewRequest
	state  batchState
	sealCh chan struct{}
	timer  timerHandle
}

// coalescer is the per-server request-coalescing table.
type coalescer struct {
	window      time.Duration
	maxSubjects int
	clock       clock

	mu   sync.Mutex
	open map[string]*scanBatch
}

func newCoalescer(window time.Duration, maxSubjects int, clk clock) *coalescer {
	if window <= 0 {
		window = DefaultCoalesceWindow
	}
	if maxSubjects <= 0 {
		maxSubjects = DefaultCoalesceMaxSubjects
	}
	if clk == nil {
		clk = realClock{}
	}
	return &coalescer{
		window:      window,
		maxSubjects: maxSubjects,
		clock:       clk,
		open:        make(map[string]*scanBatch),
	}
}

// admitResult says what serve decided for one request.
type admitResult int

const (
	admitLead admitResult = iota // opened a new batch; wait the window, run it
	admitJoin                    // joined an open batch; wait for its leader
	admitSolo                    // late joiner: a sealed batch is scanning
)

// admit classifies one request under the table lock and returns the batch it
// leads or joined (nil for solo fallbacks).
func (c *coalescer) admit(key string, entry *DocumentEntry, req *viewRequest) (*scanBatch, admitResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if b, ok := c.open[key]; ok {
		if b.state == batchOpen && len(b.reqs) < c.maxSubjects {
			b.reqs = append(b.reqs, req)
			if len(b.reqs) == c.maxSubjects {
				c.sealLocked(b)
			}
			return b, admitJoin
		}
		// Sealed (scanning) or full: never queue behind a running scan.
		return nil, admitSolo
	}
	b := &scanBatch{entry: entry, reqs: []*viewRequest{req}, sealCh: make(chan struct{})}
	b.timer = c.clock.AfterFunc(c.window, func() { c.seal(b) })
	c.open[key] = b
	return b, admitLead
}

// invalidateDoc seals every open batch of a document: an update changed the
// blob, so the next wave must key on the new entity tag instead of joining a
// batch bound to the old one. Batches already scanning finish on the
// snapshot they started with — every response stays a single consistent
// version.
func (c *coalescer) invalidateDoc(docID string) {
	prefix := docID + "\x00"
	c.mu.Lock()
	for key, b := range c.open {
		if strings.HasPrefix(key, prefix) {
			c.sealLocked(b)
		}
	}
	c.mu.Unlock()
}

// seal closes the join window of a batch (idempotent). The batch stays in the
// table, marked sealed, so late arrivals see a scan in flight and run their
// own singleton batch; finish removes it.
func (c *coalescer) seal(b *scanBatch) {
	c.mu.Lock()
	c.sealLocked(b)
	c.mu.Unlock()
}

func (c *coalescer) sealLocked(b *scanBatch) {
	if b.state == batchOpen {
		b.state = batchSealed
		close(b.sealCh)
	}
}

// finish retires a batch after its scan, removing it from the table.
func (c *coalescer) finish(key string, b *scanBatch) {
	c.mu.Lock()
	b.state = batchDone
	if c.open[key] == b {
		delete(c.open, key)
	}
	c.mu.Unlock()
}

// serve runs one view request through the coalescing table and returns its
// filled slot: as joiner (result delivered by the batch leader), as leader
// (opened a batch, waited the window, ran the shared scan for every member)
// or as a late joiner while a scan was in flight, which runs its own
// singleton batch. A nil coalescer (coalescing disabled) runs every request
// as a singleton batch.
func (c *coalescer) serve(key string, entry *DocumentEntry, view xmlac.CompiledView) *viewRequest {
	req := &viewRequest{view: view, done: make(chan struct{})}
	if c == nil {
		runBatch(entry, []*viewRequest{req})
		return req
	}
	b, admitted := c.admit(key, entry, req)
	switch admitted {
	case admitSolo:
		req.late = true
		runBatch(entry, []*viewRequest{req})
		return req
	case admitJoin:
		<-req.done
		return req
	}
	// Leader: wait out the join window (or the cap filling it), then scan.
	<-b.sealCh
	b.timer.Stop()
	delivered := false
	defer func() {
		// A panicking scan must not strand the joiners blocked on their done
		// channels; the panic itself propagates to the HTTP server's recover.
		if !delivered {
			for _, r := range b.reqs[1:] {
				r.result = xmlac.ViewResult{Err: errBatchAbandoned}
				close(r.done)
			}
			c.finish(key, b)
		}
	}()
	runBatch(b.entry, b.reqs)
	delivered = true
	for _, r := range b.reqs[1:] {
		close(r.done)
	}
	c.finish(key, b)
	return req
}

// runBatch runs a batch of view requests — one request or many — as one
// shared scan (DocumentEntry.StreamViews) and fills every request's slot. A
// failed scan still returns every member's partial metrics, so its work is
// accounted for like a failed solo view's.
func runBatch(entry *DocumentEntry, reqs []*viewRequest) {
	views := make([]xmlac.CompiledView, len(reqs))
	for i, r := range reqs {
		views[i] = r.view
	}
	results, err := entry.StreamViews(views)
	for i, r := range reqs {
		r.batch, r.leader = len(reqs), i == 0
		if results == nil {
			r.result = xmlac.ViewResult{Err: err}
		} else {
			r.result = results[i]
		}
	}
}
