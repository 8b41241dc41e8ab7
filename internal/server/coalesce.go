package server

import (
	"errors"
	"sort"
	"strings"
	"sync"
	"time"

	"xmlac"
	"xmlac/internal/trace"
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
	// accounting is the metrics record to fold into sessions and server
	// totals: the shared-cost fields are amortized over the batch (the
	// client-visible result.Metrics keeps the full shared-pass numbers), so
	// aggregates reflect work actually performed. nil when the scan failed
	// before any work was measured.
	accounting *xmlac.Metrics
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

// CoalesceDocStats is the externally visible per-document coalescing record
// (GET /metrics).
type CoalesceDocStats struct {
	Document string `json:"document"`
	// SharedScans counts executed batches serving >= 2 subjects.
	SharedScans int64 `json:"shared_scans"`
	// CoalescedViews is the number of views served through those batches.
	CoalescedViews int64 `json:"coalesced_views"`
	// SoloScans counts single-subject scans: singleton batches (nobody joined
	// inside the window) plus late-joiner fallbacks.
	SoloScans int64 `json:"solo_scans"`
	// LateFallbacks counts requests that found a sealed batch scanning and
	// ran solo instead of queueing behind it.
	LateFallbacks int64 `json:"late_fallbacks"`
	// SubjectsPerScan is the histogram of batch sizes, keyed "le_1", "le_2",
	// "le_4", "le_8", "le_16", "gt_16".
	SubjectsPerScan map[string]int64 `json:"subjects_per_scan"`
}

// docStats is the internal mutable form of CoalesceDocStats.
type docStats struct {
	sharedScans    int64
	coalescedViews int64
	soloScans      int64
	lateFallbacks  int64
	buckets        map[string]int64
}

// coalescer is the per-server request-coalescing table.
type coalescer struct {
	window      time.Duration
	maxSubjects int
	clock       clock
	// batchHist, when set, observes the size of every executed batch (the
	// scrape-facing twin of the per-document JSON buckets).
	batchHist *trace.Histogram

	mu    sync.Mutex
	open  map[string]*scanBatch
	stats map[string]*docStats
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
		stats:       make(map[string]*docStats),
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
		c.statsLocked(key).lateFallbacks++
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

// finish retires a batch after its scan: removes it from the table and
// records the histogram.
func (c *coalescer) finish(key string, b *scanBatch) {
	c.mu.Lock()
	b.state = batchDone
	if c.open[key] == b {
		delete(c.open, key)
	}
	st := c.statsLocked(key)
	n := len(b.reqs)
	st.buckets[bucketLabel(n)]++
	c.batchHist.Observe(float64(n))
	if n >= 2 {
		st.sharedScans++
		st.coalescedViews += int64(n)
	} else {
		st.soloScans++
	}
	c.mu.Unlock()
}

// statsLocked returns the mutable stats record of a batch key's document.
func (c *coalescer) statsLocked(key string) *docStats {
	doc := key
	for i := 0; i < len(key); i++ {
		if key[i] == 0 {
			doc = key[:i]
			break
		}
	}
	st, ok := c.stats[doc]
	if !ok {
		st = &docStats{buckets: make(map[string]int64)}
		c.stats[doc] = st
	}
	return st
}

func bucketLabel(n int) string {
	switch {
	case n <= 1:
		return "le_1"
	case n <= 2:
		return "le_2"
	case n <= 4:
		return "le_4"
	case n <= 8:
		return "le_8"
	case n <= 16:
		return "le_16"
	default:
		return "gt_16"
	}
}

// recordSolo counts a solo scan that bypassed batching entirely (a late
// fallback's execution is recorded here too).
func (c *coalescer) recordSolo(docID string) {
	c.mu.Lock()
	st := c.statsLocked(docID)
	st.soloScans++
	st.buckets[bucketLabel(1)]++
	c.mu.Unlock()
	c.batchHist.Observe(1)
}

// serve runs one view request through the coalescing table and returns its
// result: as joiner (result delivered by the batch leader), as leader
// (opened a batch, waited the window, ran the shared scan for every member)
// or as a late joiner while a scan was in flight, which runs its own
// singleton batch. A nil coalescer (coalescing disabled) runs every request
// as a singleton batch. The second return value is the metrics record to
// fold into sessions and server totals (see viewRequest.accounting).
func (c *coalescer) serve(key string, entry *DocumentEntry, view xmlac.CompiledView) (xmlac.ViewResult, *xmlac.Metrics) {
	req := &viewRequest{view: view, done: make(chan struct{})}
	if c == nil {
		runBatch(entry, []*viewRequest{req})
		return req.result, req.accounting
	}
	b, admitted := c.admit(key, entry, req)
	switch admitted {
	case admitSolo:
		runBatch(entry, []*viewRequest{req})
		c.recordSolo(entry.ID)
		return req.result, req.accounting
	case admitJoin:
		<-req.done
		return req.result, req.accounting
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
	return req.result, req.accounting
}

// runBatch runs a batch of view requests — one request or many — as one
// shared scan (DocumentEntry.StreamViews) and fills every request's result
// and accounting record. A failed scan still returns every member's partial
// metrics, so its work is accounted for like a failed solo view's.
func runBatch(entry *DocumentEntry, reqs []*viewRequest) {
	views := make([]xmlac.CompiledView, len(reqs))
	for i, r := range reqs {
		views[i] = r.view
	}
	results, err := entry.StreamViews(views)
	for i, r := range reqs {
		if results == nil {
			r.result = xmlac.ViewResult{Err: err}
			continue
		}
		r.result = results[i]
		if r.result.Metrics != nil {
			r.accounting = amortizeShared(r.result.Metrics, len(reqs), i == 0)
		}
	}
}

// amortizeShared returns a copy of a coalesced view's metrics with the
// shared-cost fields split evenly over the n batch members (the leader picks
// up the integer remainders), so folding one record per member into the
// session and server totals sums back to the physical cost of the one shared
// pass instead of n times it. The per-subject counters are left untouched;
// the smart-card estimate is divided as an approximation (it mixes shared
// byte costs with per-subject automata work).
func amortizeShared(m *xmlac.Metrics, n int, leader bool) *xmlac.Metrics {
	out := *m
	share := func(v int64) int64 {
		if leader {
			return v/int64(n) + v%int64(n)
		}
		return v / int64(n)
	}
	out.BytesTransferred = share(m.BytesTransferred)
	out.BytesDecrypted = share(m.BytesDecrypted)
	out.BytesSkipped = share(m.BytesSkipped)
	out.EstimatedSmartCardSeconds = m.EstimatedSmartCardSeconds / float64(n)
	// The shared phase timers (decrypt, verify, decode, skip, fetch) describe
	// the one shared pass and were stamped into every subject's breakdown;
	// amortize them like the byte counters. EvalNs and EmitNs are genuinely
	// per-subject and stay whole. Duration stays whole too: it is wall time,
	// not work, and Metrics.Add sums it like any other field.
	out.PhaseBreakdown.DecryptNs = share(m.PhaseBreakdown.DecryptNs)
	out.PhaseBreakdown.VerifyNs = share(m.PhaseBreakdown.VerifyNs)
	out.PhaseBreakdown.HashFetchNs = share(m.PhaseBreakdown.HashFetchNs)
	out.PhaseBreakdown.DecodeNs = share(m.PhaseBreakdown.DecodeNs)
	out.PhaseBreakdown.SkipNs = share(m.PhaseBreakdown.SkipNs)
	out.PhaseBreakdown.FetchNs = share(m.PhaseBreakdown.FetchNs)
	out.PhaseBreakdown.ResyncNs = share(m.PhaseBreakdown.ResyncNs)
	return &out
}

// Snapshot returns the per-document coalescing stats, sorted by document.
func (c *coalescer) Snapshot() []CoalesceDocStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]CoalesceDocStats, 0, len(c.stats))
	for doc, st := range c.stats {
		buckets := make(map[string]int64, len(st.buckets))
		for k, v := range st.buckets {
			buckets[k] = v
		}
		out = append(out, CoalesceDocStats{
			Document:        doc,
			SharedScans:     st.sharedScans,
			CoalescedViews:  st.coalescedViews,
			SoloScans:       st.soloScans,
			LateFallbacks:   st.lateFallbacks,
			SubjectsPerScan: buckets,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Document < out[j].Document })
	return out
}
