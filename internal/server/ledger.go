package server

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"xmlac"
	"xmlac/internal/storage"
	"xmlac/internal/trace"
)

// The accounting ledger holds every view counter the server exports, behind
// one mutex. (The request and PATCH counters are lock-free atomics kept
// beside it: no invariant ties them to the view buckets, and the request
// counter is bumped by every HTTP request, remote readers' Range fetches
// included.) A GET /view request folds into it exactly once, when its
// outcome is known (recordView): one tally record is built from the outcome
// and added to the lifetime total, to the (document, subject) session and to the
// (subject, policy) cost bucket; the histograms are updated under the same
// lock. GET /metrics, GET /metrics.prom and GET /debug/costs all render one
// metricsSnapshot copied under that lock, so the three surfaces never
// disagree and every snapshot is internally consistent: its cost buckets
// sum to its totals, and so do its sessions until one expires or is dropped
// with its document.
//
// Cardinality is bounded on the cost side twice. The ledger caps the number
// of distinct (subject, policy) keys (defaultCostKeys); once full, new keys
// fold into one "other" bucket, so a subject flood cannot grow memory. The
// exports cap again: they rank by views and emit the top K buckets plus an
// "other" rollup of everything else. Sessions are bounded by time instead:
// one idle for longer than the ledger's maxIdle is dropped.

// defaultCostKeys caps the distinct (subject, policy) keys the ledger tracks
// individually.
const defaultCostKeys = 256

// defaultCostTopK is the export rank cutoff when ?k= is absent.
const defaultCostTopK = 20

// maxCostTopK bounds the ?k= parameter.
const maxCostTopK = 200

// DefaultSessionIdle is the idle duration after which a session is dropped.
const DefaultSessionIdle = 15 * time.Minute

// sessionSweepEvery is how many view folds pass between sweeps of idle
// sessions (snapshots sweep too, so exports never list an expired session).
const sessionSweepEvery = 256

// Histogram bucket boundaries, chosen once at ledger construction.
var (
	// viewSecondsBounds covers sub-millisecond in-memory views up to
	// multi-second cold remote scans.
	viewSecondsBounds = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
	// viewBytesBounds covers the ciphertext transferred per view.
	viewBytesBounds = []float64{1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20}
	// viewWorkersBounds counts region workers per view scan; the 0 bucket
	// isolates serial scans (including parallel requests that fell back).
	viewWorkersBounds = []float64{0, 1, 2, 4, 8, 16}
)

// tally is the counter set every ledger bucket keeps: the lifetime total, a
// session and a cost bucket. Add must fold every field (xmlac-vet's
// metricsfold analyzer checks it), so a counter added here reaches every
// bucket at once.
type tally struct {
	Views     int64 // views streamed to completion
	Errors    int64 // views that failed or aborted
	WireBytes int64 // HTTP body bytes put on the wire
	// Work is the evaluation work: every view runs its own scan, so sums
	// over buckets equal the physical work.
	Work xmlac.Metrics
}

// Add folds o into t.
func (t *tally) Add(o *tally) {
	t.Views += o.Views
	t.Errors += o.Errors
	t.WireBytes += o.WireBytes
	t.Work.Add(&o.Work)
}

// sessionKey identifies one subject's activity over one document.
type sessionKey struct {
	docID   string
	subject string
}

// session is the ledger's record of one (document, subject) pair: the
// server-side view of one client SOE's consumption.
type session struct {
	tally
	lastSeen time.Time
}

type costKey struct {
	subject string
	policy  string
}

// updateCounters is the exported reading of PATCH /docs/{id} outcomes and
// the delta surface.
type updateCounters struct {
	Applied           int64 `json:"applied"`
	Errors            int64 `json:"errors"`
	DeltasServed      int64 `json:"deltas_served"`
	ChunksReencrypted int64 `json:"chunks_reencrypted"`
	BytesReencrypted  int64 `json:"bytes_reencrypted"`
	BytesReused       int64 `json:"bytes_reused"`
}

// updateTally counts PATCH outcomes and served deltas with lock-free atomics,
// outside the ledger's lock: no invariant ties them to the view buckets.
type updateTally struct {
	applied, errors, deltasServed                    atomic.Int64
	chunksReencrypted, bytesReencrypted, bytesReused atomic.Int64
}

// record counts one PATCH outcome: the applied delta, or nil for an update
// that was rejected or could not be made durable.
func (u *updateTally) record(delta *xmlac.UpdateDelta) {
	if delta == nil {
		u.errors.Add(1)
		return
	}
	u.applied.Add(1)
	u.chunksReencrypted.Add(int64(len(delta.DirtyChunks)))
	u.bytesReencrypted.Add(delta.BytesReencrypted)
	u.bytesReused.Add(delta.BytesReused)
}

// load reads the counters for a metrics snapshot.
func (u *updateTally) load() updateCounters {
	return updateCounters{
		Applied:           u.applied.Load(),
		Errors:            u.errors.Load(),
		DeltasServed:      u.deltasServed.Load(),
		ChunksReencrypted: u.chunksReencrypted.Load(),
		BytesReencrypted:  u.bytesReencrypted.Load(),
		BytesReused:       u.bytesReused.Load(),
	}
}

// ledger is the server's one accounting registry.
type ledger struct {
	clock   clock
	maxIdle time.Duration
	costCap int

	mu        sync.Mutex
	total     tally
	sessions  map[sessionKey]*session
	costs     map[costKey]*tally
	costOther tally
	// collapsed counts the views folded into costOther because the key table
	// was full (views, not distinct subjects: the ledger does not remember
	// identities it rejected — that would be the unbounded memory the cap
	// exists to avoid).
	collapsed int64

	viewSeconds *trace.Histogram
	viewBytes   *trace.Histogram
	viewWorkers *trace.Histogram
}

// newLedger builds an empty ledger; maxIdle <= 0 selects DefaultSessionIdle
// and a nil clock the wall clock.
func newLedger(maxIdle time.Duration, clk clock) *ledger {
	if maxIdle <= 0 {
		maxIdle = DefaultSessionIdle
	}
	if clk == nil {
		clk = realClock{}
	}
	return &ledger{
		clock:       clk,
		maxIdle:     maxIdle,
		costCap:     defaultCostKeys,
		sessions:    make(map[sessionKey]*session),
		costs:       make(map[costKey]*tally),
		viewSeconds: trace.NewHistogram(viewSecondsBounds...),
		viewBytes:   trace.NewHistogram(viewBytesBounds...),
		viewWorkers: trace.NewHistogram(viewWorkersBounds...),
	}
}

// viewOutcome is everything the ledger folds for one GET /view request.
type viewOutcome struct {
	doc, subject string
	policy       string // policy fingerprint
	wireBytes    int64
	// metrics and err are the scan's result: nil metrics for a view that
	// failed before scanning.
	metrics *xmlac.Metrics
	err     error
}

// recordView folds one view into every bucket it belongs to.
func (l *ledger) recordView(o viewOutcome) {
	d := tally{WireBytes: o.wireBytes}
	if o.err != nil {
		d.Errors = 1
	} else {
		d.Views = 1
	}
	if o.metrics != nil {
		// A failed view still performed work (decryption, verification,
		// partial delivery): its partial counters fold like a served view's.
		d.Work = *o.metrics
	}
	now := l.clock.Now()

	l.mu.Lock()
	defer l.mu.Unlock()
	l.total.Add(&d)
	sk := sessionKey{docID: o.doc, subject: o.subject}
	sess := l.sessions[sk]
	if sess == nil {
		sess = &session{}
		l.sessions[sk] = sess
	}
	sess.Add(&d)
	sess.lastSeen = now
	if (l.total.Views+l.total.Errors)%sessionSweepEvery == 0 {
		l.sweepLocked(now)
	}
	l.costLocked(o.subject, o.policy).Add(&d)

	// The histograms describe served views.
	if m := o.metrics; m != nil && o.err == nil {
		l.viewSeconds.Observe(m.Duration.Seconds())
		l.viewBytes.Observe(float64(m.BytesTransferred))
		// Workers is 0 for serial scans (including every parallel request
		// that fell back), so the first bucket counts serial views and the
		// tail shows how wide the parallel fan-outs actually ran.
		l.viewWorkers.Observe(float64(m.Workers))
	}
}

// costLocked returns the cost bucket of a (subject, policy) key, or the
// "other" rollup once the key table is full.
func (l *ledger) costLocked(subject, policy string) *tally {
	key := costKey{subject: subject, policy: policy}
	if t := l.costs[key]; t != nil {
		return t
	}
	if len(l.costs) >= l.costCap {
		l.collapsed++
		return &l.costOther
	}
	t := &tally{}
	l.costs[key] = t
	return t
}

// sweepLocked drops sessions idle for longer than maxIdle.
func (l *ledger) sweepLocked(now time.Time) {
	for k, sess := range l.sessions {
		if now.Sub(sess.lastSeen) > l.maxIdle {
			delete(l.sessions, k)
		}
	}
}

// dropDocument removes every session of a document (document deleted or
// replaced). The lifetime totals and the cost buckets keep its work.
func (l *ledger) dropDocument(docID string) {
	l.mu.Lock()
	for k := range l.sessions {
		if k.docID == docID {
			delete(l.sessions, k)
		}
	}
	l.mu.Unlock()
}

// SessionStats is the exported snapshot of one session.
type SessionStats struct {
	Document string        `json:"document"`
	Subject  string        `json:"subject"`
	Views    int64         `json:"views"`
	Errors   int64         `json:"errors"`
	Totals   xmlac.Metrics `json:"totals"`
	LastSeen time.Time     `json:"last_seen"`
}

// CostEntry is one ranked (subject, policy fingerprint) bucket of the cost
// exports. The "other" rollup carries subject "other" and an empty policy
// fingerprint.
type CostEntry struct {
	Subject          string               `json:"subject"`
	Policy           string               `json:"policy,omitempty"`
	Views            int64                `json:"views"` // attempts: served plus failed
	Errors           int64                `json:"errors"`
	WireBytes        int64                `json:"wire_bytes"`
	BytesTransferred int64                `json:"bytes_transferred"`
	BytesDecrypted   int64                `json:"bytes_decrypted"`
	BytesSkipped     int64                `json:"bytes_skipped"`
	Phases           xmlac.PhaseBreakdown `json:"phases"`
}

func newCostEntry(key costKey, t *tally) CostEntry {
	return CostEntry{
		Subject:          key.subject,
		Policy:           key.policy,
		Views:            t.Views + t.Errors,
		Errors:           t.Errors,
		WireBytes:        t.WireBytes,
		BytesTransferred: t.Work.BytesTransferred,
		BytesDecrypted:   t.Work.BytesDecrypted,
		BytesSkipped:     t.Work.BytesSkipped,
		Phases:           t.Work.PhaseBreakdown,
	}
}

// costSnapshot is the ranked cost export: the top-K buckets by views (ties
// broken by wire bytes, then by key for determinism), an "other" entry
// rolling up everything else, and the key table's shape.
type costSnapshot struct {
	Entries []CostEntry `json:"entries"`
	// Other rolls up the buckets beyond the top K plus every view the full
	// key table collapsed; nil when nothing was folded.
	Other *CostEntry `json:"other,omitempty"`
	// Distinct is the number of (subject, policy) keys tracked individually.
	Distinct int `json:"distinct"`
	// Collapsed is the number of views folded into other because the key
	// table was full.
	Collapsed int64 `json:"collapsed"`
}

// metricsSnapshot is one consistent reading of every server counter: the
// ledger copied under its lock, plus the request and PATCH counters and the
// gauges read from the store and the storage engine. GET /metrics is its
// JSON encoding; GET /metrics.prom and GET /debug/costs render from it.
type metricsSnapshot struct {
	UptimeSeconds float64           `json:"uptime_seconds"`
	GoVersion     string            `json:"go_version"`
	Build         map[string]string `json:"build"`
	Requests      int64             `json:"requests"`
	ViewsServed   int64             `json:"views_served"`
	ViewErrors    int64             `json:"view_errors"`
	Documents     int               `json:"documents"`
	Updates       updateCounters    `json:"updates"`
	Storage       struct {
		Enabled bool `json:"enabled"`
		storage.Stats
	} `json:"storage"`
	Totals     xmlac.Metrics  `json:"totals"`
	Sessions   []SessionStats `json:"sessions"`
	Costs      costSnapshot   `json:"costs"`
	Histograms struct {
		ViewSeconds trace.HistogramSnapshot `json:"view_duration_seconds"`
		ViewBytes   trace.HistogramSnapshot `json:"view_wire_bytes"`
		ViewWorkers trace.HistogramSnapshot `json:"view_workers"`
	} `json:"histograms"`
}

// snapshot copies the ledger's state under its lock into a metricsSnapshot,
// ranking the cost buckets to the top k (<= 0 selects defaultCostTopK).
// The caller fills the gauges the ledger does not own.
func (l *ledger) snapshot(k int) *metricsSnapshot {
	if k <= 0 {
		k = defaultCostTopK
	}
	type ranked struct {
		key costKey
		t   tally
	}
	snap := &metricsSnapshot{}
	now := l.clock.Now()

	l.mu.Lock()
	l.sweepLocked(now)
	snap.ViewsServed = l.total.Views
	snap.ViewErrors = l.total.Errors
	snap.Totals = l.total.Work
	snap.Sessions = make([]SessionStats, 0, len(l.sessions))
	for key, sess := range l.sessions {
		snap.Sessions = append(snap.Sessions, SessionStats{
			Document: key.docID,
			Subject:  key.subject,
			Views:    sess.Views,
			Errors:   sess.Errors,
			Totals:   sess.Work,
			LastSeen: sess.lastSeen,
		})
	}
	costs := make([]ranked, 0, len(l.costs))
	for key, t := range l.costs {
		costs = append(costs, ranked{key, *t})
	}
	other := l.costOther
	snap.Costs.Collapsed = l.collapsed
	h := &snap.Histograms
	h.ViewSeconds = l.viewSeconds.Snapshot()
	h.ViewBytes = l.viewBytes.Snapshot()
	h.ViewWorkers = l.viewWorkers.Snapshot()
	l.mu.Unlock()

	sort.Slice(snap.Sessions, func(i, j int) bool {
		a, b := snap.Sessions[i], snap.Sessions[j]
		if a.Document != b.Document {
			return a.Document < b.Document
		}
		return a.Subject < b.Subject
	})
	sort.Slice(costs, func(i, j int) bool {
		a, b := costs[i], costs[j]
		if va, vb := a.t.Views+a.t.Errors, b.t.Views+b.t.Errors; va != vb {
			return va > vb
		}
		if a.t.WireBytes != b.t.WireBytes {
			return a.t.WireBytes > b.t.WireBytes
		}
		if a.key.subject != b.key.subject {
			return a.key.subject < b.key.subject
		}
		return a.key.policy < b.key.policy
	})
	snap.Costs.Distinct = len(costs)
	snap.Costs.Entries = make([]CostEntry, 0, min(k, len(costs)))
	for i := range costs {
		if i < k {
			snap.Costs.Entries = append(snap.Costs.Entries, newCostEntry(costs[i].key, &costs[i].t))
		} else {
			other.Add(&costs[i].t)
		}
	}
	if other.Views+other.Errors > 0 {
		e := newCostEntry(costKey{subject: "other"}, &other)
		snap.Costs.Other = &e
	}
	return snap
}
