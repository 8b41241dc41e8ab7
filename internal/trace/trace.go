// Package trace is the zero-dependency observability core of the SOE
// engine: a lightweight span recorder shared by every pipeline layer
// (internal/secure, internal/skipindex, internal/core, internal/remote) and
// the phase timers behind the public Metrics.PhaseBreakdown.
//
// The design splits responsibilities in two:
//
//   - Context is the per-evaluation side: a monotonic-clock phase switch
//     accumulating exclusive nanoseconds per pipeline phase (time spent in a
//     nested phase is charged to the inner phase only, so the phase sums add
//     up to the instrumented wall time instead of double-counting), plus
//     per-evaluation attribute counters (remote page cache hits/misses). A
//     Context is single-goroutine, like the evaluation it instruments, and
//     every method is safe on a nil receiver: a disabled pipeline threads a
//     nil *Context everywhere and pays only the nil checks.
//
//   - Recorder is the retention side: a bounded, concurrency-safe ring
//     buffer of completed spans that many evaluations write into, exported
//     as JSONL (GET /debug/trace) or as a Chrome-trace JSON array
//     (chrome://tracing, Perfetto) for offline inspection.
//
// Spans correlate across goroutines and across the trust boundary through
// two links: the trace ID (one logical operation; a remote client propagates
// it as X-Request-Id so the untrusted server's spans join the client's
// trace) and the parent span ID (children point at the root span of the
// context that recorded them). WriteChromeTraceLanes renders each context
// as its own row, so two evaluations sharing a trace ID do not interleave.
package trace

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Phase identifies one pipeline phase of an SOE evaluation. The exclusive
// time a Context charges to each phase is surfaced publicly through
// xmlac.Metrics.PhaseBreakdown in the same order.
type Phase int

const (
	// PhaseDecrypt is ciphertext decryption inside the SOE (internal/secure).
	PhaseDecrypt Phase = iota
	// PhaseVerify is integrity verification: chunk digest comparison, Merkle
	// root recomputation, CBC chunk hashing (internal/secure).
	PhaseVerify
	// PhaseHashFetch is the transfer of Merkle fragment hashes from the
	// untrusted terminal (internal/secure, ECB-MHT scheme).
	PhaseHashFetch
	// PhaseDecode is Skip-index decoding: element meta parsing and event
	// production (internal/skipindex).
	PhaseDecode
	// PhaseSkip is the execution of Skip-index subtree jumps
	// (internal/skipindex).
	PhaseSkip
	// PhaseEval is access-rule automata evaluation (internal/core).
	PhaseEval
	// PhaseEmit is view delivery: flushing the settled prefix into the sink
	// or tree builder (internal/core).
	PhaseEmit
	// PhaseFetch is remote HTTP transfer: range requests, manifest and hash
	// fetches over the wire (internal/remote).
	PhaseFetch
	// PhaseResync is version re-synchronization after a remote document
	// update (internal/remote).
	PhaseResync

	// NumPhases is the number of phases (array sizing).
	NumPhases
)

var phaseNames = [NumPhases]string{
	"decrypt", "verify", "hash-fetch", "decode", "skip", "eval", "emit", "fetch", "resync",
}

// String returns the stable lower-case phase name used in span names and
// exports.
func (p Phase) String() string {
	if p < 0 || p >= NumPhases {
		return fmt.Sprintf("phase(%d)", int(p))
	}
	return phaseNames[p]
}

// Context carries the tracing state of one evaluation through the pipeline
// layers. The zero of the API is the nil Context: every method no-ops on a
// nil receiver, so callers thread the pointer unconditionally and disabled
// tracing costs one predictable branch per call site.
//
// Phase accounting is exclusive: one phase is current at a time, and each
// switch (Enter) charges the time elapsed since the last switch to the phase
// it leaves. Nested phases (a remote fetch inside an integrity check inside
// a decode) therefore never double-count, and the per-phase sums equal the
// instrumented wall time.
type Context struct {
	rec     *Recorder
	id      string
	span    string
	started time.Time
	mark    time.Time
	cur     Phase
	phases  [NumPhases]int64

	pageHits   int64
	pageMisses int64
}

// New returns a Context recording into rec (which may be nil: phases are
// still timed, spans are dropped) under the given trace ID. The context is
// assigned a fresh span ID identifying the evaluation's root span: child
// spans recorded through the context carry it as their parent, and remote
// sources propagate it over the wire so a cooperating server can link its
// own spans under this evaluation.
func New(rec *Recorder, id string) *Context {
	now := time.Now()
	return &Context{rec: rec, id: id, span: NewSpanID(), started: now, mark: now, cur: noPhase}
}

// noPhase is the current phase of a Context outside every phase: the time
// spent there is charged to none.
const noPhase Phase = -1

// The trace-propagation headers. A remote client stamps both on every
// request while a tracing context is attached, and the store reads them:
// RequestIDHeader carries the trace ID (the store honours a well-formed
// value as the request's ID, generates one otherwise, and echoes it), and
// SpanIDHeader the span ID of the client evaluation that caused the request,
// which the store records as its request span's parent.
const (
	RequestIDHeader = "X-Request-Id"
	SpanIDHeader    = "X-Xmlac-Span-Id"
)

// NewSpanID returns a fresh 16-hex-digit random span ID.
func NewSpanID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "0000000000000000" // a correlation aid, not a secret
	}
	return hex.EncodeToString(b[:])
}

// ID returns the trace ID ("" on a nil Context).
func (c *Context) ID() string {
	if c == nil {
		return ""
	}
	return c.id
}

// SpanID returns the ID of the evaluation's root span ("" on a nil Context).
func (c *Context) SpanID() string {
	if c == nil {
		return ""
	}
	return c.span
}

// Enter makes p the current phase and returns the phase it leaves,
// charging that phase the time since the last switch (none outside every
// phase). Every phase is entered as
//
//	defer c.Enter(c.Enter(p))
//
// so the phase left is restored on every return and panic. The nil check
// is split from the switch so that Enter inlines: an untraced pipeline pays
// only the check.
func (c *Context) Enter(p Phase) Phase {
	if c == nil {
		return noPhase
	}
	return c.enter(p)
}

func (c *Context) enter(p Phase) Phase {
	now := time.Now()
	prev := c.cur
	if prev != noPhase {
		c.phases[prev] += now.Sub(c.mark).Nanoseconds()
	}
	c.cur, c.mark = p, now
	return prev
}

// Phases returns the exclusive nanoseconds accumulated per phase so far.
func (c *Context) Phases() [NumPhases]int64 {
	if c == nil {
		return [NumPhases]int64{}
	}
	return c.phases
}

// Now returns the current time for span timing, or the zero time on a nil
// Context (Record ignores spans with a zero start, so the pattern
// "start := ctx.Now(); ...; ctx.Record(name, start, ...)" is free when
// tracing is off).
func (c *Context) Now() time.Time {
	if c == nil {
		return time.Time{}
	}
	return time.Now()
}

// Record emits one completed span (started at start, ending now) with
// byte/chunk attributes into the recorder. No-op on a nil Context, a nil
// recorder or a zero start.
func (c *Context) Record(name string, start time.Time, bytes, chunks int64, detail string) {
	if c == nil || c.rec == nil || start.IsZero() {
		return
	}
	c.rec.RecordSpan(Span{
		TraceID: c.id,
		Parent:  c.span,
		Name:    name,
		Start:   start,
		Dur:     time.Since(start),
		Bytes:   bytes,
		Chunks:  chunks,
		Detail:  detail,
	})
}

// CountPageHits / CountPageMisses accumulate remote page-cache outcomes for
// this evaluation; they surface in the Finish span's detail.
func (c *Context) CountPageHits(n int64) {
	if c == nil {
		return
	}
	c.pageHits += n
}

func (c *Context) CountPageMisses(n int64) {
	if c == nil {
		return
	}
	c.pageMisses += n
}

// PageStats returns the accumulated page-cache counters.
func (c *Context) PageStats() (hits, misses int64) {
	if c == nil {
		return 0, 0
	}
	return c.pageHits, c.pageMisses
}

// Finish closes the evaluation: one aggregate span per non-zero phase
// (anchored at the context start, duration = exclusive time — phase spans
// are totals, not intervals) plus a root span named name covering the whole
// evaluation are recorded, and the total elapsed time is returned.
func (c *Context) Finish(name string, bytes int64) time.Duration {
	if c == nil {
		return 0
	}
	total := time.Since(c.started)
	if c.rec == nil {
		return total
	}
	for p := Phase(0); p < NumPhases; p++ {
		if ns := c.phases[p]; ns > 0 {
			c.rec.RecordSpan(Span{
				TraceID: c.id,
				Parent:  c.span,
				Name:    "phase:" + p.String(),
				Start:   c.started,
				Dur:     time.Duration(ns),
			})
		}
	}
	detail := ""
	if c.pageHits > 0 || c.pageMisses > 0 {
		detail = fmt.Sprintf("page_hits=%d page_misses=%d", c.pageHits, c.pageMisses)
	}
	c.rec.RecordSpan(Span{
		TraceID: c.id,
		SpanID:  c.span,
		Name:    name,
		Start:   c.started,
		Dur:     total,
		Bytes:   bytes,
		Detail:  detail,
	})
	return total
}

// Span is one completed, timed unit of work.
type Span struct {
	// TraceID groups the spans of one logical operation; when a client
	// propagates it over the wire (X-Request-Id), spans recorded on both
	// sides of the trust boundary share it.
	TraceID string `json:"trace_id,omitempty"`
	// SpanID identifies this span so children can point at it; only root
	// spans carry one (child spans are identified by their parent linkage).
	SpanID string `json:"span_id,omitempty"`
	// Parent is the SpanID of the enclosing span — for a server-side span,
	// the client evaluation that caused the request (X-Xmlac-Span-Id).
	Parent string        `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Start  time.Time     `json:"start"`
	Dur    time.Duration `json:"dur_ns"`
	Bytes  int64         `json:"bytes,omitempty"`
	Chunks int64         `json:"chunks,omitempty"`
	Detail string        `json:"detail,omitempty"`
	// Seq is the recorder-assigned monotonic sequence number (1 for the
	// first span ever recorded): pollers resume with "spans after seq N".
	Seq uint64 `json:"seq,omitempty"`
}

// DefaultRecorderCapacity is the ring size selected by NewRecorder when the
// requested capacity is not positive.
const DefaultRecorderCapacity = 512

// Recorder is a bounded ring buffer of spans, safe for concurrent use: many
// evaluations record into one Recorder and the newest spans win. Memory is
// bounded by the capacity chosen at construction.
type Recorder struct {
	mu    sync.Mutex
	buf   []Span
	next  int
	count int
	total uint64
}

// NewRecorder builds a recorder retaining up to capacity spans
// (DefaultRecorderCapacity when capacity <= 0).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultRecorderCapacity
	}
	return &Recorder{buf: make([]Span, capacity)}
}

// RecordSpan appends a span, evicting the oldest when the ring is full, and
// assigns it the next sequence number. Evaluations record through their
// Context; a server records its request-handling spans here directly, so
// they sit next to the evaluation spans under the same trace IDs.
func (r *Recorder) RecordSpan(s Span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.total++
	s.Seq = r.total
	r.buf[r.next] = s
	r.next = (r.next + 1) % len(r.buf)
	if r.count < len(r.buf) {
		r.count++
	}
	r.mu.Unlock()
}

// Len returns the number of retained spans.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}

// Total returns the number of spans ever recorded (retained or evicted).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Filter selects a subset of the retained spans.
type Filter struct {
	// TraceID, when non-empty, keeps only spans of that trace.
	TraceID string
	// Since, when non-zero, keeps only spans with a sequence number
	// strictly greater (pollers resume where the previous read stopped).
	Since uint64
	// N, when positive, keeps only the newest N of the matching spans.
	N int
}

// Spans returns the retained spans matching the filter, oldest first.
func (r *Recorder) Spans(f Filter) []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	start := r.next - r.count
	if start < 0 {
		start += len(r.buf)
	}
	var out []Span
	for i := 0; i < r.count; i++ {
		s := r.buf[(start+i)%len(r.buf)]
		if f.TraceID != "" && s.TraceID != f.TraceID {
			continue
		}
		if f.Since != 0 && s.Seq <= f.Since {
			continue
		}
		out = append(out, s)
	}
	if f.N > 0 && len(out) > f.N {
		out = out[len(out)-f.N:]
	}
	return out
}

// WriteJSONL writes the spans matching the filter (oldest first) as one
// JSON object per line.
func (r *Recorder) WriteJSONL(w io.Writer, f Filter) error {
	enc := json.NewEncoder(w)
	for _, s := range r.Spans(f) {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// WriteChromeTrace writes every retained span as a Chrome trace-event JSON
// array (complete "X" events, microsecond timestamps), loadable in
// chrome://tracing or Perfetto. Phase spans (recorded by Context.Finish) are
// per-phase totals anchored at the evaluation start, not exact intervals.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	return WriteChromeTraceLanes(w, []Lane{{Spans: r.Spans(Filter{})}})
}

// Lane is one named process row of a merged Chrome trace: a span set from
// one side of the trust boundary (the client SOE, the untrusted server).
type Lane struct {
	// Name labels the lane as a process name in the viewer ("" leaves the
	// process unnamed).
	Name  string
	Spans []Span
}

// chromeEvent is one entry of the Chrome trace-event JSON array.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts,omitempty"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTraceLanes writes several span sets as one Chrome trace, each
// lane its own process (pid) so the viewer shows them as parallel groups —
// client decrypt/skip/eval rows interleaved with server fetch rows on one
// shared time axis. Within a lane, spans of distinct trace IDs land on
// distinct thread rows.
func WriteChromeTraceLanes(w io.Writer, lanes []Lane) error {
	var events []chromeEvent
	for li, lane := range lanes {
		pid := li + 1
		if lane.Name != "" {
			events = append(events, chromeEvent{
				Name: "process_name",
				Ph:   "M",
				Pid:  pid,
				Args: map[string]any{"name": lane.Name},
			})
		}
		// Stable per-context rows: spans are grouped by the root span they
		// hang off (the span's own ID for roots, the parent link for
		// children), so concurrent evaluations do not interleave in one row
		// of the viewer, even under a shared trace ID.
		rows := map[string]int{}
		for _, s := range lane.Spans {
			rootID := s.SpanID
			if s.Parent != "" {
				rootID = s.Parent
			}
			rowKey := s.TraceID + "\x00" + rootID
			row, ok := rows[rowKey]
			if !ok {
				row = len(rows) + 1
				rows[rowKey] = row
			}
			args := map[string]any{}
			if s.TraceID != "" {
				args["trace_id"] = s.TraceID
			}
			if s.SpanID != "" {
				args["span_id"] = s.SpanID
			}
			if s.Parent != "" {
				args["parent"] = s.Parent
			}
			if s.Bytes != 0 {
				args["bytes"] = s.Bytes
			}
			if s.Chunks != 0 {
				args["chunks"] = s.Chunks
			}
			if s.Detail != "" {
				args["detail"] = s.Detail
			}
			events = append(events, chromeEvent{
				Name: s.Name,
				Ph:   "X",
				Ts:   float64(s.Start.UnixNano()) / 1e3,
				Dur:  float64(s.Dur.Nanoseconds()) / 1e3,
				Pid:  pid,
				Tid:  row,
				Args: args,
			})
		}
	}
	if events == nil {
		events = []chromeEvent{}
	}
	data, err := json.Marshal(events)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}
