package xmlac

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"

	itrace "xmlac/internal/trace"
)

// Trace is a bounded recorder of evaluation spans. One Trace is attached to
// any number of evaluations via ViewOptions.Trace (it is safe for concurrent
// use — a server keeps one per process); each traced evaluation records its
// phase aggregates and remote-fetch spans into the ring, newest spans
// evicting the oldest. Attaching a Trace also turns on the per-phase timers
// that fill Metrics.PhaseBreakdown. Every method is safe on a nil *Trace.
type Trace = itrace.Recorder

// NewTrace builds a Trace retaining up to capacity spans (capacity <= 0
// selects an internal default of a few hundred).
func NewTrace(capacity int) *Trace {
	return itrace.NewRecorder(capacity)
}

// NewTraceID returns a fresh random trace ID (16 hex characters) fit for
// ViewOptions.TraceID and for the X-Request-Id header: a remote client that
// evaluates under a NewTraceID can fetch the server's side of the same
// operation from GET /debug/trace?id= afterwards and merge the two span sets.
func NewTraceID() string {
	return itrace.NewSpanID()
}

// TraceSpan is one completed, timed unit of work retained by a Trace: trace
// and span identity (TraceID groups one logical operation across trust
// domains; Parent links a span under the evaluation that caused it), timing,
// byte/chunk attributes and the recorder-assigned sequence number.
type TraceSpan = itrace.Span

// TraceFilter selects a subset of a Trace's retained spans: by trace ID, by
// sequence number (spans recorded after Since), or the newest N.
type TraceFilter = itrace.Filter

// ParseTraceJSONL parses spans in the JSONL form written by WriteJSONL (and
// served by GET /debug/trace), one JSON object per line, blank lines
// ignored. This is how a client reads back the server-side spans of its own
// trace before merging them into one Chrome trace.
func ParseTraceJSONL(r io.Reader) ([]TraceSpan, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var out []TraceSpan
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var s TraceSpan
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, fmt.Errorf("xmlac: trace JSONL line %d: %w", line, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("xmlac: reading trace JSONL: %w", err)
	}
	return out, nil
}

// TraceLane is one named process row of a merged Chrome trace: the span set
// of one side of the trust boundary ("client SOE", "untrusted server").
type TraceLane = itrace.Lane

// WriteMergedChromeTrace writes several span sets as one Chrome trace-event
// JSON array, each lane rendered as its own named process on a shared time
// axis. A remote client passes its own spans as one lane and the server's
// /debug/trace?id= spans as another, making a wire stall (a long server
// fetch span under an idle client gap) visually distinguishable from a
// decrypt stall (client phase time with the server idle).
func WriteMergedChromeTrace(w io.Writer, lanes ...TraceLane) error {
	return itrace.WriteChromeTraceLanes(w, lanes)
}

// PhaseBreakdown is the per-phase decomposition of one evaluation's wall
// time, in exclusive nanoseconds: time spent in a nested phase (a remote
// fetch issued while decrypting, a decrypt issued while decoding) is charged
// to the innermost phase only, so the phase sum tracks Metrics.Duration
// instead of double-counting. It is populated only when ViewOptions.Trace is
// set.
type PhaseBreakdown struct {
	// DecryptNs is ciphertext decryption inside the SOE.
	DecryptNs int64
	// VerifyNs is integrity verification (digest comparison, Merkle root
	// recomputation, CBC chunk hashing).
	VerifyNs int64
	// HashFetchNs is the transfer of Merkle fragment hashes from the
	// untrusted terminal (ECB-MHT).
	HashFetchNs int64
	// DecodeNs is Skip-index decoding (element meta parsing, event
	// production).
	DecodeNs int64
	// SkipNs is the execution of Skip-index subtree jumps.
	SkipNs int64
	// EvalNs is access-rule automata evaluation.
	EvalNs int64
	// EmitNs is view delivery (serialization or tree building).
	EmitNs int64
	// FetchNs is remote HTTP transfer (range requests, manifest and hash
	// fetches); 0 for local evaluations.
	FetchNs int64
	// ResyncNs is version re-synchronization after a remote update; 0 when
	// no re-sync happened.
	ResyncNs int64
}

// Add folds another breakdown into this one, field by field, for a report
// that sums the breakdowns of many views.
func (b *PhaseBreakdown) Add(o *PhaseBreakdown) {
	b.DecryptNs += o.DecryptNs
	b.VerifyNs += o.VerifyNs
	b.HashFetchNs += o.HashFetchNs
	b.DecodeNs += o.DecodeNs
	b.SkipNs += o.SkipNs
	b.EvalNs += o.EvalNs
	b.EmitNs += o.EmitNs
	b.FetchNs += o.FetchNs
	b.ResyncNs += o.ResyncNs
}

// Sum returns the total time attributed to any phase.
func (b PhaseBreakdown) Sum() time.Duration {
	return time.Duration(b.DecryptNs + b.VerifyNs + b.HashFetchNs + b.DecodeNs +
		b.SkipNs + b.EvalNs + b.EmitNs + b.FetchNs + b.ResyncNs)
}

// breakdownFromPhases converts the internal per-phase array.
func breakdownFromPhases(ph [itrace.NumPhases]int64) PhaseBreakdown {
	return PhaseBreakdown{
		DecryptNs:   ph[itrace.PhaseDecrypt],
		VerifyNs:    ph[itrace.PhaseVerify],
		HashFetchNs: ph[itrace.PhaseHashFetch],
		DecodeNs:    ph[itrace.PhaseDecode],
		SkipNs:      ph[itrace.PhaseSkip],
		EvalNs:      ph[itrace.PhaseEval],
		EmitNs:      ph[itrace.PhaseEmit],
		FetchNs:     ph[itrace.PhaseFetch],
		ResyncNs:    ph[itrace.PhaseResync],
	}
}
