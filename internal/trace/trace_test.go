package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestPhaseStrings(t *testing.T) {
	seen := map[string]bool{}
	for p := Phase(0); p < NumPhases; p++ {
		s := p.String()
		if s == "" || strings.Contains(s, "(") {
			t.Fatalf("phase %d has no name: %q", p, s)
		}
		if seen[s] {
			t.Fatalf("duplicate phase name %q", s)
		}
		seen[s] = true
	}
	if got := Phase(99).String(); got != "phase(99)" {
		t.Fatalf("out-of-range phase name = %q", got)
	}
}

// TestNilContextSafe pins the contract the whole pipeline relies on when
// tracing is disabled: every method no-ops on a nil *Context.
func TestNilContextSafe(t *testing.T) {
	var c *Context
	c.Enter(c.Enter(PhaseDecrypt))
	c.CountPageHits(3)
	c.CountPageMisses(4)
	if h, m := c.PageStats(); h != 0 || m != 0 {
		t.Fatalf("nil PageStats = %d,%d", h, m)
	}
	if !c.Now().IsZero() {
		t.Fatal("nil Now should be zero")
	}
	c.Record("x", time.Now(), 1, 2, "")
	if c.Finish("x", 0) != 0 {
		t.Fatal("nil Finish should return 0")
	}
	if c.Phases() != ([NumPhases]int64{}) {
		t.Fatal("nil Phases should be zero")
	}
	if c.ID() != "" {
		t.Fatal("nil ID should be empty")
	}
}

// TestExclusivePhaseAccounting checks the core invariant behind the
// PhaseBreakdown acceptance bound: nested phases never double-count, and
// the per-phase exclusive times sum to the instrumented wall time. Each
// phase is entered with the idiom every caller uses, so the deferred
// restores unwind the nesting.
func TestExclusivePhaseAccounting(t *testing.T) {
	c := New(nil, "t")
	sleep := func(p Phase, inner func()) {
		defer c.Enter(c.Enter(p))
		time.Sleep(2 * time.Millisecond)
		if inner != nil {
			inner()
			time.Sleep(2 * time.Millisecond)
		}
	}
	start := time.Now()
	sleep(PhaseDecode, func() { // decode pauses while decrypt runs
		sleep(PhaseDecrypt, func() { sleep(PhaseFetch, nil) }) // doubly nested
	})
	elapsed := time.Since(start)

	ph := c.Phases()
	for _, p := range []Phase{PhaseDecode, PhaseDecrypt, PhaseFetch} {
		if ph[p] <= 0 {
			t.Fatalf("phase %v got no time: %v", p, ph)
		}
	}
	var sum int64
	for _, ns := range ph {
		sum += ns
	}
	if sum > elapsed.Nanoseconds() {
		t.Fatalf("phase sum %d exceeds elapsed %d: double counting", sum, elapsed.Nanoseconds())
	}
	// Everything between the first switch and the last restore was inside
	// some phase, so the sum must cover the bulk of the elapsed window.
	if sum < elapsed.Nanoseconds()/2 {
		t.Fatalf("phase sum %d under half of elapsed %d: time lost", sum, elapsed.Nanoseconds())
	}
	// Decode's exclusive time excludes the nested decrypt+fetch window.
	if ph[PhaseDecode] >= elapsed.Nanoseconds() {
		t.Fatalf("decode time %d not exclusive of nested phases (elapsed %d)", ph[PhaseDecode], elapsed)
	}
	// The outermost restore leaves no phase current: later time is charged
	// to none.
	before := c.Phases()
	time.Sleep(time.Millisecond)
	c.Enter(PhaseEval)
	if c.Phases() != before {
		t.Fatalf("time outside every phase was charged: %v -> %v", before, c.Phases())
	}
}

func TestRecorderRing(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 10; i++ {
		r.RecordSpan(Span{Name: string(rune('a' + i)), Start: time.Now()})
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if r.Total() != 10 {
		t.Fatalf("Total = %d, want 10", r.Total())
	}
	last := r.Spans(Filter{N: 2})
	if len(last) != 2 || last[0].Name != "i" || last[1].Name != "j" {
		t.Fatalf("newest 2 = %+v, want [i j]", last)
	}
	all := r.Spans(Filter{})
	if len(all) != 4 || all[0].Name != "g" || all[3].Name != "j" {
		t.Fatalf("all = %+v, want [g h i j]", all)
	}
	if got := r.Spans(Filter{N: 99}); len(got) != 4 {
		t.Fatalf("newest 99 returned %d spans", len(got))
	}
}

func TestContextFinishRecordsSpans(t *testing.T) {
	rec := NewRecorder(16)
	c := New(rec, "req-1")
	func() {
		defer c.Enter(c.Enter(PhaseEval))
		time.Sleep(time.Millisecond)
	}()
	c.CountPageHits(5)
	c.CountPageMisses(2)
	start := c.Now()
	time.Sleep(time.Millisecond)
	c.Record("remote.fetch", start, 1234, 3, "pages=3")
	total := c.Finish("view:doctor", 4096)
	if total <= 0 {
		t.Fatal("Finish returned non-positive total")
	}
	spans := rec.Spans(Filter{})
	var names []string
	for _, s := range spans {
		names = append(names, s.Name)
		if s.TraceID != "req-1" {
			t.Fatalf("span %q has trace ID %q", s.Name, s.TraceID)
		}
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"remote.fetch", "phase:eval", "view:doctor"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("missing span %q in %v", want, names)
		}
	}
	root := spans[len(spans)-1]
	if root.Name != "view:doctor" || root.Bytes != 4096 {
		t.Fatalf("root span = %+v", root)
	}
	if !strings.Contains(root.Detail, "page_hits=5") || !strings.Contains(root.Detail, "page_misses=2") {
		t.Fatalf("root detail = %q", root.Detail)
	}
}

func TestWriteJSONL(t *testing.T) {
	rec := NewRecorder(8)
	rec.RecordSpan(Span{TraceID: "a", Name: "one", Start: time.Now(), Dur: time.Millisecond, Bytes: 7})
	rec.RecordSpan(Span{TraceID: "b", Name: "two", Start: time.Now(), Dur: 2 * time.Millisecond})
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf, Filter{}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines: %q", len(lines), buf.String())
	}
	for _, line := range lines {
		var s Span
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		if s.Name == "" {
			t.Fatalf("span without name: %q", line)
		}
	}
	buf.Reset()
	if err := rec.WriteJSONL(&buf, Filter{N: 1}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"two"`) || strings.Contains(buf.String(), `"one"`) {
		t.Fatalf("WriteJSONL(N: 1) = %q, want only newest span", buf.String())
	}
	buf.Reset()
	if err := rec.WriteJSONL(&buf, Filter{TraceID: "a"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"one"`) || strings.Contains(buf.String(), `"two"`) {
		t.Fatalf("WriteJSONL(TraceID: a) = %q, want only trace a", buf.String())
	}
}

func TestWriteChromeTrace(t *testing.T) {
	rec := NewRecorder(8)
	rec.RecordSpan(Span{TraceID: "a", Name: "one", Start: time.Now(), Dur: time.Millisecond, Bytes: 9, Detail: "d"})
	rec.RecordSpan(Span{TraceID: "b", Name: "two", Start: time.Now(), Dur: time.Millisecond})
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("chrome trace is not a JSON array: %v", err)
	}
	if len(events) != 2 {
		t.Fatalf("got %d events", len(events))
	}
	lanes := map[float64]bool{}
	for _, ev := range events {
		if ev["ph"] != "X" {
			t.Fatalf("event ph = %v, want X", ev["ph"])
		}
		if _, ok := ev["ts"].(float64); !ok {
			t.Fatalf("event ts missing: %v", ev)
		}
		lanes[ev["tid"].(float64)] = true
	}
	if len(lanes) != 2 {
		t.Fatalf("distinct traces should land on distinct lanes, got %v", lanes)
	}
}

// TestRecorderSeqAndFilters pins the polling contract of GET /debug/trace:
// sequence numbers are monotonic from 1, ?id= keeps one trace, ?since=
// resumes strictly after a seq, and the filters compose with the newest-N
// cap.
func TestRecorderSeqAndFilters(t *testing.T) {
	r := NewRecorder(8)
	for i := 0; i < 6; i++ {
		id := "a"
		if i%2 == 1 {
			id = "b"
		}
		r.RecordSpan(Span{TraceID: id, Name: string(rune('0' + i)), Start: time.Now()})
	}
	all := r.Spans(Filter{})
	if len(all) != 6 {
		t.Fatalf("got %d spans", len(all))
	}
	for i, s := range all {
		if s.Seq != uint64(i+1) {
			t.Fatalf("span %d has seq %d, want %d", i, s.Seq, i+1)
		}
	}
	onlyA := r.Spans(Filter{TraceID: "a"})
	if len(onlyA) != 3 {
		t.Fatalf("trace-a spans = %d, want 3", len(onlyA))
	}
	for _, s := range onlyA {
		if s.TraceID != "a" {
			t.Fatalf("filter leaked %+v", s)
		}
	}
	since := r.Spans(Filter{Since: 4})
	if len(since) != 2 || since[0].Seq != 5 || since[1].Seq != 6 {
		t.Fatalf("since=4 spans = %+v", since)
	}
	newest := r.Spans(Filter{TraceID: "a", N: 1})
	if len(newest) != 1 || newest[0].Name != "4" {
		t.Fatalf("newest-a = %+v", newest)
	}
	// Eviction keeps sequence numbers stable: after wrapping, the oldest
	// retained span's seq reflects how many were dropped.
	for i := 6; i < 12; i++ {
		r.RecordSpan(Span{TraceID: "a", Name: "late", Start: time.Now()})
	}
	wrapped := r.Spans(Filter{})
	if len(wrapped) != 8 || wrapped[0].Seq != 5 {
		t.Fatalf("after wrap: %d spans, first seq %d", len(wrapped), wrapped[0].Seq)
	}
}

// TestContextSpanLinkage pins the parent linkage the merged traces rely on:
// child spans (fetches, phase aggregates) carry the context's span ID as
// parent, and the root span carries it as its own ID.
func TestContextSpanLinkage(t *testing.T) {
	rec := NewRecorder(16)
	c := New(rec, "req-9")
	if c.SpanID() == "" {
		t.Fatal("context has no span ID")
	}
	func() {
		defer c.Enter(c.Enter(PhaseEval))
		time.Sleep(time.Millisecond)
	}()
	start := c.Now()
	c.Record("remote.fetch", start, 10, 1, "")
	c.Finish("view:x", 99)
	var root, fetch, phase *Span
	spans := rec.Spans(Filter{})
	for i := range spans {
		switch spans[i].Name {
		case "view:x":
			root = &spans[i]
		case "remote.fetch":
			fetch = &spans[i]
		case "phase:eval":
			phase = &spans[i]
		}
	}
	if root == nil || fetch == nil || phase == nil {
		t.Fatalf("missing spans: %+v", spans)
	}
	if root.SpanID != c.SpanID() {
		t.Fatalf("root span ID %q, want %q", root.SpanID, c.SpanID())
	}
	if fetch.Parent != c.SpanID() || phase.Parent != c.SpanID() {
		t.Fatalf("children not linked to root: fetch %q phase %q", fetch.Parent, phase.Parent)
	}
}

// TestWriteChromeTraceLanes pins the merged-export shape: one named process
// per lane, spans on the lane's pid, metadata announcing the process name,
// and within a lane one row per root span, so two views sharing a trace ID
// render side by side while a child joins its root's row.
func TestWriteChromeTraceLanes(t *testing.T) {
	var buf bytes.Buffer
	now := time.Now()
	err := WriteChromeTraceLanes(&buf, []Lane{
		{Name: "client SOE", Spans: []Span{
			{TraceID: "t1", SpanID: "v1", Name: "view:a", Start: now, Dur: time.Millisecond},
			{TraceID: "t1", SpanID: "v2", Name: "view:b", Start: now, Dur: time.Millisecond},
			{TraceID: "t1", Parent: "v1", Name: "phase:eval", Start: now, Dur: time.Millisecond},
		}},
		{Name: "untrusted server", Spans: []Span{{TraceID: "t1", Name: "server.fetch", Parent: "abc", Start: now, Dur: time.Millisecond}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("not a JSON array: %v", err)
	}
	names := map[string]float64{} // process name -> pid
	rows := map[string]float64{}  // client span name -> tid
	var evalPid, fetchPid float64
	for _, ev := range events {
		switch {
		case ev["ph"] == "M" && ev["name"] == "process_name":
			names[ev["args"].(map[string]any)["name"].(string)] = ev["pid"].(float64)
		case ev["name"] == "view:a" || ev["name"] == "view:b":
			rows[ev["name"].(string)] = ev["tid"].(float64)
		case ev["name"] == "phase:eval":
			evalPid = ev["pid"].(float64)
			rows["phase:eval"] = ev["tid"].(float64)
		case ev["name"] == "server.fetch":
			fetchPid = ev["pid"].(float64)
			if ev["args"].(map[string]any)["parent"] != "abc" {
				t.Fatalf("server span lost its parent: %v", ev)
			}
		}
	}
	if names["client SOE"] != evalPid || names["untrusted server"] != fetchPid || evalPid == fetchPid {
		t.Fatalf("lane/process mapping wrong: names=%v eval=%v fetch=%v", names, evalPid, fetchPid)
	}
	if rows["view:a"] == rows["view:b"] || rows["phase:eval"] != rows["view:a"] {
		t.Fatalf("rows per root span wrong: %v", rows)
	}
}

func TestRecorderDefaultsAndNil(t *testing.T) {
	r := NewRecorder(0)
	if len(r.buf) != DefaultRecorderCapacity {
		t.Fatalf("default capacity = %d", len(r.buf))
	}
	var nilRec *Recorder
	nilRec.RecordSpan(Span{Name: "x"})
	if nilRec.Len() != 0 || nilRec.Total() != 0 || nilRec.Spans(Filter{N: 3}) != nil {
		t.Fatal("nil recorder should be inert")
	}
}
