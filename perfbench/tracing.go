package main

import (
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"xmlac"
)

// tracePrefix starts the trace ID of every traced operation, which is how
// the server middleware tells the requests of traced operations apart.
const tracePrefix = "bench-"

// requestIDHeader carries a trace ID to the server (internal/remote sets it
// on the requests of a traced view; the bench sets it on the rest).
const requestIDHeader = "X-Request-Id"

// tracer is the instrumentation of a traced run (--trace 1). Every other
// operation of each client is traced: its view records phase times and
// spans into soe, its remote client counts requests, and the server
// middleware times the handlers of its requests. The untraced operations in
// between measure the same workload with tracing off, so the two halves give
// the tracing overhead. A nil *tracer is an untraced run.
type tracer struct {
	soe   *xmlac.Trace // client SOE spans
	bench *xmlac.Trace // one span per traced operation
	// busyNs is the handler time of traced operations' requests.
	busyNs atomic.Int64
}

func newTracer() *tracer {
	return &tracer{soe: xmlac.NewTrace(8192), bench: xmlac.NewTrace(4096)}
}

// begin marks every other operation of c as traced, giving it a trace ID,
// and returns the view options it runs with.
func (tr *tracer) begin(c *client, s *sample) xmlac.ViewOptions {
	if tr == nil || c.n%2 == 0 {
		return xmlac.ViewOptions{}
	}
	s.id = fmt.Sprintf("%s%s-%d", tracePrefix, c.name, c.n)
	return xmlac.ViewOptions{Trace: tr.soe, TraceID: s.id}
}

// finish records a traced operation's span and reads the page-cache counts
// its view's root span carries.
func (tr *tracer) finish(s *sample) {
	if tr == nil || s.id == "" {
		return
	}
	tr.bench.RecordSpan(xmlac.TraceSpan{
		TraceID: s.id,
		SpanID:  xmlac.NewTraceID(),
		Name:    "bench." + s.kind.String(),
		Start:   s.start,
		Dur:     s.end.Sub(s.start),
		Bytes:   s.got.n,
	})
	for _, sp := range tr.soe.Spans(xmlac.TraceFilter{TraceID: s.id}) {
		if sp.SpanID != "" && strings.HasPrefix(sp.Name, "view:") && sp.Detail != "" {
			var hits, misses int64
			if _, err := fmt.Sscanf(sp.Detail, "page_hits=%d page_misses=%d", &hits, &misses); err == nil {
				s.pageHits += hits
				s.pageMisses += misses
			}
		}
	}
}

// middleware times the server handlers of traced operations' requests.
func (tr *tracer) middleware(h http.Handler) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.Header.Get(requestIDHeader), tracePrefix) {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		tr.busyNs.Add(time.Since(start).Nanoseconds())
	})
}

// requestCounts counts a remote client's requests by what they fetch.
type requestCounts struct {
	ranges, hashes, deltas int64
}

func (a requestCounts) sub(b requestCounts) requestCounts {
	return requestCounts{a.ranges - b.ranges, a.hashes - b.hashes, a.deltas - b.deltas}
}

// countingTransport counts the requests of a remote client's traced
// operations and stamps their trace ID on the requests internal/remote sends
// without one (Revalidate's probe). It is used from its client's goroutine
// only: http.Client calls RoundTrip on the caller's goroutine.
type countingTransport struct {
	base http.RoundTripper
	// id is the trace ID of the traced operation in flight, "" otherwise.
	id     string
	counts requestCounts
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.id == "" {
		return t.base.RoundTrip(req)
	}
	path := req.URL.Path
	switch {
	case strings.HasSuffix(path, "/hashes"):
		t.counts.hashes++
	case strings.HasSuffix(path, "/delta"):
		t.counts.deltas++
	case strings.HasSuffix(path, "/blob") && req.Header.Get("Range") != "bytes=0-0":
		// A one-byte range is Revalidate's probe, not a ciphertext fetch.
		t.counts.ranges++
	}
	if req.Header.Get(requestIDHeader) == "" {
		req = req.Clone(req.Context())
		req.Header.Set(requestIDHeader, t.id)
	}
	return t.base.RoundTrip(req)
}

// newHTTPClient returns a remote client's own HTTP client: one keep-alive
// connection, reused for every request the client issues. In a traced run
// its transport counts requests.
func newHTTPClient(tr *tracer) (*http.Client, *countingTransport) {
	base := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	if tr == nil {
		return &http.Client{Transport: base}, nil
	}
	ct := &countingTransport{base: base}
	return &http.Client{Transport: ct}, ct
}

// writeChromeTrace writes the traced operations as a Chrome trace with one
// lane each for the benchmark's operations, the client SOE and the
// untrusted server.
func (tr *tracer) writeChromeTrace(path string, server []xmlac.TraceSpan) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var traced []xmlac.TraceSpan
	for _, sp := range server {
		if strings.HasPrefix(sp.TraceID, tracePrefix) {
			traced = append(traced, sp)
		}
	}
	err = xmlac.WriteMergedChromeTrace(f,
		xmlac.TraceLane{Name: "bench", Spans: tr.bench.Spans(xmlac.TraceFilter{})},
		xmlac.TraceLane{Name: "client SOE", Spans: tr.soe.Spans(xmlac.TraceFilter{})},
		xmlac.TraceLane{Name: "untrusted server", Spans: traced},
	)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
