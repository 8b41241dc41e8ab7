package server

import (
	"log/slog"
	"net/http"
	"strconv"
	"strings"

	"xmlac"
	"xmlac/internal/trace"
)

// Request-scoped observability: every request gets a trace ID — honored from
// a well-formed X-Request-Id header or generated — that is echoed in the
// response, stamped on the request's span in GET /debug/trace (so a remote
// client's trace and the access log correlate with it) and logged in the
// structured access line the middleware emits after the handler returns. A
// well-formed X-Xmlac-Span-Id names the client evaluation that caused the
// request; the request's span records it as its parent, so the client's
// merged Chrome trace links store fetches under the evaluation they served.

// validRequestID accepts client-supplied IDs that are safe to echo and log:
// 1-64 characters of [A-Za-z0-9_.-]. Anything else is replaced by a
// generated ID instead of being reflected into headers and logs.
func validRequestID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}

// statusWriter captures the response status and body size for the access log
// while passing writes through.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	n, err := sw.ResponseWriter.Write(p)
	sw.bytes += int64(n)
	return n, err
}

// observe is the outermost middleware: it counts the request, assigns the
// trace ID, echoes it, and emits one structured access-log line when the
// handler returns.
func (s *Server) observe(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		id := r.Header.Get(trace.RequestIDHeader)
		if !validRequestID(id) {
			id = trace.NewSpanID()
		}
		w.Header().Set(trace.RequestIDHeader, id)
		sw := &statusWriter{ResponseWriter: w}
		// The injected clock times the request (not time.Now directly), so the
		// access-log duration is deterministic under the fake clock in tests.
		start := s.opts.clock.Now()
		next.ServeHTTP(sw, r)
		elapsed := s.opts.clock.Now().Sub(start)
		status := sw.status
		if status == 0 {
			status = http.StatusOK // handler returned without writing anything
		}
		if name := serverSpanName(r.URL.Path); name != "" && s.trace != nil {
			span := xmlac.TraceSpan{
				TraceID: id,
				SpanID:  trace.NewSpanID(),
				Name:    name,
				Start:   start,
				Dur:     elapsed,
				Bytes:   sw.bytes,
				Detail:  r.Method + " " + r.URL.Path + " -> " + strconv.Itoa(status),
			}
			// A well-formed client span header makes this span a child of the
			// evaluation that issued the request; anything else stays unlinked
			// rather than reflecting hostile bytes into the export.
			if parent := r.Header.Get(trace.SpanIDHeader); validRequestID(parent) {
				span.Parent = parent
			}
			s.trace.RecordSpan(span)
		}
		s.logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.String("trace_id", id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", status),
			slog.Int64("bytes", sw.bytes),
			slog.Duration("duration", elapsed))
	})
}

// serverSpanName maps a request path to the span name recorded in the trace
// ring, or "" for surfaces that would only flood the ring (metric scrapes,
// debug endpoints, health checks, registrations).
func serverSpanName(path string) string {
	switch {
	case strings.HasSuffix(path, "/blob"):
		return "server.fetch"
	case strings.HasSuffix(path, "/manifest"):
		return "server.manifest"
	case strings.HasSuffix(path, "/hashes"):
		return "server.hash-fetch"
	}
	return ""
}

// handleDebugTrace serves retained spans of the server's trace ring as JSONL,
// oldest first. Query parameters:
//
//	n=N        keep only the newest N matching spans (absent or 0: all)
//	id=T       keep only spans of trace ID T (an X-Request-Id value) — how a
//	           remote client fetches the server-side half of its own trace
//	           for a merged view
//	since=S    keep only spans recorded after sequence number S (every span
//	           carries its "seq", so pollers resume where they left off)
//
// The filters combine; the newest-N cap applies after the id/since matches.
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	if s.trace == nil {
		httpError(w, http.StatusNotFound, "tracing is disabled on this server")
		return
	}
	q := r.URL.Query()
	var f xmlac.TraceFilter
	if raw := q.Get("n"); raw != "" {
		parsed, err := strconv.Atoi(raw)
		if err != nil || parsed < 0 {
			httpError(w, http.StatusBadRequest, "invalid %q query parameter: %q", "n", raw)
			return
		}
		f.N = parsed
	}
	if raw := q.Get("since"); raw != "" {
		parsed, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "invalid %q query parameter: %q", "since", raw)
			return
		}
		f.Since = parsed
	}
	f.TraceID = q.Get("id")
	w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	s.trace.WriteJSONL(w, f)
}
