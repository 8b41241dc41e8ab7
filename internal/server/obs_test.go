package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// newLoggedServer builds a test server whose access log lands in the returned
// buffer as JSON lines.
func newLoggedServer(t *testing.T, opts Options) (*Server, *httptest.Server, *lockedBuffer) {
	t.Helper()
	buf := &lockedBuffer{}
	opts.Logger = slog.New(slog.NewJSONHandler(buf, nil))
	srv := newServerOpts(t, opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, buf
}

// lockedBuffer makes the shared log buffer safe for the server's concurrent
// handler goroutines.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// drainClose reads a response body to EOF before closing it. The server
// writes the access-log line and records the request's spans after its
// handler returns, and only the end of the body proves that it has; a test
// that asserts on either without draining first races the handler.
func drainClose(t *testing.T, resp *http.Response) {
	t.Helper()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
}

func TestRequestIDGeneratedEchoedAndLogged(t *testing.T) {
	_, ts, buf := newLoggedServer(t, Options{})
	putDoc(t, ts, "hospital", hospitalXML(4))
	putPolicy(t, ts, "hospital", "secretary", `{"rules":[{"sign":"+","object":"//Admin"}]}`)

	// Generated ID: well-formed hex, echoed on the response.
	resp, _ := do(t, http.MethodGet, ts.URL+"/docs/hospital/view?subject=secretary", "")
	gen := resp.Header.Get("X-Request-Id")
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(gen) {
		t.Fatalf("generated request ID %q is not 16 hex digits", gen)
	}

	// Supplied well-formed ID: honored verbatim.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/docs/hospital/view?subject=secretary", nil)
	req.Header.Set("X-Request-Id", "my-trace.01")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	drainClose(t, resp2)
	if got := resp2.Header.Get("X-Request-Id"); got != "my-trace.01" {
		t.Fatalf("well-formed client ID not honored: got %q", got)
	}

	// Hostile ID (header injection shape): replaced, never echoed.
	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-Id", "bad id with spaces and \"quotes\"")
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if got := resp3.Header.Get("X-Request-Id"); strings.Contains(got, " ") || got == "" {
		t.Fatalf("hostile client ID must be replaced by a generated one, got %q", got)
	}

	// Every response's ID appears in exactly the access-log line describing
	// its request, alongside subject, status, bytes and duration.
	type line struct {
		Msg     string `json:"msg"`
		TraceID string `json:"trace_id"`
		Method  string `json:"method"`
		Path    string `json:"path"`
		Status  int    `json:"status"`
		Bytes   int64  `json:"bytes"`
		Subject string `json:"subject"`
	}
	var viewLine *line
	sc := bufio.NewScanner(strings.NewReader(buf.String()))
	for sc.Scan() {
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("access log line is not JSON: %v\n%s", err, sc.Text())
		}
		if l.TraceID == gen {
			viewLine = &l
		}
	}
	if viewLine == nil {
		t.Fatalf("no access-log line carries the response trace ID %s\nlog:\n%s", gen, buf.String())
	}
	if viewLine.Msg != "request" || viewLine.Method != http.MethodGet ||
		viewLine.Path != "/docs/hospital/view" || viewLine.Status != http.StatusOK ||
		viewLine.Subject != "secretary" || viewLine.Bytes <= 0 {
		t.Fatalf("access-log line incomplete: %+v", *viewLine)
	}
	if !strings.Contains(buf.String(), `"trace_id":"my-trace.01"`) {
		t.Fatal("honored client trace ID missing from the access log")
	}
}

func TestDebugTraceServesJSONLWithRequestIDs(t *testing.T) {
	_, ts, _ := newLoggedServer(t, Options{})
	putDoc(t, ts, "hospital", hospitalXML(4))
	putPolicy(t, ts, "hospital", "secretary", `{"rules":[{"sign":"+","object":"//Admin"}]}`)

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/docs/hospital/view?subject=secretary", nil)
	req.Header.Set("X-Request-Id", "trace-probe-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	drainClose(t, resp)

	resp2, body := do(t, http.MethodGet, ts.URL+"/debug/trace?n=64", "")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/trace: %d %s", resp2.StatusCode, body)
	}
	found := false
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		var span struct {
			TraceID string `json:"trace_id"`
			Name    string `json:"name"`
			DurNs   int64  `json:"dur_ns"`
		}
		if err := json.Unmarshal(sc.Bytes(), &span); err != nil {
			t.Fatalf("span line is not JSON: %v\n%s", err, sc.Text())
		}
		if span.TraceID == "trace-probe-1" && span.Name == "view:secretary" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no view span carries the request's trace ID; body:\n%s", body)
	}

	if resp, body := do(t, http.MethodGet, ts.URL+"/debug/trace?n=bogus", ""); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad n must 400, got %d %s", resp.StatusCode, body)
	}

	// With tracing disabled the endpoint reports not-found and views still work.
	_, tsOff, _ := newLoggedServer(t, Options{DisableTracing: true})
	putDoc(t, tsOff, "hospital", hospitalXML(2))
	putPolicy(t, tsOff, "hospital", "secretary", `{"rules":[{"sign":"+","object":"//Admin"}]}`)
	if resp, _ := do(t, http.MethodGet, tsOff.URL+"/docs/hospital/view?subject=secretary", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("untraced view: %d", resp.StatusCode)
	}
	if resp, _ := do(t, http.MethodGet, tsOff.URL+"/debug/trace", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("disabled tracing must 404 /debug/trace, got %d", resp.StatusCode)
	}
}

func TestPprofGatedBehindOption(t *testing.T) {
	_, tsOff := newTestServer(t)
	if resp, _ := do(t, http.MethodGet, tsOff.URL+"/debug/pprof/", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof must be absent by default, got %d", resp.StatusCode)
	}

	srv := newServerOpts(t, Options{EnablePprof: true})
	tsOn := httptest.NewServer(srv.Handler())
	defer tsOn.Close()
	resp, body := do(t, http.MethodGet, tsOn.URL+"/debug/pprof/cmdline", "")
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("pprof cmdline with EnablePprof: %d, %d bytes", resp.StatusCode, len(body))
	}
}

// promLine matches a Prometheus text-exposition sample line.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (-?[0-9.e+-]+|\+Inf|NaN)$`)

func TestPrometheusExpositionFormat(t *testing.T) {
	_, ts, _ := newLoggedServer(t, Options{})
	putDoc(t, ts, "hospital", hospitalXML(6))
	putPolicy(t, ts, "hospital", "secretary", `{"rules":[{"sign":"+","object":"//Admin"}]}`)
	for i := 0; i < 3; i++ {
		if resp, _ := do(t, http.MethodGet, ts.URL+"/docs/hospital/view?subject=secretary", ""); resp.StatusCode != http.StatusOK {
			t.Fatalf("view %d: %d", i, resp.StatusCode)
		}
	}

	resp, body := do(t, http.MethodGet, ts.URL+"/metrics.prom", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics.prom: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}

	// Line-format check: every line is a comment or a well-formed sample, and
	// every sample's metric family was announced by HELP and TYPE first.
	announced := map[string]bool{}
	samples := map[string]float64{}
	var order []string
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) < 4 {
				t.Fatalf("malformed comment line: %q", line)
			}
			announced[fields[2]] = true
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("malformed sample line: %q", line)
		}
		name := line[:strings.IndexAny(line, "{ ")]
		family := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if !announced[name] && !announced[family] {
			t.Fatalf("sample %q not announced by # HELP/# TYPE", line)
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("sample value unparseable in %q: %v", line, err)
		}
		samples[line[:strings.LastIndexByte(line, ' ')]] = v
		order = append(order, line)
	}

	// The counters the issue names must be present and sane.
	for _, want := range []string{
		"xmlac_requests_total", "xmlac_views_served_total", "xmlac_view_errors_total",
		"xmlac_documents", "xmlac_sessions", "xmlac_bytes_decrypted_total",
	} {
		if _, ok := samples[want]; !ok {
			t.Errorf("metric %s missing from exposition", want)
		}
	}
	if samples["xmlac_views_served_total"] < 3 {
		t.Errorf("views_served %v, want >= 3", samples["xmlac_views_served_total"])
	}

	// Histogram invariants: buckets cumulative and nondecreasing, +Inf equals
	// _count, and the view-latency histogram saw the three views.
	for _, h := range []string{"xmlac_view_duration_seconds", "xmlac_view_wire_bytes", "xmlac_view_workers"} {
		prev := -1.0
		inf := -1.0
		for _, line := range order {
			if !strings.HasPrefix(line, h+"_bucket{") {
				continue
			}
			v := samples[line[:strings.LastIndexByte(line, ' ')]]
			if v < prev {
				t.Errorf("%s buckets not cumulative: %q after %v", h, line, prev)
			}
			prev = v
			if strings.Contains(line, `le="+Inf"`) {
				inf = v
			}
		}
		count, ok := samples[h+"_count"]
		if !ok || inf < 0 {
			t.Fatalf("%s histogram incomplete (count present: %v, +Inf present: %v)", h, ok, inf >= 0)
		}
		if inf != count {
			t.Errorf("%s +Inf bucket %v != count %v", h, inf, count)
		}
	}
	if samples["xmlac_view_duration_seconds_count"] < 3 {
		t.Errorf("view duration histogram count %v, want >= 3", samples["xmlac_view_duration_seconds_count"])
	}
	if samples["xmlac_view_wire_bytes_sum"] <= 0 {
		t.Error("view wire-bytes histogram sum must be positive after served views")
	}
}

// traceLines parses a /debug/trace JSONL body into spans.
func traceLines(t *testing.T, body string) []struct {
	TraceID string `json:"trace_id"`
	SpanID  string `json:"span_id"`
	Parent  string `json:"parent"`
	Name    string `json:"name"`
	Seq     uint64 `json:"seq"`
} {
	t.Helper()
	var out []struct {
		TraceID string `json:"trace_id"`
		SpanID  string `json:"span_id"`
		Parent  string `json:"parent"`
		Name    string `json:"name"`
		Seq     uint64 `json:"seq"`
	}
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var s struct {
			TraceID string `json:"trace_id"`
			SpanID  string `json:"span_id"`
			Parent  string `json:"parent"`
			Name    string `json:"name"`
			Seq     uint64 `json:"seq"`
		}
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("span line is not JSON: %v\n%s", err, sc.Text())
		}
		out = append(out, s)
	}
	return out
}

// TestServerSpansRecordParentLinkage: a blob request carrying the
// trace-propagation headers is recorded as a server.fetch span under the
// client's trace ID with the client span as its parent; a hostile span
// header is dropped instead of reflected.
func TestServerSpansRecordParentLinkage(t *testing.T) {
	_, ts, _ := newLoggedServer(t, Options{})
	putDoc(t, ts, "hospital", hospitalXML(4))

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/docs/hospital/blob", nil)
	req.Header.Set("X-Request-Id", "link-probe")
	req.Header.Set("X-Xmlac-Span-Id", "aabbccdd00112233")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	drainClose(t, resp)

	resp2, body := do(t, http.MethodGet, ts.URL+"/debug/trace?id=link-probe", "")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/trace?id=: %d %s", resp2.StatusCode, body)
	}
	spans := traceLines(t, body)
	if len(spans) != 1 {
		t.Fatalf("id filter returned %d spans, want exactly the blob request's: %s", len(spans), body)
	}
	got := spans[0]
	if got.Name != "server.fetch" || got.TraceID != "link-probe" {
		t.Fatalf("span is %+v, want server.fetch under link-probe", got)
	}
	if got.Parent != "aabbccdd00112233" {
		t.Fatalf("server span parent %q, want the client span ID", got.Parent)
	}
	if got.SpanID == "" || got.Seq == 0 {
		t.Fatalf("server span misses its own identity: %+v", got)
	}

	// Hostile span header: the span is recorded without parent linkage.
	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/docs/hospital/blob", nil)
	req.Header.Set("X-Request-Id", "hostile-parent")
	req.Header.Set("X-Xmlac-Span-Id", "bad span \"quoted\" with spaces")
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	drainClose(t, resp3)
	_, body = do(t, http.MethodGet, ts.URL+"/debug/trace?id=hostile-parent", "")
	spans = traceLines(t, body)
	if len(spans) != 1 || spans[0].Parent != "" {
		t.Fatalf("hostile span header must be dropped, got %+v", spans)
	}
}

// TestDebugTraceSinceFilter: ?since=SEQ returns only spans recorded after
// that sequence number, so pollers resume where they left off.
func TestDebugTraceSinceFilter(t *testing.T) {
	_, ts, _ := newLoggedServer(t, Options{})
	putDoc(t, ts, "hospital", hospitalXML(4))
	putPolicy(t, ts, "hospital", "secretary", `{"rules":[{"sign":"+","object":"//Admin"}]}`)

	if resp, _ := do(t, http.MethodGet, ts.URL+"/docs/hospital/view?subject=secretary", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("view: %d", resp.StatusCode)
	}
	_, body := do(t, http.MethodGet, ts.URL+"/debug/trace", "")
	var mark uint64
	for _, s := range traceLines(t, body) {
		if s.Seq > mark {
			mark = s.Seq
		}
	}
	if mark == 0 {
		t.Fatalf("no spans after a view; body:\n%s", body)
	}

	// Nothing new yet: the filter returns no spans.
	_, body = do(t, http.MethodGet, ts.URL+"/debug/trace?since="+strconv.FormatUint(mark, 10), "")
	if spans := traceLines(t, body); len(spans) != 0 {
		t.Fatalf("since=%d returned stale spans: %+v", mark, spans)
	}

	if resp, _ := do(t, http.MethodGet, ts.URL+"/docs/hospital/view?subject=secretary", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("second view: %d", resp.StatusCode)
	}
	_, body = do(t, http.MethodGet, ts.URL+"/debug/trace?since="+strconv.FormatUint(mark, 10), "")
	spans := traceLines(t, body)
	if len(spans) == 0 {
		t.Fatal("since filter dropped the spans of the second view")
	}
	for _, s := range spans {
		if s.Seq <= mark {
			t.Fatalf("span %+v predates since=%d", s, mark)
		}
	}

	if resp, _ := do(t, http.MethodGet, ts.URL+"/debug/trace?since=-3", ""); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad since must 400, got %d", resp.StatusCode)
	}
}
