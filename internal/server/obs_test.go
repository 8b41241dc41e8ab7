package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
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

	// Generated ID: well-formed hex, echoed on the response.
	resp, _ := do(t, http.MethodGet, ts.URL+"/docs/hospital/blob", "")
	gen := resp.Header.Get("X-Request-Id")
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(gen) {
		t.Fatalf("generated request ID %q is not 16 hex digits", gen)
	}

	// Supplied well-formed ID: honored verbatim.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/docs/hospital/blob", nil)
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
	// its request, alongside status, bytes and duration.
	type line struct {
		Msg     string `json:"msg"`
		TraceID string `json:"trace_id"`
		Method  string `json:"method"`
		Path    string `json:"path"`
		Status  int    `json:"status"`
		Bytes   int64  `json:"bytes"`
	}
	var blobLine *line
	sc := bufio.NewScanner(strings.NewReader(buf.String()))
	for sc.Scan() {
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("access log line is not JSON: %v\n%s", err, sc.Text())
		}
		if l.TraceID == gen {
			blobLine = &l
		}
	}
	if blobLine == nil {
		t.Fatalf("no access-log line carries the response trace ID %s\nlog:\n%s", gen, buf.String())
	}
	if blobLine.Msg != "request" || blobLine.Method != http.MethodGet ||
		blobLine.Path != "/docs/hospital/blob" || blobLine.Status != http.StatusOK || blobLine.Bytes <= 0 {
		t.Fatalf("access-log line incomplete: %+v", *blobLine)
	}
	if !strings.Contains(buf.String(), `"trace_id":"my-trace.01"`) {
		t.Fatal("honored client trace ID missing from the access log")
	}
}

func TestDebugTraceServesJSONLWithRequestIDs(t *testing.T) {
	_, ts, _ := newLoggedServer(t, Options{})
	putDoc(t, ts, "hospital", hospitalXML(4))

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/docs/hospital/blob", nil)
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
		if span.TraceID == "trace-probe-1" && span.Name == "server.fetch" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no server.fetch span carries the request's trace ID; body:\n%s", body)
	}

	if resp, body := do(t, http.MethodGet, ts.URL+"/debug/trace?n=bogus", ""); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad n must 400, got %d %s", resp.StatusCode, body)
	}

	// With tracing disabled the endpoint reports not-found and the blob
	// surface still works.
	_, tsOff, _ := newLoggedServer(t, Options{TraceBufferSize: -1})
	putDoc(t, tsOff, "hospital", hospitalXML(2))
	if resp, _ := do(t, http.MethodGet, tsOff.URL+"/docs/hospital/blob", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("untraced blob fetch: %d", resp.StatusCode)
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
	for i := 0; i < 3; i++ {
		if status, _, body := patchDoc(t, ts, "hospital",
			fmt.Sprintf(`{"op":"set-text","path":"/Hospital/Folder[1]/Admin/Fname","text":"v%d"}`, i)); status != http.StatusOK {
			t.Fatalf("PATCH %d: %d %s", i, status, body)
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
		if name := line[:strings.IndexAny(line, "{ ")]; !announced[name] {
			t.Fatalf("sample %q not announced by # HELP/# TYPE", line)
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("sample value unparseable in %q: %v", line, err)
		}
		samples[line[:strings.LastIndexByte(line, ' ')]] = v
		order = append(order, line)
	}

	// The store's counters are present and sane.
	for _, want := range []string{
		"xmlac_requests_total", "xmlac_documents", "xmlac_updates_applied_total",
		"xmlac_storage_fsyncs_total", `xmlac_build_info{go_version="` + runtime.Version() + `"}`,
	} {
		if _, ok := samples[want]; !ok {
			t.Errorf("metric %s missing from exposition", want)
		}
	}
	if samples["xmlac_updates_applied_total"] != 3 || samples["xmlac_documents"] != 1 {
		t.Errorf("updates applied %v, documents %v, want 3 and 1",
			samples["xmlac_updates_applied_total"], samples["xmlac_documents"])
	}
	if len(order) != len(announced) {
		t.Errorf("%d samples for %d announced families: every family is one sample", len(order), len(announced))
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

	if resp, _ := do(t, http.MethodGet, ts.URL+"/docs/hospital/blob", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("blob: %d", resp.StatusCode)
	}
	_, body := do(t, http.MethodGet, ts.URL+"/debug/trace", "")
	var mark uint64
	for _, s := range traceLines(t, body) {
		if s.Seq > mark {
			mark = s.Seq
		}
	}
	if mark == 0 {
		t.Fatalf("no spans after a blob fetch; body:\n%s", body)
	}

	// Nothing new yet: the filter returns no spans.
	_, body = do(t, http.MethodGet, ts.URL+"/debug/trace?since="+strconv.FormatUint(mark, 10), "")
	if spans := traceLines(t, body); len(spans) != 0 {
		t.Fatalf("since=%d returned stale spans: %+v", mark, spans)
	}

	if resp, _ := do(t, http.MethodGet, ts.URL+"/docs/hospital/manifest", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("manifest: %d", resp.StatusCode)
	}
	_, body = do(t, http.MethodGet, ts.URL+"/debug/trace?since="+strconv.FormatUint(mark, 10), "")
	spans := traceLines(t, body)
	if len(spans) != 1 || spans[0].Name != "server.manifest" {
		t.Fatalf("since filter returned %+v, want only the manifest request's span", spans)
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

// promSamples parses a /metrics.prom body into sample -> value, keyed by
// the metric name with its label set.
func promSamples(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			t.Fatalf("sample value unparseable in %q: %v", line, err)
		}
		out[line[:cut]] = v
	}
	return out
}

// TestMetricsSurfacesAgree: GET /metrics and GET /metrics.prom render the
// same snapshot, so after concurrent PATCHes and blob reads against a
// durable store every counter they share reads the same on both; the only
// difference is the second scrape's own request.
func TestMetricsSurfacesAgree(t *testing.T) {
	_, ts, _ := newLoggedServer(t, Options{DataDir: t.TempDir(), checkpointWALBytes: 64 << 10})
	putDoc(t, ts, "hospital", hospitalXML(6))
	putDoc(t, ts, "clinic", hospitalXML(3))
	var wg sync.WaitGroup
	for w := 1; w <= 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				status, _, body := patchDoc(t, ts, "hospital",
					fmt.Sprintf(`{"op":"set-text","path":"/Hospital/Folder[%d]/Admin/Fname","text":"w%d-%d"}`, w, w, i))
				if status != http.StatusOK {
					t.Errorf("PATCH: %d %s", status, body)
				}
				if resp, _ := do(t, http.MethodGet, ts.URL+"/docs/hospital/blob", ""); resp.StatusCode != http.StatusOK {
					t.Errorf("blob: %d", resp.StatusCode)
				}
			}
		}(w)
	}
	wg.Wait()

	var js metricsSnapshot
	_, body := do(t, http.MethodGet, ts.URL+"/metrics", "")
	if err := json.Unmarshal([]byte(body), &js); err != nil {
		t.Fatalf("decoding /metrics: %v", err)
	}
	_, body = do(t, http.MethodGet, ts.URL+"/metrics.prom", "")
	prom := promSamples(t, body)

	if js.Updates.Applied != 12 || js.Documents != 2 || !js.Storage.Enabled {
		t.Fatalf("/metrics updates=%+v documents=%d storage enabled=%v, want 12 applied, 2 documents, durable",
			js.Updates, js.Documents, js.Storage.Enabled)
	}
	same := func(what string, want int64, got float64) {
		t.Helper()
		if float64(want) != got {
			t.Errorf("%s: /metrics %d, /metrics.prom %v", what, want, got)
		}
	}
	same("requests", js.Requests+1, prom["xmlac_requests_total"])
	same("documents", int64(js.Documents), prom["xmlac_documents"])
	same("updates applied", js.Updates.Applied, prom["xmlac_updates_applied_total"])
	same("update errors", js.Updates.Errors, prom["xmlac_update_errors_total"])
	same("WAL records", js.Storage.WALRecords, prom["xmlac_storage_wal_records"])
	same("WAL bytes", js.Storage.WALBytes, prom["xmlac_storage_wal_bytes"])
	same("WAL appends", js.Storage.WALAppends, prom["xmlac_storage_wal_appends_total"])
	same("fsyncs", js.Storage.Fsyncs, prom["xmlac_storage_fsyncs_total"])
	same("group commits", js.Storage.GroupCommits, prom["xmlac_storage_group_commits_total"])
	same("checkpoints", js.Storage.Checkpoints, prom["xmlac_storage_checkpoints_total"])
	same("storage failed", js.Storage.Failed, prom["xmlac_storage_failed"])
	if js.Storage.WALAppends != 14 {
		t.Errorf("WAL appends %d, want 14 (two registrations, twelve PATCHes)", js.Storage.WALAppends)
	}
}

// TestPoisonedStorageIsReported: once an I/O error poisons the storage
// engine, /healthz answers 503 with the engine's error, both metric
// renderings read storage.failed 1, and writes answer 500. The fault is a
// checkpoint whose temporary log cannot be created, because a directory
// holds its name; the storage package's own tests inject short writes and
// failed fsyncs.
func TestPoisonedStorageIsReported(t *testing.T) {
	dir := t.TempDir()
	_, ts, _ := newLoggedServer(t, Options{DataDir: dir, checkpointWALBytes: 1})
	health := func(wantStatus int, wantFailed int64) string {
		t.Helper()
		resp, body := do(t, http.MethodGet, ts.URL+"/healthz", "")
		if resp.StatusCode != wantStatus {
			t.Fatalf("/healthz: %d %s, want %d", resp.StatusCode, body, wantStatus)
		}
		var js metricsSnapshot
		_, metrics := do(t, http.MethodGet, ts.URL+"/metrics", "")
		if err := json.Unmarshal([]byte(metrics), &js); err != nil {
			t.Fatalf("decoding /metrics: %v", err)
		}
		_, prom := do(t, http.MethodGet, ts.URL+"/metrics.prom", "")
		if got := promSamples(t, prom)["xmlac_storage_failed"]; js.Storage.Failed != wantFailed || got != float64(wantFailed) {
			t.Fatalf("storage failed: /metrics %d, /metrics.prom %v, want %d", js.Storage.Failed, got, wantFailed)
		}
		return body
	}
	putDoc(t, ts, "hospital", hospitalXML(2))
	health(http.StatusOK, 0)

	if err := os.Mkdir(filepath.Join(dir, "wal.tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	// The registration is durable before its checkpoint runs and fails.
	putDoc(t, ts, "clinic", hospitalXML(2))
	if body := health(http.StatusServiceUnavailable, 1); !strings.Contains(body, "log failed") || !strings.Contains(body, "wal.tmp") {
		t.Fatalf("/healthz body %q does not carry the engine's error", body)
	}
	if status, _, body := patchDoc(t, ts, "hospital", `{"op":"set-text","path":"/Hospital/Folder[1]/Admin/Fname","text":"x"}`); status != http.StatusInternalServerError {
		t.Fatalf("PATCH on a poisoned store: %d %s, want 500", status, body)
	}
}
