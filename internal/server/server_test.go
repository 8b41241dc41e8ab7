package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"xmlac"
	"xmlac/internal/dataset"
	"xmlac/internal/xmlstream"
)

// hospitalXML generates a small hospital document for the tests.
func hospitalXML(folders int) string {
	return xmlstream.SerializeTree(dataset.HospitalFolders(folders, 7), false)
}

// doctorRulesJSON is the JSON payload of the paper's doctor policy (the USER
// variable binds to the path subject).
const doctorRulesJSON = `{"rules":[
	{"id":"D1","sign":"+","object":"//Folder/Admin"},
	{"id":"D2","sign":"+","object":"//MedActs[//RPhys = USER]"},
	{"id":"D3","sign":"-","object":"//Act[RPhys != USER]/Details"},
	{"id":"D4","sign":"+","object":"//Folder[MedActs//RPhys = USER]/Analysis"}
]}`

// newServerOpts constructs a server for tests. When XMLAC_TEST_DATA_DIR is
// set (the CI persistence pass), every test server transparently runs against
// the durable storage backend in a private temp directory, so the whole suite
// doubles as a persistence-mode regression suite.
func newServerOpts(t *testing.T, opts Options) *Server {
	t.Helper()
	if os.Getenv("XMLAC_TEST_DATA_DIR") != "" && opts.DataDir == "" {
		opts.DataDir = t.TempDir()
	}
	srv, err := Open(opts)
	if err != nil {
		t.Fatalf("opening server: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := newServerOpts(t, Options{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// do issues a request and returns the response with its body read.
func do(t *testing.T, method, url string, body string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(data)
}

func putDoc(t *testing.T, ts *httptest.Server, id string, xml string) {
	t.Helper()
	resp, body := do(t, http.MethodPut, ts.URL+"/docs/"+id, xml)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT /docs/%s: %d %s", id, resp.StatusCode, body)
	}
}

func putPolicy(t *testing.T, ts *httptest.Server, id, subject, rulesJSON string) {
	t.Helper()
	resp, body := do(t, http.MethodPut, fmt.Sprintf("%s/docs/%s/policies/%s", ts.URL, id, subject), rulesJSON)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT policy %s/%s: %d %s", id, subject, resp.StatusCode, body)
	}
}

func TestDocumentLifecycle(t *testing.T) {
	_, ts := newTestServer(t)
	xml := hospitalXML(10)
	putDoc(t, ts, "hospital", xml)

	resp, body := do(t, http.MethodGet, ts.URL+"/docs/hospital", "")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"hospital"`) {
		t.Fatalf("GET /docs/hospital: %d %s", resp.StatusCode, body)
	}
	resp, body = do(t, http.MethodGet, ts.URL+"/docs", "")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"hospital"`) {
		t.Fatalf("GET /docs: %d %s", resp.StatusCode, body)
	}

	putPolicy(t, ts, "hospital", "secretary", `{"rules":[{"id":"S1","sign":"+","object":"//Admin"}]}`)
	resp, body = do(t, http.MethodGet, ts.URL+"/docs/hospital/policies/secretary", "")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "S1") {
		t.Fatalf("GET policy: %d %s", resp.StatusCode, body)
	}

	resp, body = do(t, http.MethodGet, ts.URL+"/docs/hospital/view?subject=secretary", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET view: %d %s", resp.StatusCode, body)
	}
	if !strings.Contains(body, "<Admin>") || strings.Contains(body, "<Details>") {
		t.Fatalf("secretary view wrong: %.200s", body)
	}
	if resp.Header.Get("X-Xmlac-Policy-Hash") == "" {
		t.Fatal("policy hash header missing on view response")
	}
	// The view is streamed from the evaluator, so the metric counters are
	// not known when the headers go out: they arrive as HTTP trailers,
	// available once the body has been consumed (do reads it fully).
	if resp.Trailer.Get("X-Xmlac-Bytes-Transferred") == "" || resp.Trailer.Get("X-Xmlac-Ttfb-Micros") == "" {
		t.Fatalf("metrics trailers missing on view response: %v", resp.Trailer)
	}

	resp, _ = do(t, http.MethodDelete, ts.URL+"/docs/hospital", "")
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE: %d", resp.StatusCode)
	}
	resp, _ = do(t, http.MethodGet, ts.URL+"/docs/hospital", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET after delete: %d, want 404", resp.StatusCode)
	}
}

// TestViewMatchesLibrary asserts the server's streamed view is byte-identical
// to what the library produces directly for the same document, key and
// policy (the server is a transport, not a different evaluator).
func TestViewMatchesLibrary(t *testing.T) {
	_, ts := newTestServer(t)
	xml := hospitalXML(12)
	putDoc(t, ts, "hospital", xml)
	putPolicy(t, ts, "hospital", "DrA", doctorRulesJSON)

	resp, body := do(t, http.MethodGet, ts.URL+"/docs/hospital/view?subject=DrA", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET view: %d %s", resp.StatusCode, body)
	}

	doc, err := xmlac.ParseDocumentString(xml)
	if err != nil {
		t.Fatal(err)
	}
	key := xmlac.DeriveKey("xmlac-serve default key for hospital")
	prot, err := xmlac.Protect(doc, key, xmlac.SchemeECBMHT)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := prot.AuthorizedView(key, xmlac.DoctorPolicy("DrA"), xmlac.ViewOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if body != want.XML() {
		t.Fatalf("server view differs from library view:\nserver: %.200s\nlibrary: %.200s", body, want.XML())
	}
}

func TestViewWithQueryAndOptions(t *testing.T) {
	_, ts := newTestServer(t)
	putDoc(t, ts, "hospital", hospitalXML(12))
	putPolicy(t, ts, "hospital", "DrA", doctorRulesJSON)

	resp, body := do(t, http.MethodGet, ts.URL+"/docs/hospital/view?subject=DrA&query="+
		"%2F%2FFolder%5BAdmin%2FAge+%3E+70%5D&indent=1", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query view: %d %s", resp.StatusCode, body)
	}
	resp, body = do(t, http.MethodGet, ts.URL+"/docs/hospital/view?subject=DrA&query=%2F%2F%2F", "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid query: %d %s, want 400", resp.StatusCode, body)
	}
}

func TestViewErrors(t *testing.T) {
	_, ts := newTestServer(t)
	putDoc(t, ts, "hospital", hospitalXML(5))

	resp, _ := do(t, http.MethodGet, ts.URL+"/docs/nope/view?subject=x", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown doc: %d, want 404", resp.StatusCode)
	}
	resp, _ = do(t, http.MethodGet, ts.URL+"/docs/hospital/view", "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing subject: %d, want 400", resp.StatusCode)
	}
	resp, _ = do(t, http.MethodGet, ts.URL+"/docs/hospital/view?subject=stranger", "")
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("no policy: %d, want 403", resp.StatusCode)
	}
	resp, body := do(t, http.MethodPut, ts.URL+"/docs/hospital/policies/u", `{"rules":[{"sign":"+","object":"not a path"}]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid policy: %d %s, want 400", resp.StatusCode, body)
	}
	resp, body = do(t, http.MethodPut, ts.URL+"/docs/bad", "<unclosed>")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed doc: %d %s, want 400", resp.StatusCode, body)
	}
}

// TestConcurrentSubjects serves >= 64 concurrent view requests for distinct
// subjects over one registered document (the acceptance scenario); it must
// be race-clean under -race.
func TestConcurrentSubjects(t *testing.T) {
	srv, ts := newTestServer(t)
	putDoc(t, ts, "hospital", hospitalXML(8))

	const subjects = 64
	const requestsPerSubject = 2
	names := make([]string, subjects)
	for i := range names {
		// Subjects cycle through the dataset's physicians so the predicates
		// match real data, but every subject name is distinct.
		names[i] = fmt.Sprintf("%s-clone%02d", dataset.Physicians()[i%len(dataset.Physicians())], i)
		putPolicy(t, ts, "hospital", names[i], doctorRulesJSON)
	}

	// First pass sequentially records each subject's reference body.
	reference := make(map[string]string, subjects)
	for _, name := range names {
		resp, body := do(t, http.MethodGet, ts.URL+"/docs/hospital/view?subject="+name, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("view %s: %d %s", name, resp.StatusCode, body)
		}
		reference[name] = body
	}

	var wg sync.WaitGroup
	errCh := make(chan error, subjects*requestsPerSubject)
	for _, name := range names {
		for r := 0; r < requestsPerSubject; r++ {
			wg.Add(1)
			go func(name string) {
				defer wg.Done()
				resp, err := http.Get(ts.URL + "/docs/hospital/view?subject=" + name)
				if err != nil {
					errCh <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errCh <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("subject %s: status %d: %.120s", name, resp.StatusCode, body)
					return
				}
				if string(body) != reference[name] {
					errCh <- fmt.Errorf("subject %s: concurrent view differs from reference", name)
				}
			}(name)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// Every view, sequential and concurrent, folded into the ledger once.
	snap := srv.snapshot(0)
	if want := int64(subjects * (1 + requestsPerSubject)); snap.ViewsServed != want || snap.ViewErrors != 0 {
		t.Errorf("views served %d, errors %d, want %d/0", snap.ViewsServed, snap.ViewErrors, want)
	}
}

// TestLoneViewCompletesUnderFrozenClock: a GET /view runs its scan at once.
// Nothing on the view path waits for other requests or for time to pass, so
// a lone view completes on a server whose fake clock never advances. The
// handler runs without an HTTP server, so a view that blocks fails the test
// instead of hanging its cleanup.
func TestLoneViewCompletesUnderFrozenClock(t *testing.T) {
	srv := newServerOpts(t, Options{clock: newFakeClock()})
	if _, err := srv.RegisterDocument("doc", hospitalXML(4), "", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.InstallPolicy("doc", "DrA", xmlac.DoctorPolicy("DrA")); err != nil {
		t.Fatal(err)
	}
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/docs/doc/view?subject=DrA", nil))
		done <- rec
	}()
	select {
	case rec := <-done:
		if rec.Code != http.StatusOK || rec.Body.Len() == 0 {
			t.Fatalf("lone GET /view: %d (%d bytes)", rec.Code, rec.Body.Len())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("lone GET /view still blocked after 10s on a frozen clock")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	putDoc(t, ts, "hospital", hospitalXML(6))
	putPolicy(t, ts, "hospital", "secretary", `{"rules":[{"sign":"+","object":"//Admin"}]}`)
	for i := 0; i < 3; i++ {
		resp, _ := do(t, http.MethodGet, ts.URL+"/docs/hospital/view?subject=secretary", "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("view %d: %d", i, resp.StatusCode)
		}
	}
	resp, body := do(t, http.MethodGet, ts.URL+"/metrics", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	var payload struct {
		ViewsServed int64         `json:"views_served"`
		Documents   int           `json:"documents"`
		Totals      xmlac.Metrics `json:"totals"`
		Sessions    []SessionStats
	}
	if err := json.NewDecoder(bytes.NewReader([]byte(body))).Decode(&payload); err != nil {
		t.Fatalf("decoding metrics: %v\n%s", err, body)
	}
	if payload.ViewsServed != 3 || payload.Documents != 1 {
		t.Fatalf("views=%d docs=%d, want 3/1: %s", payload.ViewsServed, payload.Documents, body)
	}
	if payload.Totals.BytesTransferred == 0 || payload.Totals.NodesPermitted == 0 {
		t.Fatalf("aggregated totals missing: %s", body)
	}
	// The wire counters are part of the report (0 for server-local
	// evaluations; remote SOE clients never route through /view).
	if !strings.Contains(body, "BytesOnWire") || !strings.Contains(body, "RoundTrips") {
		t.Fatalf("metrics report misses wire counters: %s", body)
	}
	if payload.Totals.BytesOnWire != 0 || payload.Totals.RoundTrips != 0 {
		t.Fatalf("local evaluations must not count wire bytes: %+v", payload.Totals)
	}
	if len(payload.Sessions) != 1 || payload.Sessions[0].Views != 3 {
		t.Fatalf("session aggregation wrong: %s", body)
	}
}

// TestReRegisterInvalidatesCache: re-registering a document drops its
// policies together with their compiled forms, so no view runs a policy
// compiled for the replaced document.
func TestReRegisterInvalidatesCache(t *testing.T) {
	_, ts := newTestServer(t)
	putDoc(t, ts, "doc", `<a><b>one</b></a>`)
	putPolicy(t, ts, "doc", "u", `{"rules":[{"sign":"+","object":"//b"}]}`)
	resp, body := do(t, http.MethodGet, ts.URL+"/docs/doc/view?subject=u", "")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "one") {
		t.Fatalf("first view: %d %s", resp.StatusCode, body)
	}
	// The subject must re-install its policy.
	putDoc(t, ts, "doc", `<a><b>two</b></a>`)
	resp, _ = do(t, http.MethodGet, ts.URL+"/docs/doc/view?subject=u", "")
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("view after re-register: %d, want 403 (policies reset)", resp.StatusCode)
	}
	putPolicy(t, ts, "doc", "u", `{"rules":[{"sign":"+","object":"//b"}]}`)
	resp, body = do(t, http.MethodGet, ts.URL+"/docs/doc/view?subject=u", "")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "two") {
		t.Fatalf("view of new content: %d %s", resp.StatusCode, body)
	}
}

func TestEmptyViewStreamsEmptyBody(t *testing.T) {
	_, ts := newTestServer(t)
	putDoc(t, ts, "doc", `<a><b>v</b></a>`)
	putPolicy(t, ts, "doc", "u", `{"rules":[{"sign":"+","object":"//missing"}]}`)
	resp, body := do(t, http.MethodGet, ts.URL+"/docs/doc/view?subject=u", "")
	if resp.StatusCode != http.StatusOK || body != "" {
		t.Fatalf("empty view: %d %q, want 200 with empty body", resp.StatusCode, body)
	}
}

// TestWrongMethodReturns405 pins the routing contract: a wrong-method hit on
// a known /docs/... (or /metrics) route answers 405 Method Not Allowed with
// an Allow header listing the methods the route supports — not a 404 or a
// silent fallthrough.
func TestWrongMethodReturns405(t *testing.T) {
	_, ts := newTestServer(t)
	putDoc(t, ts, "doc", `<a><b>v</b></a>`)

	cases := []struct {
		method string
		path   string
		allow  string // one method the Allow header must list
	}{
		{http.MethodPost, "/docs/doc/view", http.MethodGet},
		{http.MethodDelete, "/docs", http.MethodGet},
		{http.MethodPost, "/docs/doc", http.MethodDelete},
		{http.MethodPost, "/docs/doc/delta", http.MethodGet},
		{http.MethodPut, "/docs/doc/blob", http.MethodGet},
		{http.MethodPost, "/docs/doc/manifest", http.MethodGet},
		{http.MethodDelete, "/docs/doc/hashes", http.MethodGet},
		{http.MethodDelete, "/docs/doc/policies/u", http.MethodPut},
		{http.MethodPost, "/metrics", http.MethodGet},
		{http.MethodPut, "/healthz", http.MethodGet},
	}
	for _, c := range cases {
		resp, body := do(t, c.method, ts.URL+c.path, "")
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: %d %q, want 405", c.method, c.path, resp.StatusCode, body)
			continue
		}
		if allow := resp.Header.Get("Allow"); !strings.Contains(allow, c.allow) {
			t.Errorf("%s %s: Allow %q does not list %s", c.method, c.path, allow, c.allow)
		}
	}
}

// cancelingWriter is a ResponseWriter that cancels the request context once
// limit bytes of body have been written: the deterministic in-process
// equivalent of a client that disconnects mid-stream.
type cancelingWriter struct {
	header http.Header
	body   bytes.Buffer
	limit  int
	cancel context.CancelFunc
	status int
}

func (c *cancelingWriter) Header() http.Header { return c.header }
func (c *cancelingWriter) WriteHeader(code int) {
	if c.status == 0 {
		c.status = code
	}
}
func (c *cancelingWriter) Write(p []byte) (int, error) {
	c.WriteHeader(http.StatusOK)
	n, _ := c.body.Write(p)
	if c.body.Len() >= c.limit {
		c.cancel()
	}
	return n, nil
}

// TestViewClientDisconnectAbortsEvaluation checks that GET /view honors
// request-context cancellation: once the client is gone, the evaluation
// stops mid-document instead of scanning (and serializing) the rest of the
// view, and the request is accounted as a view error.
func TestViewClientDisconnectAbortsEvaluation(t *testing.T) {
	srv, ts := newTestServer(t)
	putDoc(t, ts, "hospital", hospitalXML(60))
	putPolicy(t, ts, "hospital", "secretary", `{"rules":[{"sign":"+","object":"//Admin"}]}`)

	// Reference: the complete view, served normally.
	resp, full := do(t, http.MethodGet, ts.URL+"/docs/hospital/view?subject=secretary", "")
	if resp.StatusCode != http.StatusOK || len(full) == 0 {
		t.Fatalf("reference view: %d, %d bytes", resp.StatusCode, len(full))
	}
	before := srv.snapshot(0)
	totalsBefore := before.Totals
	sessBefore := sessionOf(before, "hospital", "secretary")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cw := &cancelingWriter{header: make(http.Header), limit: len(full) / 10, cancel: cancel}
	req := httptest.NewRequest(http.MethodGet, "/docs/hospital/view?subject=secretary", nil).WithContext(ctx)
	srv.Handler().ServeHTTP(cw, req)

	if cw.status != http.StatusOK {
		t.Fatalf("status %d, want 200 (the stream had started)", cw.status)
	}
	if cw.body.Len() >= len(full)/2 {
		t.Fatalf("evaluation kept delivering after the disconnect: %d of %d bytes", cw.body.Len(), len(full))
	}
	if got := string(full[:cw.body.Len()]); cw.body.String() != got {
		t.Fatal("truncated stream is not a prefix of the full view")
	}
	after := srv.snapshot(0)
	if after.ViewErrors != before.ViewErrors+1 {
		t.Fatalf("view errors %d, want %d (aborted stream must be accounted)", after.ViewErrors, before.ViewErrors+1)
	}
	if after.ViewsServed != before.ViewsServed {
		t.Fatal("aborted stream must not count as a served view")
	}

	// The aborted evaluation's partial counters fold into the lifetime totals
	// and the session totals exactly once: the two deltas agree, are nonzero
	// (work was performed before the disconnect) and smaller than a full view
	// (the abort stopped the scan).
	totalsAfter := after.Totals
	sessAfter := sessionOf(after, "hospital", "secretary")
	totalsDelta := totalsAfter.BytesDecrypted - totalsBefore.BytesDecrypted
	sessDelta := sessAfter.Totals.BytesDecrypted - sessBefore.Totals.BytesDecrypted
	if totalsDelta <= 0 {
		t.Fatal("aborted stream's partial work missing from the lifetime totals")
	}
	if sessDelta != totalsDelta {
		t.Fatalf("partial counters folded unevenly: session delta %d, totals delta %d (must fold exactly once into each)",
			sessDelta, totalsDelta)
	}
	// The reference view was the only prior evaluation, so the totals before
	// the abort are exactly one full view's decryption cost.
	fullDecrypted := totalsBefore.BytesDecrypted
	if totalsDelta >= fullDecrypted {
		t.Fatalf("aborted stream decrypted %d bytes, not less than the full view's %d", totalsDelta, fullDecrypted)
	}
	if sessAfter.Errors != sessBefore.Errors+1 {
		t.Fatalf("session errors %d, want %d", sessAfter.Errors, sessBefore.Errors+1)
	}
	if sessAfter.Views != sessBefore.Views {
		t.Fatal("aborted stream must not count as a session view")
	}
}

// TestBlobEndpoint covers the untrusted-blob surface: full download, ETag
// revalidation (304), single range (206) and multi-range (multipart)
// requests, and date validators after a PATCH: the per-version ETag is the
// only validator, so a date never revalidates stale bytes or slices the new
// version for a client holding the old one.
func TestBlobEndpoint(t *testing.T) {
	srv, ts := newTestServer(t)
	putDoc(t, ts, "hospital", hospitalXML(6))
	entry, err := srv.Store().Entry("hospital")
	if err != nil {
		t.Fatal(err)
	}
	blob, etag := entry.Blob()

	resp, body := do(t, http.MethodGet, ts.URL+"/docs/hospital/blob", "")
	if resp.StatusCode != http.StatusOK || body != string(blob) {
		t.Fatalf("full blob GET: %d, %d bytes (want %d)", resp.StatusCode, len(body), len(blob))
	}
	if got := resp.Header.Get("ETag"); got != etag {
		t.Fatalf("blob ETag %q, want %q", got, etag)
	}

	// If-None-Match with the current tag revalidates for free.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/docs/hospital/blob", nil)
	req.Header.Set("If-None-Match", etag)
	condResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, condResp.Body)
	condResp.Body.Close()
	if condResp.StatusCode != http.StatusNotModified {
		t.Fatalf("If-None-Match: %d, want 304", condResp.StatusCode)
	}

	// Single range.
	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/docs/hospital/blob", nil)
	req.Header.Set("Range", "bytes=10-41")
	rangeResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	part, _ := io.ReadAll(rangeResp.Body)
	rangeResp.Body.Close()
	if rangeResp.StatusCode != http.StatusPartialContent || !bytes.Equal(part, blob[10:42]) {
		t.Fatalf("range GET: %d, %d bytes", rangeResp.StatusCode, len(part))
	}

	// Multi-range: two spans come back as multipart/byteranges.
	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/docs/hospital/blob", nil)
	req.Header.Set("Range", "bytes=0-15,64-95")
	multiResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	multiBody, _ := io.ReadAll(multiResp.Body)
	multiResp.Body.Close()
	if multiResp.StatusCode != http.StatusPartialContent {
		t.Fatalf("multi-range GET: %d, want 206", multiResp.StatusCode)
	}
	if ct := multiResp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "multipart/byteranges") {
		t.Fatalf("multi-range content type %q", ct)
	}
	if !bytes.Contains(multiBody, blob[0:16]) || !bytes.Contains(multiBody, blob[64:96]) {
		t.Fatal("multipart body misses a requested span")
	}

	if lm := resp.Header.Get("Last-Modified"); lm != "" {
		t.Fatalf("blob carries Last-Modified %q; the ETag must be the only validator", lm)
	}
	// A client holding version 1 knows the registration time as its date.
	since := entry.CreatedAt.UTC().Format(http.TimeFormat)
	if status, _, body := patchDoc(t, ts, "hospital",
		`{"op":"set-text","path":"/Hospital/Folder[1]/Admin/Fname","text":"patched"}`); status != http.StatusOK {
		t.Fatalf("PATCH: %d %s", status, body)
	}
	newBlob, _ := entry.Blob()
	for _, h := range [][2]string{{"If-Modified-Since", since}, {"If-Range", since}} {
		req, _ = http.NewRequest(http.MethodGet, ts.URL+"/docs/hospital/blob", nil)
		req.Header.Set(h[0], h[1])
		if h[0] == "If-Range" {
			req.Header.Set("Range", "bytes=10-41")
		}
		dateResp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(dateResp.Body)
		dateResp.Body.Close()
		if dateResp.StatusCode != http.StatusOK || !bytes.Equal(got, newBlob) {
			t.Fatalf("%s after PATCH: %d, %d bytes; want 200 with the full new blob (%d bytes)",
				h[0], dateResp.StatusCode, len(got), len(newBlob))
		}
	}

	resp, _ = do(t, http.MethodGet, ts.URL+"/docs/nope/blob", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown doc blob: %d, want 404", resp.StatusCode)
	}
}

// TestManifestEndpoint checks the published layout against the library's
// view of the same document.
func TestManifestEndpoint(t *testing.T) {
	srv, ts := newTestServer(t)
	putDoc(t, ts, "hospital", hospitalXML(6))
	entry, err := srv.Store().Entry("hospital")
	if err != nil {
		t.Fatal(err)
	}
	blob, etag := entry.Blob()

	resp, body := do(t, http.MethodGet, ts.URL+"/docs/hospital/manifest", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("manifest: %d %s", resp.StatusCode, body)
	}
	var payload struct {
		Document string                 `json:"document"`
		ETag     string                 `json:"etag"`
		Manifest xmlac.DocumentManifest `json:"manifest"`
	}
	if err := json.Unmarshal([]byte(body), &payload); err != nil {
		t.Fatalf("decoding manifest: %v\n%s", err, body)
	}
	if payload.Document != "hospital" || payload.ETag != etag {
		t.Fatalf("manifest identity wrong: %s", body)
	}
	m := payload.Manifest
	if m.Scheme != xmlac.SchemeECBMHT || m.ChunkSize == 0 || m.FragmentSize == 0 {
		t.Fatalf("manifest layout wrong: %+v", m)
	}
	if m.BlobSize != int64(len(blob)) || m.CiphertextOffset+m.CiphertextLen != m.BlobSize {
		t.Fatalf("manifest sizes inconsistent with blob: %+v (blob %d)", m, len(blob))
	}
	if m.NumChunks == 0 || m.NumDigests != m.NumChunks {
		t.Fatalf("manifest chunk counts wrong: %+v", m)
	}

	resp, _ = do(t, http.MethodGet, ts.URL+"/docs/nope/manifest", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown doc manifest: %d, want 404", resp.StatusCode)
	}
}

// TestFragmentHashesEndpoint checks the served hashes against a direct
// computation over the blob's ciphertext.
func TestFragmentHashesEndpoint(t *testing.T) {
	srv, ts := newTestServer(t)
	putDoc(t, ts, "hospital", hospitalXML(6))
	entry, err := srv.Store().Entry("hospital")
	if err != nil {
		t.Fatal(err)
	}
	man := entry.Manifest()

	resp, body := do(t, http.MethodGet, ts.URL+"/docs/hospital/hashes?chunk=0", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hashes: %d %s", resp.StatusCode, body)
	}
	want, err := entry.FragmentHashes(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) != len(want)*len(want[0]) {
		t.Fatalf("hashes body %d bytes, want %d fragments x %d", len(body), len(want), len(want[0]))
	}
	for i, h := range want {
		if !bytes.Equal([]byte(body[i*len(h):(i+1)*len(h)]), h) {
			t.Fatalf("fragment %d hash differs", i)
		}
	}
	// Chunk bounds are partially filled at the tail: the last chunk may have
	// fewer fragments, but never zero.
	resp, body = do(t, http.MethodGet, ts.URL+fmt.Sprintf("/docs/hospital/hashes?chunk=%d", man.NumChunks-1), "")
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("last chunk hashes: %d, %d bytes", resp.StatusCode, len(body))
	}

	for _, bad := range []string{"?chunk=-1", fmt.Sprintf("?chunk=%d", man.NumChunks), "", "?chunk=x"} {
		resp, _ = do(t, http.MethodGet, ts.URL+"/docs/hospital/hashes"+bad, "")
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("hashes%s: %d, want 400", bad, resp.StatusCode)
		}
	}
}
