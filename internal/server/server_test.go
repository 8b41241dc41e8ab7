package server

import (
	"bytes"
	"context"
	"crypto/sha1"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"

	"xmlac"
	"xmlac/internal/dataset"
	"xmlac/internal/secure"
	"xmlac/internal/xmlstream"
)

// hospitalXML generates a small hospital document for the tests.
func hospitalXML(folders int) string {
	return xmlstream.SerializeTree(dataset.HospitalFolders(folders, 7), false)
}

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

// readView evaluates policy in a client SOE (xmlac.OpenRemote) over the blob
// surface of document id, which was registered without a passphrase: the way
// every view of a stored document is read.
func readView(ts *httptest.Server, id string, policy xmlac.Policy) (string, error) {
	doc, err := xmlac.OpenRemote(ts.URL+"/docs/"+id, xmlac.DeriveKey("xmlac-serve default key for "+id))
	if err != nil {
		return "", err
	}
	cp, err := policy.Compile()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	_, _, err = doc.View(context.Background(), cp, xmlac.ViewOptions{}, &b)
	return b.String(), err
}

// remoteView is readView for the test goroutine: any error fails the test.
func remoteView(t *testing.T, ts *httptest.Server, id string, policy xmlac.Policy) string {
	t.Helper()
	view, err := readView(ts, id, policy)
	if err != nil {
		t.Fatalf("remote view of %s for %s: %v", id, policy.Subject, err)
	}
	return view
}

func TestDocumentLifecycle(t *testing.T) {
	_, ts := newTestServer(t)
	putDoc(t, ts, "hospital", hospitalXML(10))

	resp, body := do(t, http.MethodGet, ts.URL+"/docs/hospital", "")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"hospital"`) {
		t.Fatalf("GET /docs/hospital: %d %s", resp.StatusCode, body)
	}
	var info struct {
		Document DocumentInfo `json:"document"`
	}
	if err := json.Unmarshal([]byte(body), &info); err != nil {
		t.Fatal(err)
	}
	if d := info.Document; d.Version != 1 || d.ProtectedBytes == 0 || d.Elements == 0 || d.Scheme != string(xmlac.SchemeECBMHT) {
		t.Fatalf("document info wrong: %+v", d)
	}
	resp, body = do(t, http.MethodGet, ts.URL+"/docs", "")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"hospital"`) {
		t.Fatalf("GET /docs: %d %s", resp.StatusCode, body)
	}
	if !strings.Contains(remoteView(t, ts, "hospital", xmlac.SecretaryPolicy()), "<Admin>") {
		t.Fatal("secretary view of the stored document misses the admin folders")
	}

	resp, body = do(t, http.MethodPut, ts.URL+"/docs/bad", "<unclosed>")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed doc: %d %s, want 400", resp.StatusCode, body)
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

// TestStoreServesNoEvaluator: the store never evaluates a policy and keeps
// no update history, so the routes of a server-side evaluator (views,
// policy installs, per-subject costs) and of an update-delta history do not
// exist.
func TestStoreServesNoEvaluator(t *testing.T) {
	_, ts := newTestServer(t)
	putDoc(t, ts, "doc", `<a><b>v</b></a>`)
	for _, c := range []struct{ method, path, body string }{
		{http.MethodGet, "/docs/doc/view?subject=u", ""},
		{http.MethodPut, "/docs/doc/policies/u", `{"rules":[{"sign":"+","object":"//b"}]}`},
		{http.MethodGet, "/docs/doc/policies/u", ""},
		{http.MethodGet, "/debug/costs", ""},
		{http.MethodGet, "/docs/doc/delta?from=1", ""},
	} {
		resp, body := do(t, c.method, ts.URL+c.path, c.body)
		if resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: %d %q, want 404 or 405", c.method, c.path, resp.StatusCode, body)
		}
	}
}

// TestConcurrentSubjects: 64 client SOEs, each for its own subject, open one
// stored document at once and stream their views from its blob surface;
// every view must equal the library's view of the same document. It must be
// race-clean under -race.
func TestConcurrentSubjects(t *testing.T) {
	_, ts := newTestServer(t)
	xml := hospitalXML(8)
	putDoc(t, ts, "hospital", xml)

	doc, err := xmlac.ParseDocumentString(xml)
	if err != nil {
		t.Fatal(err)
	}
	const subjects = 64
	policies := make([]xmlac.Policy, subjects)
	want := make([]string, subjects)
	for i := range policies {
		// Subjects cycle through the dataset's physicians so the predicates
		// match real data.
		policies[i] = xmlac.DoctorPolicy(dataset.Physicians()[i%len(dataset.Physicians())])
		view, err := xmlac.EvaluateDocument(doc, policies[i], xmlac.ViewOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = view.XML()
	}

	var wg sync.WaitGroup
	got := make([]string, subjects)
	errs := make([]error, subjects)
	for i := range policies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = readView(ts, "hospital", policies[i])
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Errorf("client %d (%s): %v", i, policies[i].Subject, errs[i])
		} else if got[i] != want[i] {
			t.Errorf("client %d (%s): remote view differs from the library's", i, policies[i].Subject)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	putDoc(t, ts, "hospital", hospitalXML(6))
	if status, _, body := patchDoc(t, ts, "hospital",
		`{"op":"set-text","path":"/Hospital/Folder[1]/Admin/Fname","text":"counted"}`); status != http.StatusOK {
		t.Fatalf("PATCH: %d %s", status, body)
	}
	resp, body := do(t, http.MethodGet, ts.URL+"/metrics", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	var snap metricsSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("decoding metrics: %v\n%s", err, body)
	}
	// PUT, PATCH and this scrape.
	if snap.Documents != 1 || snap.Requests != 3 || snap.Updates.Applied != 1 || snap.Updates.BytesReencrypted == 0 {
		t.Fatalf("documents=%d requests=%d updates=%+v, want 1 / 3 / one applied: %s",
			snap.Documents, snap.Requests, snap.Updates, body)
	}
	if snap.GoVersion == "" || snap.UptimeSeconds <= 0 {
		t.Fatalf("uptime or build info missing: %s", body)
	}
	// The store counts what it stores and serves; it evaluates nothing.
	var fields map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &fields); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"views_served", "totals", "sessions", "costs", "histograms"} {
		if _, ok := fields[key]; ok {
			t.Errorf("/metrics still reports evaluator field %q", key)
		}
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
		{http.MethodDelete, "/docs", http.MethodGet},
		{http.MethodPost, "/docs/doc", http.MethodDelete},
		{http.MethodPut, "/docs/doc/blob", http.MethodGet},
		{http.MethodPost, "/docs/doc/manifest", http.MethodGet},
		{http.MethodDelete, "/docs/doc/hashes", http.MethodGet},
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

// TestFragmentHashesEndpoint checks the range-served leaf table against a
// direct computation over the blob's ciphertext: the whole table, a run of
// chunks in its middle and a run that ends at the last chunk, and the
// answers to a stale If-Match, a range past the table and a document
// without a table.
func TestFragmentHashesEndpoint(t *testing.T) {
	srv, ts := newTestServer(t)
	putDoc(t, ts, "hospital", hospitalXML(6))
	entry, err := srv.Store().Entry("hospital")
	if err != nil {
		t.Fatal(err)
	}
	blob, etag := entry.Blob()
	prot, err := xmlac.UnmarshalProtected(blob)
	if err != nil {
		t.Fatal(err)
	}
	man := prot.Manifest()
	get := func(id, rng, ifMatch string) (*http.Response, string) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/docs/"+id+"/hashes", nil)
		if rng != "" {
			req.Header.Set("Range", rng)
		}
		if ifMatch != "" {
			req.Header.Set("If-Match", ifMatch)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, string(body)
	}

	// The whole table: one record per ciphertext fragment, each the SHA-1
	// of its fragment.
	resp, body := get("hospital", "", "")
	table := prot.LeafTable()
	if resp.StatusCode != http.StatusOK || body != string(table) {
		t.Fatalf("leaf table: %d, %d bytes; want 200 with the document's %d", resp.StatusCode, len(body), len(table))
	}
	if got := resp.Header.Get("ETag"); got != etag {
		t.Fatalf("leaf table ETag %q, want the blob's %q", got, etag)
	}
	ct := blob[man.CiphertextOffset:]
	frags := (len(ct) + man.FragmentSize - 1) / man.FragmentSize
	if len(table) != frags*sha1.Size {
		t.Fatalf("leaf table holds %d bytes for %d fragments", len(table), frags)
	}
	for f := 0; f < frags; f++ {
		h := sha1.Sum(ct[f*man.FragmentSize : min((f+1)*man.FragmentSize, len(ct))])
		if !bytes.Equal(table[f*sha1.Size:(f+1)*sha1.Size], h[:]) {
			t.Fatalf("fragment %d hash differs from the SHA-1 of its ciphertext", f)
		}
	}

	// Runs of chunks, at the positions the layout gives their records.
	layout, _, _, err := secure.UnmarshalManifest(blob)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range [][2]int{{2, 5}, {man.NumChunks - 3, man.NumChunks}} {
		start, end := layout.LeafBounds(run[0], run[1])
		resp, body = get("hospital", fmt.Sprintf("bytes=%d-%d", start, end-1), etag)
		if resp.StatusCode != http.StatusPartialContent || body != string(table[start:end]) {
			t.Fatalf("chunks %d-%d: %d, %d bytes; want 206 with %d", run[0], run[1]-1, resp.StatusCode, len(body), end-start)
		}
		if cr, want := resp.Header.Get("Content-Range"), fmt.Sprintf("bytes %d-%d/%d", start, end-1, len(table)); cr != want {
			t.Fatalf("chunks %d-%d: Content-Range %q, want %q", run[0], run[1]-1, cr, want)
		}
	}

	// A client holding another version learns it before any record.
	resp, body = get("hospital", "bytes=0-159", `"another version"`)
	if resp.StatusCode != http.StatusPreconditionFailed {
		t.Fatalf("stale If-Match: %d %s, want 412", resp.StatusCode, body)
	}
	resp, body = get("hospital", fmt.Sprintf("bytes=%d-%d", len(table), len(table)+159), etag)
	if resp.StatusCode != http.StatusRequestedRangeNotSatisfiable {
		t.Fatalf("range past the table: %d %s, want 416", resp.StatusCode, body)
	}

	// Only ECB-MHT has a leaf table, and only ECB-MHT readers ask for it.
	if _, err := srv.Store().RegisterXML("cbc", hospitalXML(6), "", xmlac.SchemeCBCSHA); err != nil {
		t.Fatal(err)
	}
	resp, body = get("cbc", "bytes=0-159", "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("hashes of a CBC-SHA document: %d %s, want 400", resp.StatusCode, body)
	}
}
