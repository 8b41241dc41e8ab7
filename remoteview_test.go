package xmlac_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xmlac"
	"xmlac/internal/dataset"
	"xmlac/internal/server"
	"xmlac/internal/xmlstream"
)

// The tests in this file exercise the paper's actual deployment model end to
// end: an untrusted blob server holds the encrypted document, the SOE runs
// in this process (xmlac.OpenRemote) and pulls ciphertext through HTTP range
// requests. The external test package stands in for a genuine remote client:
// it sees only the public API and the HTTP surface.

const remotePassphrase = "remote parity"

// startBlobServer registers a generated hospital document and returns the
// document URL plus the server-side protected form (fetched back through the
// blob endpoint, so both sides evaluate the very same bytes).
func startBlobServer(t testing.TB, folders int) (docURL string, prot *xmlac.Protected, key xmlac.Key) {
	t.Helper()
	srv := server.New(server.Options{})
	xml := xmlstream.SerializeTree(dataset.HospitalFolders(folders, 3), false)
	if _, err := srv.Store().RegisterXML("hospital", xml, remotePassphrase, xmlac.SchemeECBMHT); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	resp, err := http.Get(ts.URL + "/docs/hospital/blob")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	prot, err = xmlac.UnmarshalProtected(blob)
	if err != nil {
		t.Fatal(err)
	}
	return ts.URL + "/docs/hospital", prot, xmlac.DeriveKey(remotePassphrase)
}

// patchingServer is a blob server whose document a test can update in the
// middle of a client's view, and whose manifest requests it can stall.
type patchingServer struct {
	url     string
	handler http.Handler
	patches atomic.Int32
	// patchAt counts blob requests down; the request that brings it to
	// zero is served after one PATCH of the document.
	patchAt atomic.Int32
	// stallManifest holds manifest requests until the client gives up on
	// them, or for stallLimit.
	stallManifest atomic.Bool
}

const stallLimit = 5 * time.Second

func startPatchingServer(t testing.TB, folders int) *patchingServer {
	t.Helper()
	srv := server.New(server.Options{})
	xml := xmlstream.SerializeTree(dataset.HospitalFolders(folders, 3), false)
	if _, err := srv.Store().RegisterXML("hospital", xml, remotePassphrase, xmlac.SchemeECBMHT); err != nil {
		t.Fatal(err)
	}
	ps := &patchingServer{handler: srv.Handler()}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case strings.HasSuffix(r.URL.Path, "/blob") && ps.patchAt.Add(-1) == 0:
			ps.patch(t)
		case strings.HasSuffix(r.URL.Path, "/manifest") && ps.stallManifest.Load():
			select {
			case <-r.Context().Done():
				return
			case <-time.After(stallLimit):
			}
		}
		ps.handler.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	ps.url = ts.URL + "/docs/hospital"
	return ps
}

// patch applies one PATCH that rewrites a phone number, so every call makes
// a new document version.
func (ps *patchingServer) patch(t testing.TB) {
	n := ps.patches.Add(1)
	body := fmt.Sprintf(`{"edits":[{"op":"set-text","path":"/Hospital/Folder[2]/Admin/Phone","text":"555000%04d"}]}`, n)
	rec := httptest.NewRecorder()
	ps.handler.ServeHTTP(rec, httptest.NewRequest("PATCH", "/docs/hospital", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Errorf("PATCH answered %d: %s", rec.Code, rec.Body)
	}
}

// TestRemoteViewParity is the acceptance check of the remote subsystem: for
// each built-in policy on the hospital dataset, under each scheme, a cold
// view fetched through internal/remote and a second view on the same
// document are byte-identical to the local View with identical SOE cost
// metrics. The page cache holds under half the document, so the second
// view's chunk reads under CBC-SHA and CBC-SHAC find some of their pages
// resident. Under ECB-MHT and ECB, which read fragments rather than whole
// chunks, whenever the Skip index skipped bytes the cold view's wire carried
// strictly less than the full encrypted document. Every /blob and /hashes
// request names one range under If-Match and is answered 206.
func TestRemoteViewParity(t *testing.T) {
	srv := server.New(server.Options{})
	xml := xmlstream.SerializeTree(dataset.HospitalFolders(48, 3), false)
	schemes := []xmlac.Scheme{xmlac.SchemeECBMHT, xmlac.SchemeECB, xmlac.SchemeCBCSHA, xmlac.SchemeCBCSHAC}
	local := map[xmlac.Scheme]*xmlac.Protected{}
	for _, scheme := range schemes {
		entry, err := srv.Store().RegisterXML(string(scheme), xml, remotePassphrase, scheme)
		if err != nil {
			t.Fatal(err)
		}
		blob, _ := entry.Blob()
		if local[scheme], err = xmlac.UnmarshalProtected(blob); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	key := xmlac.DeriveKey(remotePassphrase)
	shapes := &rangeShapes{}
	policies := []xmlac.Policy{
		xmlac.SecretaryPolicy(),
		xmlac.DoctorPolicy("DrA"),
		xmlac.ResearcherPolicy("G1", "G2", "G3"),
	}
	for _, policy := range policies {
		t.Run(policy.Subject, func(t *testing.T) {
			cp, err := policy.Compile()
			if err != nil {
				t.Fatal(err)
			}
			for _, scheme := range schemes {
				t.Run(string(scheme), func(t *testing.T) {
					prot := local[scheme]
					// Remote transfers move in pages of 256 bytes.
					if pages := prot.Size() / 256; pages < 2*parityCachePages {
						t.Fatalf("a %d-page document fits a %d-page cache", pages, parityCachePages)
					}
					wantView, wantMetrics, err := prot.View(context.Background(), key, cp, xmlac.ViewOptions{}, nil)
					if err != nil {
						t.Fatal(err)
					}
					doc, err := xmlac.OpenRemoteOptions(ts.URL+"/docs/"+string(scheme), key,
						xmlac.RemoteOptions{CacheCapacity: parityCachePages, HTTPClient: &http.Client{Transport: shapes}})
					if err != nil {
						t.Fatal(err)
					}
					for _, step := range []string{"cold", "second"} {
						gotView, gotMetrics, err := doc.View(context.Background(), cp, xmlac.ViewOptions{}, nil)
						if err != nil {
							t.Fatalf("%s view: %v", step, err)
						}
						if gotView.XML() != wantView.XML() {
							t.Fatalf("%s remote view differs from local view:\nremote: %.200s\nlocal:  %.200s", step, gotView.XML(), wantView.XML())
						}
						// The SOE cost model is source-independent: every
						// counter except the wire counters must match the
						// local evaluation exactly.
						scrubbed := *gotMetrics
						scrubbed.BytesOnWire, scrubbed.RoundTrips, scrubbed.Duration = 0, 0, 0
						want := *wantMetrics
						want.Duration = 0
						if scrubbed != want {
							t.Fatalf("%s view: remote SOE metrics differ:\nremote: %+v\nlocal:  %+v", step, scrubbed, wantMetrics)
						}
						if gotMetrics.BytesSkipped == 0 {
							t.Fatalf("policy %s skipped nothing; dataset too small for the test to mean anything", policy.Subject)
						}
						wire, _ := doc.WireStats()
						t.Logf("%s/%s, %s view: %d wire bytes in all for a %d byte document (%d skipped, %d round trips)",
							policy.Subject, scheme, step, wire, prot.Size(), gotMetrics.BytesSkipped, gotMetrics.RoundTrips)
						if step != "cold" {
							continue
						}
						if gotMetrics.BytesOnWire <= 0 || gotMetrics.RoundTrips <= 0 {
							t.Fatalf("remote evaluation reported no wire activity: %+v", gotMetrics)
						}
						if scheme == xmlac.SchemeCBCSHA || scheme == xmlac.SchemeCBCSHAC {
							continue
						}
						// Strictness: even counting the open-time manifest and
						// digest fetches, the remote SOE transferred less than
						// the document.
						if wire >= int64(prot.Size()) {
							t.Fatalf("wire bytes %d >= encrypted document %d despite %d bytes skipped",
								wire, prot.Size(), gotMetrics.BytesSkipped)
						}
					}
				})
			}
		})
	}
	shapes.check(t)
}

// parityCachePages is the page cache of TestRemoteViewParity's documents.
const parityCachePages = 256

// rangeShapes is an http.RoundTripper that checks every /blob and /hashes
// request a client sends, and its answer: the request names one range and
// carries If-Match, and the answer is a 206.
type rangeShapes struct {
	mu       sync.Mutex
	requests int
	faults   []string
}

func (rs *rangeShapes) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err != nil || !strings.HasSuffix(r.URL.Path, "/blob") && !strings.HasSuffix(r.URL.Path, "/hashes") {
		return resp, err
	}
	rng := r.Header.Get("Range")
	var first, last int64
	n, _ := fmt.Sscanf(rng, "bytes=%d-%d", &first, &last)
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.requests++
	if n != 2 || rng != fmt.Sprintf("bytes=%d-%d", first, last) || r.Header.Get("If-Match") == "" ||
		r.Header.Get("If-Range") != "" || resp.StatusCode != http.StatusPartialContent {
		rs.faults = append(rs.faults, fmt.Sprintf("%s Range %q If-Match %q If-Range %q: %s",
			r.URL.Path, rng, r.Header.Get("If-Match"), r.Header.Get("If-Range"), resp.Status))
	}
	return resp, nil
}

// check fails t unless the transport carried range requests, all of them of
// the one shape.
func (rs *rangeShapes) check(t *testing.T) {
	t.Helper()
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.requests == 0 {
		t.Fatal("no /blob or /hashes request was sent")
	}
	if len(rs.faults) > 0 {
		t.Fatalf("%d of %d /blob and /hashes requests are not one If-Match range answered 206, the first: %s",
			len(rs.faults), rs.requests, rs.faults[0])
	}
}

// TestRemoteViewRepeatedEvaluations reuses one RemoteDocument across
// evaluations: the chunk cache keeps later views cheaper than the first.
func TestRemoteViewRepeatedEvaluations(t *testing.T) {
	docURL, prot, key := startBlobServer(t, 24)
	doc, err := xmlac.OpenRemote(docURL, key)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := xmlac.DoctorPolicy("DrA").Compile()
	if err != nil {
		t.Fatal(err)
	}
	want, firstMetrics, err := doc.View(context.Background(), cp, xmlac.ViewOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	again, againMetrics, err := doc.View(context.Background(), cp, xmlac.ViewOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again.XML() != want.XML() {
		t.Fatal("second remote evaluation produced a different view")
	}
	if againMetrics.BytesOnWire >= firstMetrics.BytesOnWire {
		t.Fatalf("chunk cache ineffective: second view %d wire bytes, first %d",
			againMetrics.BytesOnWire, firstMetrics.BytesOnWire)
	}
	if changed, err := doc.Revalidate(); err != nil || changed {
		t.Fatalf("revalidate: changed=%v err=%v", changed, err)
	}
	_ = prot
}

// TestRepeatedViewLargerThanCacheHits: a view is a forward scan, so a
// repeated view whose working set exceeds the page cache by a little must
// still find most of it resident. W is the page misses of a cold view
// through an unbounded cache; through a cache of W - W/32 pages, the second
// and third views each take at most W/4 round trips.
func TestRepeatedViewLargerThanCacheHits(t *testing.T) {
	docURL, _, key := startBlobServer(t, 60)
	cp, err := xmlac.SecretaryPolicy().Compile()
	if err != nil {
		t.Fatal(err)
	}
	unbounded, err := xmlac.OpenRemoteOptions(docURL, key, xmlac.RemoteOptions{CacheCapacity: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	tr := xmlac.NewTrace(4096)
	if _, _, err := unbounded.View(context.Background(), cp, xmlac.ViewOptions{Trace: tr, TraceID: "cold"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	var w int64
	for _, sp := range tr.Spans(xmlac.TraceFilter{TraceID: "cold"}) {
		if sp.Name == "view:secretary" {
			var hits int64
			if _, err := fmt.Sscanf(sp.Detail, "page_hits=%d page_misses=%d", &hits, &w); err != nil {
				t.Fatalf("view span Detail %q carries no page-cache counts: %v", sp.Detail, err)
			}
		}
	}
	if w < 64 {
		t.Fatalf("cold view touched %d pages, too few to exceed a cache", w)
	}
	capacity := w - w/32
	doc, err := xmlac.OpenRemoteOptions(docURL, key, xmlac.RemoteOptions{CacheCapacity: int(capacity)})
	if err != nil {
		t.Fatal(err)
	}
	for view := 1; view <= 3; view++ {
		_, m, err := doc.View(context.Background(), cp, xmlac.ViewOptions{}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("view %d: %d round trips (working set %d pages, cache %d)", view, m.RoundTrips, w, capacity)
		if view > 1 && m.RoundTrips > w/4 {
			t.Fatalf("view %d took %d round trips; its working set is %d pages and the cache holds %d, want at most %d",
				view, m.RoundTrips, w, capacity, w/4)
		}
	}
}

// hashCounter is an http.RoundTripper that counts the /hashes requests it
// carries.
type hashCounter struct{ n atomic.Int64 }

func (c *hashCounter) RoundTrip(r *http.Request) (*http.Response, error) {
	if strings.HasSuffix(r.URL.Path, "/hashes") {
		c.n.Add(1)
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestRemoteViewFetchesLeafRecordsByTheRun pins the /hashes requests of
// remote views over a 60-folder document: a cold view fetches the whole
// leaf table in exactly one request and a warm view sends none.
// A PATCH that changes the length of a text in the first folder dirties
// every chunk after it; after Revalidate, the next view fetches their
// records in one request. Every view equals the local view of the same
// version.
func TestRemoteViewFetchesLeafRecordsByTheRun(t *testing.T) {
	srv := server.New(server.Options{})
	xml := xmlstream.SerializeTree(dataset.HospitalFolders(60, 3), false)
	entry, err := srv.Store().RegisterXML("hospital", xml, remotePassphrase, xmlac.SchemeECBMHT)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	key := xmlac.DeriveKey(remotePassphrase)
	counter := &hashCounter{}
	doc, err := xmlac.OpenRemoteOptions(ts.URL+"/docs/hospital", key, xmlac.RemoteOptions{HTTPClient: &http.Client{Transport: counter}})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := xmlac.SecretaryPolicy().Compile()
	if err != nil {
		t.Fatal(err)
	}
	view := func(step string, want int64) {
		t.Helper()
		before := counter.n.Load()
		got, _, err := doc.View(context.Background(), cp, xmlac.ViewOptions{}, nil)
		if err != nil {
			t.Fatalf("%s view: %v", step, err)
		}
		if n := counter.n.Load() - before; n != want {
			t.Fatalf("%s view sent %d /hashes requests, want %d", step, n, want)
		}
		blob, _ := entry.Blob()
		local, err := xmlac.UnmarshalProtected(blob)
		if err != nil {
			t.Fatal(err)
		}
		wantView, _, err := local.View(context.Background(), key, cp, xmlac.ViewOptions{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.XML() != wantView.XML() {
			t.Fatalf("%s view differs from the local view of version %d", step, local.Version())
		}
	}
	view("cold", 1)
	view("warm", 0)
	req, err := http.NewRequest(http.MethodPatch, ts.URL+"/docs/hospital",
		strings.NewReader(`{"edits":[{"op":"set-text","path":"/Hospital/Folder[1]/Admin/Fname","text":"a first name longer than any before it"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PATCH answered %d", resp.StatusCode)
	}
	if changed, err := doc.Revalidate(); err != nil || !changed {
		t.Fatalf("Revalidate after the PATCH: changed=%v, %v", changed, err)
	}
	view("post-PATCH", 1)
}

// BenchmarkRemoteView compares, over the network, the paper's TCSBR strategy
// (Skip-index driven range requests) against a brute-force client that
// downloads the whole blob and evaluates locally: transfer is the metric
// that matters, reported as wire-B/view.
func BenchmarkRemoteView(b *testing.B) {
	docURL, prot, key := startBlobServer(b, 48)
	profiles := []struct {
		name   string
		policy xmlac.Policy
	}{
		// The secretary's rules are decidable on sight (large eager skips);
		// the doctor's predicate rules force scanning and skip only the
		// denied Details subtrees — the two ends of the savings range.
		{"secretary", xmlac.SecretaryPolicy()},
		{"doctor", xmlac.DoctorPolicy("DrA")},
	}
	for _, p := range profiles {
		cp, err := p.policy.Compile()
		if err != nil {
			b.Fatal(err)
		}
		b.Run("tcsbr-remote/"+p.name, func(b *testing.B) {
			var wire int64
			for i := 0; i < b.N; i++ {
				doc, err := xmlac.OpenRemote(docURL, key)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := doc.View(context.Background(), cp, xmlac.ViewOptions{}, nil); err != nil {
					b.Fatal(err)
				}
				w, _ := doc.WireStats()
				wire += w
			}
			perView := float64(wire) / float64(b.N)
			b.ReportMetric(perView, "wire-B/view")
			if int(perView) >= prot.Size() {
				b.Fatalf("TCSBR transferred %.0f wire bytes per view, not less than the %d byte document", perView, prot.Size())
			}
		})
	}
	cp, err := xmlac.DoctorPolicy("DrA").Compile()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("brute-force-download", func(b *testing.B) {
		var wire int64
		for i := 0; i < b.N; i++ {
			resp, err := http.Get(docURL + "/blob")
			if err != nil {
				b.Fatal(err)
			}
			blob, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				b.Fatal(err)
			}
			wire += int64(len(blob))
			full, err := xmlac.UnmarshalProtected(blob)
			if err != nil {
				b.Fatal(err)
			}
			// The brute-force SOE of the paper reads the document front to
			// back: DisableSkipIndex takes no Skip-index filtering or jumps.
			if _, _, err := full.View(context.Background(), key, cp, xmlac.ViewOptions{DisableSkipIndex: true}, nil); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(wire)/float64(b.N), "wire-B/view")
	})
}

// TestTracedColdRemoteViewMatchesUntraced runs the same cold ECB-MHT view
// of an HTTP store traced and untraced, each on a freshly opened document.
// Tracing changes no byte of the view, and the traced view's breakdown
// charges the wire (FetchNs) and the Merkle leaf records (HashFetchNs),
// no re-sync, and no more than the view's Duration. Each leaf-record fetch
// runs its round trips inside the hash-fetch phase, so the remote.hash-fetch
// spans fit in HashFetchNs plus FetchNs.
func TestTracedColdRemoteViewMatchesUntraced(t *testing.T) {
	docURL, _, key := startBlobServer(t, 24)
	cp, err := xmlac.DoctorPolicy("DrA").Compile()
	if err != nil {
		t.Fatal(err)
	}
	coldView := func(opts xmlac.ViewOptions) (string, *xmlac.Metrics) {
		t.Helper()
		doc, err := xmlac.OpenRemote(docURL, key)
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		_, m, err := doc.View(context.Background(), cp, opts, &out)
		if err != nil {
			t.Fatal(err)
		}
		return out.String(), m
	}
	plain, _ := coldView(xmlac.ViewOptions{})
	tr := xmlac.NewTrace(4096)
	traced, m := coldView(xmlac.ViewOptions{Trace: tr, TraceID: "cold-traced"})
	if traced != plain || plain == "" {
		t.Fatalf("traced cold view (%d bytes) differs from the untraced one (%d bytes)", len(traced), len(plain))
	}
	pb := m.PhaseBreakdown
	if pb.FetchNs <= 0 || pb.HashFetchNs <= 0 || pb.ResyncNs != 0 {
		t.Fatalf("cold view breakdown: FetchNs %d, HashFetchNs %d, ResyncNs %d; want >0, >0, 0", pb.FetchNs, pb.HashFetchNs, pb.ResyncNs)
	}
	if pb.Sum() > m.Duration {
		t.Fatalf("phase sum %s exceeds Duration %s", pb.Sum(), m.Duration)
	}
	var hashSpans time.Duration
	for _, sp := range tr.Spans(xmlac.TraceFilter{TraceID: "cold-traced"}) {
		if sp.Name == "remote.hash-fetch" {
			hashSpans += sp.Dur
		}
	}
	if hashSpans <= 0 || hashSpans > time.Duration(pb.HashFetchNs+pb.FetchNs) {
		t.Fatalf("remote.hash-fetch spans total %s, want in (0, HashFetchNs+FetchNs = %s]", hashSpans, time.Duration(pb.HashFetchNs+pb.FetchNs))
	}
}

// TestRemoteStreamTraceHasOneViewRootSpan pins the single-view trace
// contract of a remote view: the view records exactly one view:<subject>
// root span under its TraceID, carrying the page-cache counts in its Detail,
// and no shared-scan span, also when it re-syncs and retries. Trace consumers derive the page
// hit fraction of remote views from that span.
func TestRemoteStreamTraceHasOneViewRootSpan(t *testing.T) {
	docURL, _, key := startBlobServer(t, 24)
	doc, err := xmlac.OpenRemote(docURL, key)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := xmlac.SecretaryPolicy().Compile()
	if err != nil {
		t.Fatal(err)
	}
	tr := xmlac.NewTrace(4096)
	// The first view runs on a cold page cache, the second on a warm one.
	for run, id := range []string{"remote-root-cold", "remote-root-warm"} {
		if _, _, err := doc.View(context.Background(), cp, xmlac.ViewOptions{Trace: tr, TraceID: id}, io.Discard); err != nil {
			t.Fatal(err)
		}
		var roots []xmlac.TraceSpan
		for _, sp := range tr.Spans(xmlac.TraceFilter{TraceID: id}) {
			switch sp.Name {
			case "shared-scan":
				t.Fatalf("%s: a one-view evaluation recorded a shared-scan span", id)
			case "view:secretary":
				roots = append(roots, sp)
			}
		}
		if len(roots) != 1 {
			t.Fatalf("%s: %d view:secretary spans, want exactly one", id, len(roots))
		}
		if roots[0].SpanID == "" || roots[0].Parent != "" {
			t.Fatalf("%s: view span is not a root: %+v", id, roots[0])
		}
		var hits, misses int64
		if _, err := fmt.Sscanf(roots[0].Detail, "page_hits=%d page_misses=%d", &hits, &misses); err != nil {
			t.Fatalf("%s: view span Detail %q carries no page-cache counts: %v", id, roots[0].Detail, err)
		}
		if run == 0 && misses == 0 {
			t.Fatalf("%s: cold view reported no page misses (%q)", id, roots[0].Detail)
		}
		if run == 1 && hits == 0 {
			t.Fatalf("%s: warm view reported no page hits (%q)", id, roots[0].Detail)
		}
		// The cold view's Merkle checks fetch leaf records, one span per
		// /hashes request under the view's root span; the warm view holds
		// them all.
		var hashFetches int
		for _, sp := range tr.Spans(xmlac.TraceFilter{TraceID: id}) {
			if sp.Name != "remote.hash-fetch" {
				continue
			}
			hashFetches++
			if sp.Parent != roots[0].SpanID || sp.Bytes <= 0 || sp.Chunks <= 0 {
				t.Fatalf("%s: remote.hash-fetch span %+v is not a fetch of records under the view's root span", id, sp)
			}
		}
		if (run == 0) != (hashFetches > 0) {
			t.Fatalf("%s: %d remote.hash-fetch spans", id, hashFetches)
		}
	}

	// A view that meets a PATCH re-syncs and scans again as the same view:
	// one root span with the remote.resync span under it, ResyncNs > 0, and
	// a Duration that covers the re-sync. The PATCH lands either mid-scan
	// (before the view's third range request is served) or before the view
	// starts, so that the first scan fails while reading the header.
	ps := startPatchingServer(t, 24)
	for _, tc := range []struct {
		id      string
		patchAt int32
	}{
		{"remote-root-retry-mid-scan", 3},
		{"remote-root-retry-at-open", 0},
	} {
		doc, err := xmlac.OpenRemote(ps.url, key)
		if err != nil {
			t.Fatal(err)
		}
		if tc.patchAt == 0 {
			ps.patch(t)
		} else {
			ps.patchAt.Store(tc.patchAt)
		}
		_, m, err := doc.View(context.Background(), cp, xmlac.ViewOptions{Trace: tr, TraceID: tc.id}, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.id, err)
		}
		if doc.Version() != uint64(ps.patches.Load())+1 {
			t.Fatalf("%s: client at version %d after the view, server at %d", tc.id, doc.Version(), ps.patches.Load()+1)
		}
		var roots, resyncs []xmlac.TraceSpan
		for _, sp := range tr.Spans(xmlac.TraceFilter{TraceID: tc.id}) {
			switch sp.Name {
			case "view:secretary":
				roots = append(roots, sp)
			case "remote.resync":
				resyncs = append(resyncs, sp)
			}
		}
		if len(roots) != 1 || len(resyncs) != 1 {
			t.Fatalf("%s: %d view:secretary and %d remote.resync spans, want one each", tc.id, len(roots), len(resyncs))
		}
		if resyncs[0].Parent != roots[0].SpanID {
			t.Fatalf("%s: remote.resync span is not under the view's root span", tc.id)
		}
		if m.PhaseBreakdown.ResyncNs <= 0 {
			t.Fatalf("%s: retried view reports ResyncNs = %d", tc.id, m.PhaseBreakdown.ResyncNs)
		}
		if m.Duration < resyncs[0].Dur {
			t.Fatalf("%s: Duration %s does not cover the %s re-sync", tc.id, m.Duration, resyncs[0].Dur)
		}
	}
}
