package remote_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"xmlac"
	"xmlac/internal/dataset"
	"xmlac/internal/remote"
	"xmlac/internal/server"
	"xmlac/internal/trace"
	"xmlac/internal/xmlstream"
)

// reqLog records, per blob request, the Range header the client sent and the
// status the server answered: the observable behaviour the coalescing,
// prefetch and revalidation tests assert on.
type reqLog struct {
	mu         sync.Mutex
	blobRanges []string
	blobStatus []int
	hashChunks []string
	// blobTraceIDs / blobSpanIDs record the trace-propagation headers
	// (X-Request-Id / X-Xmlac-Span-Id) of each blob request, empty strings
	// when absent.
	blobTraceIDs []string
	blobSpanIDs  []string
}

func (l *reqLog) snapshotRanges() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.blobRanges...)
}

func (l *reqLog) lastStatus() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.blobStatus) == 0 {
		return 0
	}
	return l.blobStatus[len(l.blobStatus)-1]
}

func (l *reqLog) blobRequests() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.blobRanges)
}

type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (w *statusRecorder) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func withLog(log *reqLog, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		log.mu.Lock()
		switch {
		case strings.HasSuffix(r.URL.Path, "/blob"):
			log.blobRanges = append(log.blobRanges, r.Header.Get("Range"))
			log.blobStatus = append(log.blobStatus, rec.status)
			log.blobTraceIDs = append(log.blobTraceIDs, r.Header.Get("X-Request-Id"))
			log.blobSpanIDs = append(log.blobSpanIDs, r.Header.Get("X-Xmlac-Span-Id"))
		case strings.HasSuffix(r.URL.Path, "/hashes"):
			log.hashChunks = append(log.hashChunks, r.URL.Query().Get("chunk"))
		}
		log.mu.Unlock()
	})
}

// testEnv is one registered hospital document behind an instrumented server.
type testEnv struct {
	ts     *httptest.Server
	srv    *server.Server
	log    *reqLog
	docURL string
	// blob is the marshalled container; ciphertext and ctOff locate the
	// encrypted body inside it, so tests can assert byte-exact reads.
	blob       []byte
	ciphertext []byte
	ctOff      int64
	key        xmlac.Key
}

const testPassphrase = "remote-test"

func newEnv(t testing.TB, folders int) *testEnv {
	t.Helper()
	srv := server.New(server.Options{})
	xml := xmlstream.SerializeTree(dataset.HospitalFolders(folders, 7), false)
	if _, err := srv.Store().RegisterXML("hospital", xml, testPassphrase, xmlac.SchemeECBMHT); err != nil {
		t.Fatal(err)
	}
	log := &reqLog{}
	ts := httptest.NewServer(withLog(log, srv.Handler()))
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
	prot, err := xmlac.UnmarshalProtected(blob)
	if err != nil {
		t.Fatal(err)
	}
	ctOff := prot.Manifest().CiphertextOffset
	env := &testEnv{
		ts:         ts,
		srv:        srv,
		log:        log,
		docURL:     ts.URL + "/docs/hospital",
		blob:       blob,
		ciphertext: blob[ctOff:],
		ctOff:      ctOff,
		key:        xmlac.DeriveKey(testPassphrase),
	}
	// The setup GET above is not part of any test's expectations.
	log.mu.Lock()
	log.blobRanges, log.blobStatus = nil, nil
	log.blobTraceIDs, log.blobSpanIDs = nil, nil
	log.mu.Unlock()
	return env
}

// open builds a Source and clears the request log of the open-time traffic.
func (e *testEnv) open(t testing.TB, opts remote.Options) *remote.Source {
	t.Helper()
	src, err := remote.Open(e.docURL, opts)
	if err != nil {
		t.Fatal(err)
	}
	e.log.mu.Lock()
	e.log.blobRanges, e.log.blobStatus = nil, nil
	e.log.blobTraceIDs, e.log.blobSpanIDs = nil, nil
	e.log.mu.Unlock()
	return src
}

// mustRange reads a ciphertext range and asserts it matches the blob.
func (e *testEnv) mustRange(t *testing.T, src *remote.Source, off, n int64) {
	t.Helper()
	got, err := src.CiphertextRange(off, n)
	if err != nil {
		t.Fatalf("CiphertextRange(%d, %d): %v", off, n, err)
	}
	if !bytes.Equal(got, e.ciphertext[off:off+n]) {
		t.Fatalf("CiphertextRange(%d, %d) returned wrong bytes", off, n)
	}
}

func TestOpenFetchesManifestAndDigestTable(t *testing.T) {
	env := newEnv(t, 6)
	src, err := remote.Open(env.docURL, remote.Options{})
	if err != nil {
		t.Fatal(err)
	}
	man := src.Manifest()
	if man.CiphertextLen != int64(len(env.ciphertext)) {
		t.Fatalf("manifest ciphertext length %d, want %d", man.CiphertextLen, len(env.ciphertext))
	}
	if man.NumDigests == 0 || man.NumChunks() == 0 {
		t.Fatalf("manifest misses digest layout: %+v", man)
	}
	st := src.Stats()
	if st.RoundTrips != 2 {
		t.Fatalf("open should cost two round trips (manifest + prefix), got %d", st.RoundTrips)
	}
	if st.BytesOnWire <= 0 {
		t.Fatalf("open transferred nothing")
	}
	if src.ETag() == "" {
		t.Fatal("source did not capture the blob ETag")
	}
	// The digest table is local now: ChunkDigest must not hit the network.
	before := src.Stats()
	if _, err := src.ChunkDigest(0); err != nil {
		t.Fatal(err)
	}
	if after := src.Stats(); after.RoundTrips != before.RoundTrips {
		t.Fatal("ChunkDigest should be served from the prefetched table")
	}
}

// TestAdjacentMissesCoalesceIntoOneRange: a read spanning several uncached
// pages issues exactly one request with one contiguous range.
func TestAdjacentMissesCoalesceIntoOneRange(t *testing.T) {
	env := newEnv(t, 6)
	src := env.open(t, remote.Options{PageSize: 64, GapThreshold: -1})
	env.mustRange(t, src, 0, 200)
	ranges := env.log.snapshotRanges()
	if len(ranges) != 1 {
		t.Fatalf("expected one blob request, got %v", ranges)
	}
	want := "bytes=" + rangeSpec(env.ctOff, 0, 256)
	if ranges[0] != want {
		t.Fatalf("range header %q, want %q (pages 0-3 coalesced)", ranges[0], want)
	}
}

// TestOverlappingReadsServedFromCache: re-reading overlapping ranges only
// fetches the pages not yet resident.
func TestOverlappingReadsServedFromCache(t *testing.T) {
	env := newEnv(t, 6)
	src := env.open(t, remote.Options{PageSize: 64, GapThreshold: -1})
	env.mustRange(t, src, 0, 128)  // pages 0,1
	env.mustRange(t, src, 64, 128) // page 1 cached, page 2 missing
	env.mustRange(t, src, 32, 96)  // fully cached: no request
	ranges := env.log.snapshotRanges()
	if len(ranges) != 2 {
		t.Fatalf("expected two blob requests, got %v", ranges)
	}
	if want := "bytes=" + rangeSpec(env.ctOff, 128, 192); ranges[1] != want {
		t.Fatalf("second fetch %q, want only the missing page %q", ranges[1], want)
	}
}

// TestGapThresholdBoundary: two miss spans separated by exactly the gap
// threshold merge into one range; one byte past the threshold they stay two
// ranges — still a single round trip, as a multi-range request.
func TestGapThresholdBoundary(t *testing.T) {
	t.Run("gap-equal-threshold-merges", func(t *testing.T) {
		env := newEnv(t, 6)
		src := env.open(t, remote.Options{PageSize: 64, GapThreshold: 64})
		env.mustRange(t, src, 64, 64) // prime page 1
		env.mustRange(t, src, 0, 192) // pages {0,2} missing, 64-byte gap
		ranges := env.log.snapshotRanges()
		if len(ranges) != 2 {
			t.Fatalf("expected two blob requests total, got %v", ranges)
		}
		if want := "bytes=" + rangeSpec(env.ctOff, 0, 192); ranges[1] != want {
			t.Fatalf("gap == threshold should merge into %q, got %q", want, ranges[1])
		}
	})
	t.Run("gap-past-threshold-splits", func(t *testing.T) {
		env := newEnv(t, 6)
		src := env.open(t, remote.Options{PageSize: 64, GapThreshold: 63})
		env.mustRange(t, src, 64, 64) // prime page 1
		env.mustRange(t, src, 0, 192) // pages {0,2}: gap 64 > 63
		ranges := env.log.snapshotRanges()
		if len(ranges) != 2 {
			t.Fatalf("expected two blob requests total (split ranges share one), got %v", ranges)
		}
		want := "bytes=" + rangeSpec(env.ctOff, 0, 64) + "," + rangeSpec(env.ctOff, 128, 192)
		if ranges[1] != want {
			t.Fatalf("multi-range header %q, want %q", ranges[1], want)
		}
	})
}

// TestLRUChunkCacheBound: the cache never exceeds its capacity and evicted
// pages are re-fetched on demand.
func TestLRUChunkCacheBound(t *testing.T) {
	env := newEnv(t, 6)
	src := env.open(t, remote.Options{PageSize: 64, GapThreshold: -1, CacheCapacity: 4})
	for p := int64(0); p < 8; p++ {
		env.mustRange(t, src, p*64, 64)
	}
	if got := src.CachedPages(); got > 4 {
		t.Fatalf("cache holds %d pages, capacity is 4", got)
	}
	before := env.log.blobRequests()
	env.mustRange(t, src, 0, 64) // page 0 was evicted: must re-fetch
	if got := env.log.blobRequests(); got != before+1 {
		t.Fatalf("evicted page should be re-fetched, requests %d -> %d", before, got)
	}
}

// TestRevalidate: an unchanged blob answers the conditional request with
// 304 Not Modified; after a re-registration the source flushes and reloads.
func TestRevalidate(t *testing.T) {
	env := newEnv(t, 6)
	src := env.open(t, remote.Options{PageSize: 64})
	env.mustRange(t, src, 0, 64)

	changed, err := src.Revalidate()
	if err != nil {
		t.Fatal(err)
	}
	if changed {
		t.Fatal("unchanged blob reported as changed")
	}
	if status := env.log.lastStatus(); status != http.StatusNotModified {
		t.Fatalf("revalidation of an unchanged blob got status %d, want 304", status)
	}

	// Replace the document (different content, same id) and revalidate.
	xml := xmlstream.SerializeTree(dataset.HospitalFolders(9, 11), false)
	if _, err := env.srv.Store().RegisterXML("hospital", xml, testPassphrase, xmlac.SchemeECBMHT); err != nil {
		t.Fatal(err)
	}
	oldETag := src.ETag()
	changed, err = src.Revalidate()
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("replaced blob not detected")
	}
	if src.ETag() == oldETag {
		t.Fatal("ETag not refreshed after revalidation")
	}
	if src.CachedPages() != 0 {
		t.Fatal("page cache not flushed after the blob changed")
	}
}

// TestChangedBlobDetectedMidStream: when the blob is replaced under a live
// source, the If-Range guard turns the next fetch into a full 200 response
// with a new ETag and the source fails with ErrChanged instead of mixing
// bytes of two documents.
func TestChangedBlobDetectedMidStream(t *testing.T) {
	env := newEnv(t, 6)
	src := env.open(t, remote.Options{PageSize: 64})
	env.mustRange(t, src, 0, 64)
	xml := xmlstream.SerializeTree(dataset.HospitalFolders(9, 11), false)
	if _, err := env.srv.Store().RegisterXML("hospital", xml, testPassphrase, xmlac.SchemeECBMHT); err != nil {
		t.Fatal(err)
	}
	if _, err := src.CiphertextRange(1024, 64); !errors.Is(err, remote.ErrChanged) {
		t.Fatalf("expected ErrChanged after blob replacement, got %v", err)
	}
}

// TestFragmentHashesFetchedOncePerChunk: the hashes endpoint is hit at most
// once per chunk and the payload splits into DigestSize records.
func TestFragmentHashesFetchedOncePerChunk(t *testing.T) {
	env := newEnv(t, 6)
	src := env.open(t, remote.Options{})
	h1, err := src.FragmentHashes(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(h1) != src.Manifest().NumFragments(0) {
		t.Fatalf("got %d fragment hashes, want %d", len(h1), src.Manifest().NumFragments(0))
	}
	before := src.Stats()
	if _, err := src.FragmentHashes(0); err != nil {
		t.Fatal(err)
	}
	if after := src.Stats(); after.RoundTrips != before.RoundTrips {
		t.Fatal("second FragmentHashes call for the same chunk hit the network")
	}
	env.log.mu.Lock()
	hashReqs := len(env.log.hashChunks)
	env.log.mu.Unlock()
	if hashReqs != 1 {
		t.Fatalf("hashes endpoint hit %d times, want 1", hashReqs)
	}
}

// TestWireBytesCounted: every response body byte is charged to BytesOnWire.
func TestWireBytesCounted(t *testing.T) {
	env := newEnv(t, 6)
	src := env.open(t, remote.Options{PageSize: 64})
	before := src.Stats()
	env.mustRange(t, src, 0, 64)
	after := src.Stats()
	if delta := after.BytesOnWire - before.BytesOnWire; delta < 64 {
		t.Fatalf("64-byte page fetch charged only %d wire bytes", delta)
	}
	if after.RoundTrips != before.RoundTrips+1 {
		t.Fatalf("expected one round trip, got %d", after.RoundTrips-before.RoundTrips)
	}
}

// rangeSpec renders the Range header span for ciphertext bytes [from, to)
// shifted by the blob's ciphertext offset.
func rangeSpec(ctOff, from, to int64) string {
	return strconv.FormatInt(ctOff+from, 10) + "-" + strconv.FormatInt(ctOff+to-1, 10)
}

// TestTracePropagationHeaders: while a tracing context is attached, every
// outgoing request carries the trace ID (X-Request-Id) and the evaluation's
// root span ID (X-Xmlac-Span-Id); detaching the context stops the stamping.
func TestTracePropagationHeaders(t *testing.T) {
	env := newEnv(t, 6)
	src := env.open(t, remote.Options{PageSize: 64, GapThreshold: -1})
	tr := trace.New(trace.NewRecorder(16), "trace-0042")
	if tr.SpanID() == "" {
		t.Fatal("tracing context has no span ID")
	}
	src.SetTrace(tr)
	env.mustRange(t, src, 0, 64)
	src.SetTrace(nil)
	env.mustRange(t, src, 1024, 64)

	env.log.mu.Lock()
	traceIDs := append([]string(nil), env.log.blobTraceIDs...)
	spanIDs := append([]string(nil), env.log.blobSpanIDs...)
	env.log.mu.Unlock()
	if len(traceIDs) != 2 {
		t.Fatalf("expected 2 blob requests, got %d", len(traceIDs))
	}
	if traceIDs[0] != "trace-0042" || spanIDs[0] != tr.SpanID() {
		t.Fatalf("traced fetch sent headers (%q, %q), want (%q, %q)",
			traceIDs[0], spanIDs[0], "trace-0042", tr.SpanID())
	}
	if traceIDs[1] != "" || spanIDs[1] != "" {
		t.Fatalf("untraced fetch still stamped (%q, %q)", traceIDs[1], spanIDs[1])
	}
}

// TestContextCancelClosesInFlightFetch: canceling the context attached with
// SetContext aborts a range request the server is still holding open, instead
// of waiting for the response.
func TestContextCancelClosesInFlightFetch(t *testing.T) {
	srv := server.New(server.Options{})
	xml := xmlstream.SerializeTree(dataset.HospitalFolders(6, 7), false)
	if _, err := srv.Store().RegisterXML("hospital", xml, testPassphrase, xmlac.SchemeECBMHT); err != nil {
		t.Fatal(err)
	}
	var blocking atomic.Bool
	arrived := make(chan struct{}, 1)
	release := make(chan struct{})
	handler := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if blocking.Load() && strings.HasSuffix(r.URL.Path, "/blob") {
			arrived <- struct{}{}
			select {
			case <-r.Context().Done():
				return // the cancellation propagated to the server
			case <-release:
			}
		}
		handler.ServeHTTP(w, r)
	}))
	defer ts.Close()
	defer close(release)

	src, err := remote.Open(ts.URL+"/docs/hospital", remote.Options{PageSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	blocking.Store(true)
	ctx, cancel := context.WithCancel(context.Background())
	src.SetContext(ctx)
	errc := make(chan error, 1)
	go func() {
		_, err := src.CiphertextRange(0, 64)
		errc <- err
	}()
	<-arrived // the request is in flight, held open by the handler
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled fetch returned %v, want context.Canceled", err)
	}
	// Detached, the source works again (nil context unbinds the requests).
	blocking.Store(false)
	src.SetContext(nil)
	if _, err := src.CiphertextRange(0, 64); err != nil {
		t.Fatalf("fetch after detaching the canceled context: %v", err)
	}
}
