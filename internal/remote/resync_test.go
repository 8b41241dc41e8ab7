package remote_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"xmlac"
	"xmlac/internal/dataset"
	"xmlac/internal/remote"
	"xmlac/internal/secure"
	"xmlac/internal/server"
	"xmlac/internal/xmlstream"
)

// hospitalXMLFolders serializes the generator document newEnv registers.
func hospitalXMLFolders(n int) string {
	return xmlstream.SerializeTree(dataset.HospitalFolders(n, 7), false)
}

// updateEnvDoc applies one server-side edit and returns the delta.
func updateEnvDoc(t *testing.T, env *testEnv, edits ...xmlac.Edit) *xmlac.UpdateDelta {
	t.Helper()
	entry, err := env.srv.Store().Entry("hospital")
	if err != nil {
		t.Fatal(err)
	}
	_, delta, err := entry.Update(edits, nil)
	if err != nil {
		t.Fatal(err)
	}
	return delta
}

// TestResyncKeepsCleanChunks: after a small server-side update, a
// Revalidate must evict only the pages of the chunks the update dirtied —
// the new digest table names exactly those — so the rest of the chunk cache
// survives and is counted in ChunksReused, and reads against the new
// version must return the new ciphertext.
func TestResyncKeepsCleanChunks(t *testing.T) {
	env := newEnv(t, 16)
	src := env.open(t, remote.Options{})
	man := src.Manifest()
	if man.Version != 1 {
		t.Fatalf("remote manifest at version %d, want 1", man.Version)
	}
	// Warm the whole cache.
	env.mustRange(t, src, 0, man.CiphertextLen)
	pagesBefore := src.CachedPages()
	if pagesBefore == 0 {
		t.Fatal("cache empty after a full read")
	}

	// A same-length field edit dirties one or two chunks out of many.
	delta := updateEnvDoc(t, env, xmlac.Edit{
		Op: xmlac.EditSetText, Path: "/Hospital/Folder[9]/Admin/Phone", Text: "5550005555",
	})
	if len(delta.DirtyChunks) == 0 || len(delta.DirtyChunks) > 2 {
		t.Fatalf("same-length edit dirtied %d chunks, want 1-2 of %d", len(delta.DirtyChunks), delta.NumChunks)
	}

	changed, err := src.Revalidate()
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("Revalidate must report the update")
	}
	if got := src.Manifest().Version; got != 2 {
		t.Fatalf("source bound to version %d after resync, want 2", got)
	}
	st := src.Stats()
	if st.ChunksReused == 0 {
		t.Fatal("resync reused no chunks (flushed instead of evicting selectively)")
	}
	if int64(delta.NumChunks)-int64(len(delta.DirtyChunks)) != st.ChunksReused {
		t.Fatalf("ChunksReused = %d, want every clean chunk (%d of %d)",
			st.ChunksReused, delta.NumChunks-len(delta.DirtyChunks), delta.NumChunks)
	}
	maxEvicted := (int64(man.ChunkSize)/page + 2) * int64(len(delta.DirtyChunks))
	if evicted := int64(pagesBefore - src.CachedPages()); evicted > maxEvicted {
		t.Fatalf("resync evicted %d pages, dirty chunks only cover ~%d", evicted, maxEvicted)
	}

	// Reads now see the new version's ciphertext.
	newBlob, _ := mustEntryBlob(t, env)
	newCT := newBlob[env.ctOff:]
	start, end := man.ChunkBounds(delta.DirtyChunks[0])
	got, err := src.CiphertextRange(start, end-start)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, newCT[start:end]) {
		t.Fatal("dirty chunk read does not match the updated blob")
	}
	if bytes.Equal(newCT[start:end], env.ciphertext[start:end]) {
		t.Fatal("test is vacuous: the dirty chunk did not actually change")
	}
}

func mustEntryBlob(t *testing.T, env *testEnv) ([]byte, string) {
	t.Helper()
	entry, err := env.srv.Store().Entry("hospital")
	if err != nil {
		t.Fatal(err)
	}
	blob, etag := entry.Blob()
	return blob, etag
}

// TestResyncFallsBackToFullReload: when the document was re-registered (its
// version chain starts over and every chunk's content moved), the digest
// tables name every chunk, and Revalidate lands on the new content with
// nothing reused.
func TestResyncFallsBackToFullReload(t *testing.T) {
	env := newEnv(t, 6)
	src := env.open(t, remote.Options{})
	env.mustRange(t, src, 0, src.Manifest().CiphertextLen)

	// Replace the document wholesale: version goes back to 1.
	xml := strings.Replace(hospitalXMLFolders(6), "<Hospital>", "<Hospital><Folder><Admin><Fname>fresh</Fname></Admin></Folder>", 1)
	if _, err := env.srv.Store().RegisterXML("hospital", xml, testPassphrase, xmlac.SchemeECBMHT); err != nil {
		t.Fatal(err)
	}
	changed, err := src.Revalidate()
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("Revalidate must report the replacement")
	}
	if st := src.Stats(); st.ChunksReused != 0 {
		t.Fatalf("full reload must not claim reused chunks, got %d", st.ChunksReused)
	}
	blob, _ := mustEntryBlob(t, env)
	man := src.Manifest()
	got, err := src.CiphertextRange(0, man.CiphertextLen)
	if err != nil {
		t.Fatal(err)
	}
	ctOff := int64(len(blob)) - man.CiphertextLen
	if !bytes.Equal(got, blob[ctOff:]) {
		t.Fatal("reads after a full reload do not match the new blob")
	}
}

// TestECBResyncEvictsEveryChunk: ECB has no digest table to compare, so a
// re-sync after any update empties the page cache, reuses no chunk and then
// reads the new version's ciphertext.
func TestECBResyncEvictsEveryChunk(t *testing.T) {
	env := newEnv(t, 6)
	entry, err := env.srv.Store().RegisterXML("ecb", hospitalXMLFolders(6), testPassphrase, xmlac.SchemeECB)
	if err != nil {
		t.Fatal(err)
	}
	src, err := remote.Open(env.ts.URL+"/docs/ecb", remote.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.CiphertextRange(0, src.Manifest().CiphertextLen); err != nil {
		t.Fatal(err)
	}
	if _, _, err := entry.Update([]xmlac.Edit{{Op: xmlac.EditSetText, Path: "/Hospital/Folder[6]/Admin/Phone", Text: "5550000000"}}, nil); err != nil {
		t.Fatal(err)
	}
	if changed, err := src.Revalidate(); err != nil || !changed {
		t.Fatalf("Revalidate: changed=%v, %v", changed, err)
	}
	if pages, reused := src.CachedPages(), src.Stats().ChunksReused; pages != 0 || reused != 0 {
		t.Fatalf("an ECB re-sync kept %d pages and %d chunks", pages, reused)
	}
	blob, _ := entry.Blob()
	man := src.Manifest()
	got, err := src.CiphertextRange(0, man.CiphertextLen)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob[int64(len(blob))-man.CiphertextLen:]) {
		t.Fatal("reads after an ECB re-sync differ from the new ciphertext")
	}
}

// TestRemoteDocumentTransparentResync: a RemoteDocument whose server-side
// document is updated between (or under) evaluations re-syncs by itself —
// the next View returns the new version's view, byte-identical to
// a local evaluation, with ChunksReused surfaced in its metrics.
func TestRemoteDocumentTransparentResync(t *testing.T) {
	env := newEnv(t, 16)
	// The cache must be smaller than the evaluation's working set: a fully
	// warm cache would keep serving the stale version consistently (which is
	// legal) instead of exercising the change-detection path.
	doc, err := xmlac.OpenRemoteOptions(env.docURL, env.key, xmlac.RemoteOptions{CacheCapacity: 32})
	if err != nil {
		t.Fatal(err)
	}
	clerk, err := xmlac.Policy{Subject: "clerk", Rules: []xmlac.Rule{{ID: "S1", Sign: "+", Object: "//Admin"}}}.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := doc.View(context.Background(), clerk, xmlac.ViewOptions{}, nil); err != nil {
		t.Fatal(err)
	}
	if doc.Version() != 1 {
		t.Fatalf("remote document at version %d, want 1", doc.Version())
	}

	// A same-length Phone edit keeps the update chunk-granular (1-2 dirty
	// chunks), so plenty of resident pages belong to clean chunks.
	updateEnvDoc(t, env, xmlac.Edit{
		Op: xmlac.EditSetText, Path: "/Hospital/Folder[3]/Admin/Phone", Text: "5551234567",
	})

	// No explicit Revalidate: the evaluation hits the changed blob (its
	// If-Match range request answers 412), re-syncs from the new digest
	// table and retries.
	view, metrics, err := doc.View(context.Background(), clerk, xmlac.ViewOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Version() != 2 {
		t.Fatalf("remote document at version %d after transparent resync, want 2", doc.Version())
	}
	if !strings.Contains(view.XML(), "5551234567") {
		t.Fatal("view after transparent resync misses the edit")
	}
	if metrics.ChunksReused == 0 {
		t.Fatal("transparent resync metrics claim no reused chunks")
	}

	// Byte-identity with a local evaluation of the updated blob.
	blob, _ := mustEntryBlob(t, env)
	local, err := xmlac.UnmarshalProtected(blob)
	if err != nil {
		t.Fatal(err)
	}
	var localView bytes.Buffer
	_, localMetrics, err := local.View(context.Background(), env.key, clerk, xmlac.ViewOptions{}, &localView)
	if err != nil {
		t.Fatal(err)
	}
	if view.XML() != localView.String() {
		t.Fatal("remote view after resync differs from the local view")
	}
	if metrics.BytesTransferred != localMetrics.BytesTransferred || metrics.BytesSkipped != localMetrics.BytesSkipped {
		t.Fatalf("SOE metrics diverge after resync: remote %+v vs local %+v", metrics, localMetrics)
	}
}

// TestPrefixFetchDetectsConcurrentPatch: a PATCH that lands between the
// manifest response and the prefix request makes Open and Revalidate fail
// with ErrChanged — a benign version race the caller retries — instead of
// parsing the next version's prefix against the previous version's
// manifest. The retry then lands on the new version.
func TestPrefixFetchDetectsConcurrentPatch(t *testing.T) {
	env := newEnv(t, 6)
	entry, err := env.srv.Store().Entry("hospital")
	if err != nil {
		t.Fatal(err)
	}
	// The next manifest request is answered, then a length-changing PATCH
	// lands before the client's follow-up request can arrive.
	var armed atomic.Bool
	handler := env.srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.ServeHTTP(w, r)
		if strings.HasSuffix(r.URL.Path, "/manifest") && armed.CompareAndSwap(true, false) {
			if _, _, err := entry.Update([]xmlac.Edit{{
				Op: xmlac.EditInsert, Path: "/Hospital", XML: "<Folder><Admin><Fname>raced</Fname></Admin></Folder>",
			}}, nil); err != nil {
				t.Error(err)
			}
		}
	}))
	defer ts.Close()
	docURL := ts.URL + "/docs/hospital"

	armed.Store(true)
	if _, err := remote.Open(docURL, remote.Options{}); !errors.Is(err, remote.ErrChanged) {
		t.Fatalf("Open across a concurrent PATCH: %v, want ErrChanged", err)
	}
	src, err := remote.Open(docURL, remote.Options{})
	if err != nil {
		t.Fatalf("Open after the race: %v", err)
	}
	if v := src.Manifest().Version; v != 2 {
		t.Fatalf("reopened source at version %d, want 2", v)
	}

	updateEnvDoc(t, env, xmlac.Edit{Op: xmlac.EditSetText, Path: "/Hospital/Folder[1]/Admin/Fname", Text: "moved"})
	armed.Store(true)
	if _, err := src.Revalidate(); !errors.Is(err, remote.ErrChanged) {
		t.Fatalf("Revalidate across a concurrent PATCH: %v, want ErrChanged", err)
	}
	if _, err := src.Revalidate(); err != nil {
		t.Fatalf("Revalidate after the race: %v", err)
	}
	blob, _ := mustEntryBlob(t, env)
	man := src.Manifest()
	if man.Version != 4 {
		t.Fatalf("revalidated source at version %d, want 4", man.Version)
	}
	got, err := src.CiphertextRange(0, man.CiphertextLen)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob[int64(len(blob))-man.CiphertextLen:]) {
		t.Fatal("reads after the retried revalidation do not match the current blob")
	}
}

// racedStore serves env's document through a handler that, when armed,
// applies a PATCH to it as a re-sync's If-Match prefix request arrives: the
// PATCH lands between the re-sync's manifest and its prefix. It keeps the
// blob of every version it saw published.
type racedStore struct {
	entry *server.DocumentEntry
	armed atomic.Bool
	url   string

	mu      sync.Mutex
	edits   int
	blobs   map[uint64][]byte
	lastErr error
}

func newRacedStore(t *testing.T, env *testEnv) *racedStore {
	t.Helper()
	entry, err := env.srv.Store().Entry("hospital")
	if err != nil {
		t.Fatal(err)
	}
	rs := &racedStore{entry: entry, blobs: map[uint64][]byte{1: env.blob}}
	handler := env.srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("If-Match") != "" && rs.armed.CompareAndSwap(true, false) {
			rs.patch()
		}
		handler.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	rs.url = ts.URL + "/docs/hospital"
	return rs
}

// patch applies one same-length Phone edit, cycling through the folders
// from the middle of the document on, so chunks before it stay clean.
func (rs *racedStore) patch() {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.edits++
	path := fmt.Sprintf("/Hospital/Folder[%d]/Admin/Phone", 9+rs.edits%8)
	if _, _, err := rs.entry.Update([]xmlac.Edit{{Op: xmlac.EditSetText, Path: path, Text: fmt.Sprintf("555%07d", rs.edits)}}, nil); err != nil {
		rs.lastErr = err
		return
	}
	blob, _ := rs.entry.Blob()
	rs.blobs[rs.entry.Version()] = blob
}

// blob returns the container of version v and any error a PATCH hit.
func (rs *racedStore) blob(t *testing.T, v uint64) []byte {
	t.Helper()
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.lastErr != nil {
		t.Fatal(rs.lastErr)
	}
	blob, ok := rs.blobs[v]
	if !ok {
		t.Fatalf("no blob of version %d was published", v)
	}
	return blob
}

// unchangedChunks counts the chunks of b's layout whose bounds and
// ciphertext are the same in container a.
func unchangedChunks(t *testing.T, a, b []byte) int64 {
	t.Helper()
	manA, _, offA, err := secure.UnmarshalManifest(a)
	if err != nil {
		t.Fatal(err)
	}
	manB, _, offB, err := secure.UnmarshalManifest(b)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(0)
	for i := 0; i < manB.NumChunks(); i++ {
		sa, ea := manA.ChunkBounds(i)
		sb, eb := manB.ChunkBounds(i)
		if i < manA.NumChunks() && sa == sb && ea == eb && bytes.Equal(a[offA+sa:offA+ea], b[offB+sb:offB+eb]) {
			n++
		}
	}
	return n
}

// TestRacedResyncKeepsCache: a re-sync of a changed document costs three
// requests (the probe, the manifest and the prefix). When a PATCH lands
// between the manifest and the If-Match prefix request, the re-sync fails
// with ErrChanged after the same three requests and changes nothing: every
// cached page stays, so the retry keeps every chunk that neither update
// changed. Rounds of the same interleaving with a view after every
// Revalidate each read one version: the local view of that version.
func TestRacedResyncKeepsCache(t *testing.T) {
	env := newEnv(t, 16)
	rs := newRacedStore(t, env)
	src, err := remote.Open(rs.url, remote.Options{})
	if err != nil {
		t.Fatal(err)
	}
	warm := func() {
		t.Helper()
		man := src.Manifest()
		got, err := src.CiphertextRange(0, man.CiphertextLen)
		if err != nil {
			t.Fatal(err)
		}
		if blob := rs.blob(t, man.Version); !bytes.Equal(got, blob[int64(len(blob))-man.CiphertextLen:]) {
			t.Fatalf("reads at version %d differ from its ciphertext", man.Version)
		}
	}
	revalidate := func(wantErr error) int64 {
		t.Helper()
		trips := src.Stats().RoundTrips
		if _, err := src.Revalidate(); !errors.Is(err, wantErr) {
			t.Fatalf("Revalidate: %v, want %v", err, wantErr)
		}
		return src.Stats().RoundTrips - trips
	}

	warm()
	rs.patch()
	if n := revalidate(nil); n != 3 {
		t.Fatalf("a re-sync took %d requests, want 3: the probe, the manifest and the prefix", n)
	}
	warm()
	pages := src.CachedPages()

	rs.patch()
	rs.armed.Store(true)
	if n := revalidate(remote.ErrChanged); n != 3 {
		t.Fatalf("a raced re-sync took %d requests, want 3", n)
	}
	if got := src.CachedPages(); got != pages {
		t.Fatalf("the raced re-sync left %d of %d cached pages", got, pages)
	}
	if v := src.Manifest().Version; v != 2 {
		t.Fatalf("the raced re-sync moved the source to version %d; it holds 2", v)
	}
	reused := src.Stats().ChunksReused
	revalidate(nil)
	if v := src.Manifest().Version; v != 4 {
		t.Fatalf("the retry landed on version %d, want 4", v)
	}
	want := unchangedChunks(t, rs.blob(t, 2), rs.blob(t, 4))
	if got := src.Stats().ChunksReused - reused; got != want || got == 0 {
		t.Fatalf("the retry kept %d chunks; %d are unchanged from version 2 to 4", got, want)
	}
	warm()

	doc, err := xmlac.OpenRemoteOptions(rs.url, env.key, xmlac.RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := xmlac.SecretaryPolicy().Compile()
	if err != nil {
		t.Fatal(err)
	}
	view := func(step string) {
		t.Helper()
		got, _, err := doc.View(context.Background(), cp, xmlac.ViewOptions{}, nil)
		if err != nil {
			t.Fatalf("%s: view: %v", step, err)
		}
		local, err := xmlac.UnmarshalProtected(rs.blob(t, doc.Version()))
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := local.View(context.Background(), env.key, cp, xmlac.ViewOptions{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.XML() != want.XML() {
			t.Fatalf("%s: the view differs from the local view of version %d", step, doc.Version())
		}
	}
	view("open")
	for round := 0; round < 4; round++ {
		rs.patch()
		rs.armed.Store(true)
		if _, err := doc.Revalidate(); !errors.Is(err, remote.ErrChanged) {
			t.Fatalf("round %d: raced Revalidate: %v, want ErrChanged", round, err)
		}
		view(fmt.Sprintf("round %d, after the raced Revalidate", round))
		if _, err := doc.Revalidate(); err != nil {
			t.Fatalf("round %d: Revalidate: %v", round, err)
		}
		view(fmt.Sprintf("round %d, after the retry", round))
	}
}
