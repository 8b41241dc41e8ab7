package remote_test

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"xmlac"
	"xmlac/internal/dataset"
	"xmlac/internal/remote"
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

// TestDeltaResyncKeepsCleanChunks: after a small server-side update, a
// Revalidate must evict only the pages of the chunks the delta names — the
// rest of the chunk cache survives and is counted in ChunksReused — and
// reads against the new version must return the new ciphertext.
func TestDeltaResyncKeepsCleanChunks(t *testing.T) {
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
		t.Fatal("delta resync reused no chunks (flushed instead of evicting selectively)")
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

// TestResyncFallsBackToFullReload: when no delta is available (the document
// was re-registered, resetting the version chain), Revalidate still lands on
// the new content via the flush path.
func TestResyncFallsBackToFullReload(t *testing.T) {
	env := newEnv(t, 6)
	src := env.open(t, remote.Options{})
	env.mustRange(t, src, 0, src.Manifest().CiphertextLen)

	// Replace the document wholesale: version goes back to 1, no deltas.
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

	// No explicit Revalidate: the evaluation hits the changed blob
	// (If-Range falls back to a 200 with a new ETag), re-syncs through the
	// delta and retries.
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
