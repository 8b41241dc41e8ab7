package server

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"xmlac"
	"xmlac/internal/secure"
)

// patchDoc issues a PATCH with the given edits and decodes the response.
func patchDoc(t *testing.T, ts *httptest.Server, id string, edits string) (status int, version uint64, body string) {
	t.Helper()
	resp, b := do(t, http.MethodPatch, ts.URL+"/docs/"+id, `{"edits":[`+edits+`]}`)
	var payload struct {
		Version uint64 `json:"version"`
	}
	_ = json.Unmarshal([]byte(b), &payload)
	return resp.StatusCode, payload.Version, b
}

// TestPatchDocument drives the PATCH endpoint end to end: versions advance,
// a client SOE reads the edit, the blob's ETag is per-version, the reply
// carries the step's delta and /metrics counts the update.
func TestPatchDocument(t *testing.T) {
	srv, ts := newTestServer(t)
	putDoc(t, ts, "hospital", hospitalXML(8))

	entry, err := srv.Store().Entry("hospital")
	if err != nil {
		t.Fatal(err)
	}
	_, etag1 := entry.Blob()
	if v := entry.Version(); v != 1 {
		t.Fatalf("fresh document at version %d, want 1", v)
	}

	status, version, body := patchDoc(t, ts, "hospital",
		`{"op":"set-text","path":"/Hospital/Folder[3]/Admin/Fname","text":"updated"}`)
	if status != http.StatusOK || version != 2 {
		t.Fatalf("PATCH: status %d version %d (%s), want 200 / 2", status, version, body)
	}
	_, etag2 := entry.Blob()
	if etag1 == etag2 {
		t.Fatal("update did not change the blob ETag")
	}
	if view := remoteView(t, ts, "hospital", xmlac.SecretaryPolicy()); !strings.Contains(view, "updated") {
		t.Fatal("a client SOE does not read the edit after the update")
	}

	// The reply carries the 1 -> 2 step's delta.
	var reply struct {
		Delta xmlac.UpdateDelta `json:"delta"`
	}
	if err := json.Unmarshal([]byte(body), &reply); err != nil {
		t.Fatal(err)
	}
	if delta := reply.Delta; delta.FromVersion != 1 || delta.ToVersion != 2 || len(delta.DirtyChunks) == 0 {
		t.Fatalf("unexpected delta %+v", delta)
	} else if delta.BytesReencrypted >= delta.BytesReused {
		t.Fatalf("a one-field edit must re-encrypt less than it reuses: %+v", delta)
	}

	status, version, body = patchDoc(t, ts, "hospital",
		`{"op":"insert","path":"/Hospital","xml":"<Folder><Admin><Fname>appended</Fname></Admin></Folder>"}`)
	if status != http.StatusOK || version != 3 {
		t.Fatalf("second PATCH: %d / %d (%s)", status, version, body)
	}

	// /metrics reports the update counters.
	_, metricsBody := do(t, http.MethodGet, ts.URL+"/metrics", "")
	var metrics struct {
		Updates struct {
			Applied          int64 `json:"applied"`
			Errors           int64 `json:"errors"`
			BytesReencrypted int64 `json:"bytes_reencrypted"`
			BytesReused      int64 `json:"bytes_reused"`
		} `json:"updates"`
	}
	if err := json.Unmarshal([]byte(metricsBody), &metrics); err != nil {
		t.Fatal(err)
	}
	u := metrics.Updates
	if u.Applied != 2 || u.BytesReencrypted == 0 || u.BytesReused == 0 {
		t.Fatalf("unexpected update counters: %+v", u)
	}
}

// TestPatchDocumentRejectsBadEdits: invalid edits are a 422 and leave the
// document untouched; malformed JSON is a 400; unknown document a 404.
func TestPatchDocumentRejectsBadEdits(t *testing.T) {
	srv, ts := newTestServer(t)
	putDoc(t, ts, "doc", hospitalXML(4))

	status, _, body := patchDoc(t, ts, "doc", `{"op":"delete","path":"/Hospital/Nowhere"}`)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("bad edit: %d (%s), want 422", status, body)
	}
	entry, _ := srv.Store().Entry("doc")
	if entry.Version() != 1 {
		t.Fatalf("failed PATCH moved the version to %d", entry.Version())
	}
	if resp, _ := do(t, http.MethodPatch, ts.URL+"/docs/doc", `{"edits":`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: %d, want 400", resp.StatusCode)
	}
	if resp, _ := do(t, http.MethodPatch, ts.URL+"/docs/doc", `{"edits":[]}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty edit list: %d, want 400", resp.StatusCode)
	}
	if resp, _ := do(t, http.MethodPatch, ts.URL+"/docs/none", `{"edits":[{"op":"delete","path":"/x"}]}`); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown document: %d, want 404", resp.StatusCode)
	}
	_, metricsBody := do(t, http.MethodGet, ts.URL+"/metrics", "")
	var metrics struct {
		Updates struct {
			Errors int64 `json:"errors"`
		} `json:"updates"`
	}
	if err := json.Unmarshal([]byte(metricsBody), &metrics); err != nil {
		t.Fatal(err)
	}
	if metrics.Updates.Errors != 1 {
		t.Fatalf("update_errors = %d, want 1 (only the 422 counts)", metrics.Updates.Errors)
	}
}

// TestBlobSurfaceResponsesAreOneVersion: while PATCHes publish version after
// version, every manifest and leaf-table response describes one version.
// The manifest's entity tag is the one its version was published with, and
// a ranged leaf-table answer carries the records of the version whose
// entity tag it carries.
// A client's prefix fetch sends the manifest's entity tag as If-Match, so a
// manifest pairing one version's tag with another version's layout would
// fail Open and Revalidate with ErrChanged for no reason.
func TestBlobSurfaceResponsesAreOneVersion(t *testing.T) {
	srv := New(Options{})
	entry, err := srv.Store().RegisterXML("hospital", hospitalXML(6), "surface", xmlac.SchemeECBMHT)
	if err != nil {
		t.Fatal(err)
	}
	handler := srv.Handler()

	// Readers ask for the leaf records of chunks 0 and 1; chunk0Sum digests
	// those records of a blob.
	first, _ := entry.Blob()
	layout, _, _, err := secure.UnmarshalManifest(first)
	if err != nil {
		t.Fatal(err)
	}
	_, records := layout.LeafBounds(0, 2)
	chunk0Sum := func(blob []byte) [sha256.Size]byte {
		prot, err := xmlac.UnmarshalProtected(blob)
		if err != nil {
			t.Fatal(err)
		}
		return sha256.Sum256(prot.LeafTable()[:records])
	}
	// The writer records, per version, the entity tag it was published
	// with and the digest of its chunk-0 and chunk-1 records.
	blob, etag := entry.Blob()
	etags := map[uint64]string{1: etag}
	hashSums := map[string][sha256.Size]byte{etag: chunk0Sum(blob)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			// Same-length edits in the first folder: every version rewrites
			// chunk 0 in place.
			edit := xmlac.Edit{Op: xmlac.EditSetText, Path: "/Hospital/Folder[1]/Admin/Phone", Text: fmt.Sprintf("555%07d", i)}
			version, _, err := entry.Update([]xmlac.Edit{edit}, nil)
			if err != nil {
				t.Error(err)
				return
			}
			blob, etag := entry.Blob()
			etags[version] = etag
			hashSums[etag] = chunk0Sum(blob)
		}
	}()

	type manifestSeen struct {
		header, etag string
		version      uint64
	}
	type hashesSeen struct {
		etag string
		sum  [sha256.Size]byte
	}
	var manifests []manifestSeen
	var hashes []hashesSeen
	serve := func(target, rng string, code int) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, target, nil)
		if rng != "" {
			req.Header.Set("Range", rng)
		}
		handler.ServeHTTP(rec, req)
		if rec.Code != code {
			t.Fatalf("GET %s: %d %s", target, rec.Code, rec.Body)
		}
		return rec
	}
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		rec := serve("/docs/hospital/manifest", "", http.StatusOK)
		var payload struct {
			ETag     string `json:"etag"`
			Manifest struct {
				Version uint64 `json:"version"`
			} `json:"manifest"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
			t.Fatal(err)
		}
		manifests = append(manifests, manifestSeen{rec.Header().Get("ETag"), payload.ETag, payload.Manifest.Version})
		rec = serve("/docs/hospital/hashes", fmt.Sprintf("bytes=0-%d", records-1), http.StatusPartialContent)
		hashes = append(hashes, hashesSeen{rec.Header().Get("ETag"), sha256.Sum256(rec.Body.Bytes())})
	}

	torn := 0
	for _, m := range manifests {
		if m.header != m.etag || etags[m.version] != m.etag {
			torn++
		}
	}
	if torn > 0 {
		t.Errorf("%d of %d manifest responses pair one version's entity tag with another version's manifest", torn, len(manifests))
	}
	torn = 0
	for _, h := range hashes {
		if want, ok := hashSums[h.etag]; !ok || want != h.sum {
			torn++
		}
	}
	if torn > 0 {
		t.Errorf("%d of %d leaf-table responses carry another version's records", torn, len(hashes))
	}
}
