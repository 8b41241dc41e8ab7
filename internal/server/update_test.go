package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"xmlac"
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
// a client SOE reads the edit, the blob's ETag is per-version, the delta
// endpoint serves the transition and /metrics counts the update.
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

	// The delta endpoint serves the 1 -> 2 transition in the binary format.
	resp, deltaBody := do(t, http.MethodGet, ts.URL+"/docs/hospital/delta?from=1", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /delta?from=1: %d", resp.StatusCode)
	}
	delta, err := xmlac.UnmarshalUpdateDelta([]byte(deltaBody))
	if err != nil {
		t.Fatal(err)
	}
	if delta.FromVersion != 1 || delta.ToVersion != 2 || len(delta.DirtyChunks) == 0 {
		t.Fatalf("unexpected delta %+v", delta)
	}
	if delta.BytesReencrypted >= delta.BytesReused {
		t.Fatalf("a one-field edit must re-encrypt less than it reuses: %+v", delta)
	}

	// Current version: 204. Unknown version: 410.
	resp, _ = do(t, http.MethodGet, ts.URL+"/docs/hospital/delta?from=2", "")
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("GET /delta?from=current: %d, want 204", resp.StatusCode)
	}
	resp, _ = do(t, http.MethodGet, ts.URL+"/docs/hospital/delta?from=7", "")
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("GET /delta?from=future: %d, want 410", resp.StatusCode)
	}

	// A second update merges: delta from 1 covers both steps.
	status, version, body = patchDoc(t, ts, "hospital",
		`{"op":"insert","path":"/Hospital","xml":"<Folder><Admin><Fname>appended</Fname></Admin></Folder>"}`)
	if status != http.StatusOK || version != 3 {
		t.Fatalf("second PATCH: %d / %d (%s)", status, version, body)
	}
	resp, deltaBody = do(t, http.MethodGet, ts.URL+"/docs/hospital/delta?from=1", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /delta?from=1 after two updates: %d", resp.StatusCode)
	}
	merged, err := xmlac.UnmarshalUpdateDelta([]byte(deltaBody))
	if err != nil {
		t.Fatal(err)
	}
	if merged.FromVersion != 1 || merged.ToVersion != 3 {
		t.Fatalf("merged delta %d->%d, want 1->3", merged.FromVersion, merged.ToVersion)
	}

	// /metrics reports the update counters.
	_, metricsBody := do(t, http.MethodGet, ts.URL+"/metrics", "")
	var metrics struct {
		Updates struct {
			Applied          int64 `json:"applied"`
			Errors           int64 `json:"errors"`
			DeltasServed     int64 `json:"deltas_served"`
			BytesReencrypted int64 `json:"bytes_reencrypted"`
			BytesReused      int64 `json:"bytes_reused"`
		} `json:"updates"`
	}
	if err := json.Unmarshal([]byte(metricsBody), &metrics); err != nil {
		t.Fatal(err)
	}
	u := metrics.Updates
	if u.Applied != 2 || u.DeltasServed != 2 || u.BytesReencrypted == 0 || u.BytesReused == 0 {
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
