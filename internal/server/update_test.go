package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"xmlac"
	"xmlac/internal/dataset"
	"xmlac/internal/xmlstream"
)

// secretaryRulesJSON grants the administrative sub-folders.
const secretaryRulesJSON = `{"rules":[{"id":"S1","sign":"+","object":"//Admin"}]}`

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
// the view reflects the edit, the blob's ETag is per-version, the delta
// endpoint serves the transition and /metrics counts the update.
func TestPatchDocument(t *testing.T) {
	srv, ts := newTestServer(t)
	putDoc(t, ts, "hospital", hospitalXML(8))
	putPolicy(t, ts, "hospital", "clerk", secretaryRulesJSON)

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
	resp, view := do(t, http.MethodGet, ts.URL+"/docs/hospital/view?subject=clerk", "")
	if resp.StatusCode != http.StatusOK || !strings.Contains(view, "updated") {
		t.Fatalf("view after update: %d, contains(updated)=%v", resp.StatusCode, strings.Contains(view, "updated"))
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

// TestConcurrentPatchAndViews is the update/read race test: two writers
// PATCH disjoint fields of the same document while a fleet of readers pulls
// concurrent GET /view responses. Every response must be one
// consistent version — byte-identical to the expected view of some
// (writer-A-progress, writer-B-progress) state — never a torn mix of two
// versions. Run under -race in CI (the whole test job is).
func TestConcurrentPatchAndViews(t *testing.T) {
	srv, ts := newTestServer(t)
	const folders = 6
	xml := xmlstream.SerializeTree(dataset.HospitalFolders(folders, 7), false)
	putDoc(t, ts, "hospital", xml)
	putPolicy(t, ts, "hospital", "clerk", secretaryRulesJSON)

	// Writer A rewrites Folder[1]'s Fname, writer B Folder[2]'s, K steps
	// each: the reachable document states form the (a, b) grid.
	const steps = 4
	valueA := func(i int) string { return fmt.Sprintf("alpha%03d", i) }
	valueB := func(i int) string { return fmt.Sprintf("beta%04d", i) }

	// Expected views per (a, b) state, computed on a mirror of the document
	// with the library directly.
	key := xmlac.DeriveKey("xmlac-serve default key for hospital")
	clerk, err := xmlac.Policy{Subject: "clerk", Rules: []xmlac.Rule{{ID: "S1", Sign: "+", Object: "//Admin"}}}.Compile()
	if err != nil {
		t.Fatal(err)
	}
	expected := map[string]string{}
	for a := 0; a <= steps; a++ {
		for b := 0; b <= steps; b++ {
			doc, err := xmlac.ParseDocumentString(xml)
			if err != nil {
				t.Fatal(err)
			}
			prot, err := xmlac.Protect(doc, key, xmlac.SchemeECBMHT)
			if err != nil {
				t.Fatal(err)
			}
			var edits []xmlac.Edit
			if a > 0 {
				edits = append(edits, xmlac.Edit{Op: xmlac.EditSetText, Path: "/Hospital/Folder[1]/Admin/Fname", Text: valueA(a)})
			}
			if b > 0 {
				edits = append(edits, xmlac.Edit{Op: xmlac.EditSetText, Path: "/Hospital/Folder[2]/Admin/Fname", Text: valueB(b)})
			}
			if len(edits) > 0 {
				if _, _, err := prot.Update(key, edits); err != nil {
					t.Fatal(err)
				}
			}
			var buf bytes.Buffer
			if _, err := prot.StreamAuthorizedViewCompiled(key, clerk, xmlac.ViewOptions{}, &buf); err != nil {
				t.Fatal(err)
			}
			expected[buf.String()] = fmt.Sprintf("a=%d b=%d", a, b)
		}
	}

	var wg sync.WaitGroup
	patch := func(path, value string) error {
		body := fmt.Sprintf(`{"edits":[{"op":"set-text","path":%q,"text":%q}]}`, path, value)
		req, err := http.NewRequest(http.MethodPatch, ts.URL+"/docs/hospital", strings.NewReader(body))
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("PATCH %s=%s: status %d", path, value, resp.StatusCode)
		}
		return nil
	}
	writerErrs := make([]error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 1; i <= steps; i++ {
			if err := patch("/Hospital/Folder[1]/Admin/Fname", valueA(i)); err != nil {
				writerErrs[0] = err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 1; i <= steps; i++ {
			if err := patch("/Hospital/Folder[2]/Admin/Fname", valueB(i)); err != nil {
				writerErrs[1] = err
				return
			}
		}
	}()

	const readers = 8
	const viewsPerReader = 6
	bodies := make([][]string, readers)
	readerErrs := make([]error, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < viewsPerReader; i++ {
				resp, body := do(t, http.MethodGet, ts.URL+"/docs/hospital/view?subject=clerk", "")
				if resp.StatusCode != http.StatusOK {
					readerErrs[g] = fmt.Errorf("reader %d view %d: status %d", g, i, resp.StatusCode)
					return
				}
				bodies[g] = append(bodies[g], body)
			}
		}(g)
	}
	wg.Wait()
	for _, err := range append(writerErrs, readerErrs...) {
		if err != nil {
			t.Fatal(err)
		}
	}
	for g, views := range bodies {
		for i, body := range views {
			if _, ok := expected[body]; !ok {
				t.Fatalf("reader %d view %d (%d bytes) matches no consistent document state: torn or stale-mixed view", g, i, len(body))
			}
		}
	}
	// The writers finished: the final state must be (steps, steps).
	entry, err := srv.Store().Entry("hospital")
	if err != nil {
		t.Fatal(err)
	}
	if v := entry.Version(); v != 1+2*steps {
		t.Fatalf("final version %d, want %d (every PATCH one version)", v, 1+2*steps)
	}
	resp, final := do(t, http.MethodGet, ts.URL+"/docs/hospital/view?subject=clerk", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("final view: %d", resp.StatusCode)
	}
	if state := expected[final]; state != fmt.Sprintf("a=%d b=%d", steps, steps) {
		t.Fatalf("final view is state %q, want both writers fully applied", state)
	}
}
