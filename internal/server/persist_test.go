package server

import (
	"crypto/sha256"
	"encoding/json"
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
)

// openDurable opens a server over a fixed data directory (unlike
// newServerOpts, which allocates a private one). Tests close the returned
// pair explicitly before reopening the directory — the storage engine's
// flock rejects a second concurrent open — and the cleanup close is a
// no-throw safety net for failure paths.
func openDurable(t *testing.T, dir string, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	opts.DataDir = dir
	srv, err := Open(opts)
	if err != nil {
		t.Fatalf("opening durable server on %s: %v", dir, err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// getOK fetches a URL and fails the test unless it answers 200.
func getOK(t *testing.T, url string) string {
	t.Helper()
	resp, body := do(t, http.MethodGet, url, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	return body
}

// TestPersistenceRoundTrip: register + policies + two PATCHes, close the
// server, reopen the same data directory, and verify the recovered state is
// byte-identical on every surface a client resynchronizes from — views,
// blob + ETag, manifest, and the merged delta — then that the recovered
// document accepts further updates.
func TestPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	srv, ts := openDurable(t, dir, Options{})

	putDoc(t, ts, "hospital", hospitalXML(8))
	putPolicy(t, ts, "hospital", "secretary", secretaryRulesJSON)
	putPolicy(t, ts, "hospital", "DrA", doctorRulesJSON)
	if status, version, body := patchDoc(t, ts, "hospital",
		`{"op":"set-text","path":"/Hospital/Folder[2]/Admin/Fname","text":"durable"}`); status != http.StatusOK || version != 2 {
		t.Fatalf("first PATCH: %d / %d (%s)", status, version, body)
	}
	if status, version, body := patchDoc(t, ts, "hospital",
		`{"op":"insert","path":"/Hospital","xml":"<Folder><Admin><Fname>appended</Fname></Admin></Folder>"}`); status != http.StatusOK || version != 3 {
		t.Fatalf("second PATCH: %d / %d (%s)", status, version, body)
	}

	subjects := []string{"secretary", "DrA"}
	views := map[string]string{}
	for _, s := range subjects {
		views[s] = getOK(t, ts.URL+"/docs/hospital/view?subject="+s)
	}
	blobResp, blob := do(t, http.MethodGet, ts.URL+"/docs/hospital/blob", "")
	if blobResp.StatusCode != http.StatusOK {
		t.Fatalf("GET /blob: %d", blobResp.StatusCode)
	}
	etag := blobResp.Header.Get("ETag")
	manifest := getOK(t, ts.URL+"/docs/hospital/manifest")
	delta := getOK(t, ts.URL+"/docs/hospital/delta?from=1")

	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatalf("closing server: %v", err)
	}

	srv2, ts2 := openDurable(t, dir, Options{})
	entry, err := srv2.Store().Entry("hospital")
	if err != nil {
		t.Fatalf("document not recovered: %v", err)
	}
	if v := entry.Version(); v != 3 {
		t.Fatalf("recovered at version %d, want 3", v)
	}
	for _, s := range subjects {
		if got := getOK(t, ts2.URL+"/docs/hospital/view?subject="+s); got != views[s] {
			t.Fatalf("recovered view for %s differs from the pre-restart view", s)
		}
	}
	blobResp2, blob2 := do(t, http.MethodGet, ts2.URL+"/docs/hospital/blob", "")
	if blob2 != blob {
		t.Fatal("recovered blob differs from the pre-restart blob")
	}
	if got := blobResp2.Header.Get("ETag"); got != etag {
		t.Fatalf("recovered ETag %s, want %s (If-Range revalidation would break)", got, etag)
	}
	if got := getOK(t, ts2.URL+"/docs/hospital/manifest"); got != manifest {
		t.Fatal("recovered manifest differs")
	}

	// Delta resync across restart: a client holding version 1 from before the
	// restart gets the identical merged 1 -> 3 delta from the recovered server.
	if got := getOK(t, ts2.URL+"/docs/hospital/delta?from=1"); got != delta {
		t.Fatal("recovered delta from=1 differs from the pre-restart delta")
	}
	parsed, err := xmlac.UnmarshalUpdateDelta([]byte(delta))
	if err != nil {
		t.Fatal(err)
	}
	if parsed.FromVersion != 1 || parsed.ToVersion != 3 {
		t.Fatalf("delta %d->%d, want 1->3", parsed.FromVersion, parsed.ToVersion)
	}
	if resp, _ := do(t, http.MethodGet, ts2.URL+"/docs/hospital/delta?from=3", ""); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delta from=current after recovery: %d, want 204", resp.StatusCode)
	}

	// The recovered entry is fully live: the next PATCH goes through and its
	// step delta is served.
	if status, version, body := patchDoc(t, ts2, "hospital",
		`{"op":"set-text","path":"/Hospital/Folder[1]/Admin/Fname","text":"post-restart"}`); status != http.StatusOK || version != 4 {
		t.Fatalf("PATCH after recovery: %d / %d (%s)", status, version, body)
	}
	step, err := xmlac.UnmarshalUpdateDelta([]byte(getOK(t, ts2.URL+"/docs/hospital/delta?from=3")))
	if err != nil {
		t.Fatal(err)
	}
	if step.FromVersion != 3 || step.ToVersion != 4 {
		t.Fatalf("post-recovery delta %d->%d, want 3->4", step.FromVersion, step.ToVersion)
	}
	if !strings.Contains(getOK(t, ts2.URL+"/docs/hospital/view?subject=secretary"), "post-restart") {
		t.Fatal("post-recovery update not visible in the view")
	}
}

// TestPersistenceCheckpointRecovery drives the checkpoint path: a one-byte
// threshold forces a checkpoint after every append, so recovery reads
// documents, policies and the retained delta history from the log's
// snapshot prefix rather than from replayed tail records.
func TestPersistenceCheckpointRecovery(t *testing.T) {
	dir := t.TempDir()
	srv, ts := openDurable(t, dir, Options{CheckpointWALBytes: 1})

	putDoc(t, ts, "hospital", hospitalXML(4))
	putPolicy(t, ts, "hospital", "secretary", secretaryRulesJSON)
	if status, version, _ := patchDoc(t, ts, "hospital",
		`{"op":"set-text","path":"/Hospital/Folder[1]/Admin/Fname","text":"ckpt"}`); status != http.StatusOK || version != 2 {
		t.Fatalf("PATCH: %d / %d", status, version)
	}

	var metrics struct {
		Storage struct {
			Enabled     bool   `json:"enabled"`
			Checkpoints uint64 `json:"checkpoints"`
			WALRecords  uint64 `json:"wal_records"`
		} `json:"storage"`
	}
	if err := json.Unmarshal([]byte(getOK(t, ts.URL+"/metrics")), &metrics); err != nil {
		t.Fatal(err)
	}
	if !metrics.Storage.Enabled || metrics.Storage.Checkpoints == 0 {
		t.Fatalf("checkpoints not reported with a 1-byte threshold: %+v", metrics.Storage)
	}
	if metrics.Storage.WALRecords != 0 {
		t.Fatalf("WAL not compacted after checkpoint: %d records live", metrics.Storage.WALRecords)
	}

	view := getOK(t, ts.URL+"/docs/hospital/view?subject=secretary")
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	_, ts2 := openDurable(t, dir, Options{CheckpointWALBytes: 1})
	if got := getOK(t, ts2.URL+"/docs/hospital/view?subject=secretary"); got != view {
		t.Fatal("view recovered from checkpoint differs")
	}
	// The retained history survives WAL compaction: the 1 -> 2 delta was
	// persisted inside the checkpoint's document metadata.
	step, err := xmlac.UnmarshalUpdateDelta([]byte(getOK(t, ts2.URL+"/docs/hospital/delta?from=1")))
	if err != nil {
		t.Fatal(err)
	}
	if step.FromVersion != 1 || step.ToVersion != 2 {
		t.Fatalf("checkpoint-recovered delta %d->%d, want 1->2", step.FromVersion, step.ToVersion)
	}
}

// TestPersistenceDeleteAcrossRestart: a DELETE is durable — the document
// stays gone after recovery while its neighbors survive.
func TestPersistenceDeleteAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	srv, ts := openDurable(t, dir, Options{})

	putDoc(t, ts, "keep", hospitalXML(3))
	putPolicy(t, ts, "keep", "secretary", secretaryRulesJSON)
	putDoc(t, ts, "drop", hospitalXML(3))
	if resp, body := do(t, http.MethodDelete, ts.URL+"/docs/drop", ""); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE: %d %s", resp.StatusCode, body)
	}
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	_, ts2 := openDurable(t, dir, Options{})
	if resp, _ := do(t, http.MethodGet, ts2.URL+"/docs/drop", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted document resurrected after restart: %d", resp.StatusCode)
	}
	if body := getOK(t, ts2.URL+"/docs/keep/view?subject=secretary"); len(body) == 0 {
		t.Fatal("surviving document lost its view after restart")
	}
}

// TestPersistenceConcurrentMutationsRecover: PATCHes to one document from
// four clients, policy installs, and a second document's re-registrations
// and PATCHes race checkpoints taken after every mutation. A mutation
// applies and logs as one unit against checkpoints, and one document's
// PATCHes log in version order, so a reopen recovers exactly the state the
// server served.
func TestPersistenceConcurrentMutationsRecover(t *testing.T) {
	dir := t.TempDir()
	srv, ts := openDurable(t, dir, Options{CheckpointWALBytes: 1})
	putDoc(t, ts, "hospital", hospitalXML(6))
	send := func(method, path, body string) error {
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode >= 300 {
			msg, _ := io.ReadAll(resp.Body)
			return fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, msg)
		}
		return nil
	}
	setText := func(folder int, text string) string {
		return fmt.Sprintf(`{"edits":[{"op":"set-text","path":"/Hospital/Folder[%d]/Admin/Fname","text":%q}]}`, folder, text)
	}
	var wg sync.WaitGroup
	for w := 1; w <= 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if err := send(http.MethodPatch, "/docs/hospital", setText(w, fmt.Sprintf("client-%d-%d", w, i))); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for _, subject := range []string{"secretary", "clerk", "DrA"} {
			rules := secretaryRulesJSON
			if subject == "DrA" {
				rules = doctorRulesJSON
			}
			if err := send(http.MethodPut, "/docs/hospital/policies/"+subject, rules); err != nil {
				t.Error(err)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if err := send(http.MethodPut, "/docs/other", hospitalXML(2+i)); err != nil {
				t.Error(err)
			}
			if err := send(http.MethodPatch, "/docs/other", setText(1, fmt.Sprintf("other-%d", i))); err != nil {
				t.Error(err)
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}

	state := func(ts *httptest.Server) string {
		var b strings.Builder
		for _, path := range []string{
			"/docs/hospital/blob", "/docs/hospital/delta?from=1", "/docs/other/blob", "/docs/other/delta?from=1",
			"/docs/hospital/view?subject=secretary", "/docs/hospital/view?subject=DrA", "/docs/hospital/policies/clerk",
		} {
			resp, body := do(t, http.MethodGet, ts.URL+path, "")
			fmt.Fprintf(&b, "%s %d %s %q\n", path, resp.StatusCode, resp.Header.Get("ETag"), body)
		}
		return b.String()
	}
	want := state(ts)
	if srv.persist.engine.Stats().Checkpoints == 0 {
		t.Fatal("no checkpoint ran beside the mutations")
	}
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	_, ts2 := openDurable(t, dir, Options{})
	if got := state(ts2); got != want {
		t.Fatalf("recovered state differs from the state served before the restart:\n got %.600s\nwant %.600s", got, want)
	}
}

// TestMutationsWaitForCheckpoint: while a checkpoint holds the persister
// exclusively, a mutation does not even apply to the in-memory store — so
// the snapshot it cuts never holds a mutation whose record would land after
// it in the log, and replay never meets a PATCH twice.
func TestMutationsWaitForCheckpoint(t *testing.T) {
	srv, ts := openDurable(t, t.TempDir(), Options{})
	putDoc(t, ts, "hospital", hospitalXML(4))
	entry, err := srv.Store().Entry("hospital")
	if err != nil {
		t.Fatal(err)
	}
	srv.persist.mu.Lock() // what a checkpoint holds while it cuts the snapshot
	done := make(chan int, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodPatch, ts.URL+"/docs/hospital",
			strings.NewReader(`{"edits":[{"op":"set-text","path":"/Hospital/Folder[1]/Admin/Fname","text":"late"}]}`))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			done <- 0
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	select {
	case status := <-done:
		srv.persist.mu.Unlock()
		t.Fatalf("PATCH answered %d while a checkpoint held the store", status)
	case <-time.After(100 * time.Millisecond):
	}
	v := entry.Version()
	srv.persist.mu.Unlock()
	if v != 1 {
		t.Fatalf("PATCH applied (version %d) while a checkpoint held the store", v)
	}
	if status := <-done; status != http.StatusOK {
		t.Fatalf("PATCH after the checkpoint released the store: %d", status)
	}
	if v := entry.Version(); v != 2 {
		t.Fatalf("version %d after the PATCH, want 2", v)
	}
}

// TestPersistenceReplaceRaces: a mutation racing a re-registration or a
// delete of the same document id either applies and logs before the record
// that retires its entry, or loses the race (404 or 409) and logs nothing.
// Four pairs race on one id, every request of a round at once: PUT vs
// PATCH, DELETE vs PATCH, PUT vs policy install and PUT vs PUT. Odd rounds
// checkpoint after every mutation. After each round a reopen must succeed
// and serve exactly what the server served before it closed: blob, ETag,
// delta, document info and policies.
func TestPersistenceReplaceRaces(t *testing.T) {
	type step struct{ method, path, body string }
	repeat := func(n int, f func(i int) step) []step {
		steps := make([]step, n)
		for i := range steps {
			steps[i] = f(i)
		}
		return steps
	}
	// register re-registers the document n times, each time with a
	// different variant of the same size, so concurrent PUTs finish their
	// protection work at about the same time.
	doc := hospitalXML(16)
	register := func(first, n int) []step {
		return repeat(n, func(i int) step {
			return step{http.MethodPut, "/docs/doc", strings.Replace(doc, "<Fname>", fmt.Sprintf("<Fname>r%d", first+i), 1)}
		})
	}
	patches := repeat(6, func(i int) step {
		return step{http.MethodPatch, "/docs/doc",
			fmt.Sprintf(`{"edits":[{"op":"set-text","path":"/Hospital/Folder[1]/Admin/Fname","text":"v%d"}]}`, i)}
	})
	policies := repeat(4, func(i int) step {
		return step{http.MethodPut, fmt.Sprintf("/docs/doc/policies/s%d", i), secretaryRulesJSON}
	})
	races := []struct {
		name  string
		steps []step
	}{
		{"PUT vs PATCH", append(register(0, 2), patches...)},
		{"DELETE vs PATCH", append([]step{{http.MethodDelete, "/docs/doc", ""}}, patches...)},
		{"PUT vs policy install", append(register(0, 2), policies...)},
		{"PUT vs PUT", register(0, 4)},
	}
	state := func(ts *httptest.Server) string {
		var b strings.Builder
		for _, path := range []string{"/docs/doc", "/docs/doc/blob", "/docs/doc/delta?from=1",
			"/docs/doc/policies/s0", "/docs/doc/policies/s1", "/docs/doc/policies/s2", "/docs/doc/policies/s3"} {
			resp, body := do(t, http.MethodGet, ts.URL+path, "")
			fmt.Fprintf(&b, "%s %d %s %x\n", path, resp.StatusCode, resp.Header.Get("ETag"), sha256.Sum256([]byte(body)))
		}
		return b.String()
	}
	const rounds = 6
	for _, race := range races {
		var lost atomic.Int64
		for round := 0; round < rounds; round++ {
			dir := t.TempDir()
			opts := Options{}
			if round%2 == 1 {
				opts.CheckpointWALBytes = 1
			}
			srv, ts := openDurable(t, dir, opts)
			putDoc(t, ts, "doc", hospitalXML(4))
			start := make(chan struct{})
			var wg sync.WaitGroup
			for _, st := range race.steps {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					req, err := http.NewRequest(st.method, ts.URL+st.path, strings.NewReader(st.body))
					if err != nil {
						t.Error(err)
						return
					}
					resp, err := http.DefaultClient.Do(req)
					if err != nil {
						t.Error(err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					switch resp.StatusCode {
					case http.StatusOK, http.StatusCreated, http.StatusNoContent:
					case http.StatusNotFound, http.StatusConflict:
						lost.Add(1)
					default:
						t.Errorf("%s: %s %s answered %d", race.name, st.method, st.path, resp.StatusCode)
					}
				}()
			}
			close(start)
			wg.Wait()
			want := state(ts)
			ts.Close()
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			srv2, err := Open(Options{DataDir: dir})
			if err != nil {
				t.Fatalf("%s, round %d: reopen failed: %v", race.name, round, err)
			}
			ts2 := httptest.NewServer(srv2.Handler())
			got := state(ts2)
			ts2.Close()
			srv2.Close()
			if got != want {
				t.Fatalf("%s, round %d: recovered state differs from the state served before close:\n got %s\nwant %s",
					race.name, round, got, want)
			}
		}
		t.Logf("%s: %d requests lost their race in %d rounds", race.name, lost.Load(), rounds)
	}
}
