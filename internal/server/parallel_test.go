package server

import (
	"bytes"
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

// Tests of the server-side parallel-scan plumbing: Options.ViewParallelism
// is the default and the cap for ?parallel=N, parallel delivery stays
// byte-identical to serial, the worker histogram reaches /metrics.prom, and
// a parallel scan racing concurrent PATCHes still serves snapshot-consistent
// views (the region workers all read one immutable snapshot).

func TestParallelViewByteIdenticalAndClamped(t *testing.T) {
	srv := newServerOpts(t, Options{ViewParallelism: 4})
	ts := newServerFor(t, srv)
	xml := hospitalXML(24)
	putDoc(t, ts, "hospital", xml)
	putPolicy(t, ts, "hospital", "clerk", secretaryRulesJSON)
	putPolicy(t, ts, "hospital", "DrA", doctorRulesJSON)

	for _, subject := range []string{"clerk", "DrA"} {
		// ?parallel=0 forces the serial scan on the same server, so the two
		// bodies compare the execution strategies and nothing else.
		respSerial, serial := do(t, http.MethodGet,
			ts.URL+"/docs/hospital/view?subject="+subject+"&parallel=0", "")
		respPar, parallel := do(t, http.MethodGet,
			ts.URL+"/docs/hospital/view?subject="+subject, "")
		if respSerial.StatusCode != http.StatusOK || respPar.StatusCode != http.StatusOK {
			t.Fatalf("%s: status serial=%d parallel=%d", subject, respSerial.StatusCode, respPar.StatusCode)
		}
		if serial != parallel {
			t.Fatalf("%s: parallel view differs from serial", subject)
		}
		// The per-view trailers carry the subject's own counters; they must
		// not depend on the execution strategy either.
		for _, trailer := range []string{trailerBytesSkipped, trailerNodesPermitted} {
			if s, p := respSerial.Trailer.Get(trailer), respPar.Trailer.Get(trailer); s != p {
				t.Errorf("%s: trailer %s: serial %q, parallel %q", subject, trailer, s, p)
			}
		}
	}

	// A request may lower the cap but never raise it; malformed values fall
	// back to the server default.
	for param, want := range map[string]int{"": 4, "0": 0, "1": 1, "3": 3, "4": 4, "8": 4, "-2": 4, "bogus": 4} {
		if got := srv.viewParallelism(param); got != want {
			t.Errorf("viewParallelism(%q) = %d, want %d", param, got, want)
		}
	}

	// The worker histogram reaches the scrape surface.
	resp, prom := do(t, http.MethodGet, ts.URL+"/metrics.prom", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics.prom: %d", resp.StatusCode)
	}
	if !strings.Contains(prom, "xmlac_view_workers_bucket") {
		t.Fatalf("/metrics.prom lacks the xmlac_view_workers histogram")
	}
	// The serial views above observed 0 workers; the parallel ones a
	// positive count — so the total must exceed the le="0" bucket.
	if !strings.Contains(prom, `xmlac_view_workers_bucket{le="0"}`) {
		t.Fatalf("worker histogram lacks the serial (0) bucket:\n%s", prom)
	}
	snap := srv.snapshot(0).Histograms.ViewWorkers
	if snap.Count < 4 {
		t.Fatalf("worker histogram observed %d views, want >= 4", snap.Count)
	}
	if snap.Sum <= 0 {
		t.Fatalf("no view ran parallel: worker histogram sum is %v", snap.Sum)
	}
}

// newServerFor wraps an already-constructed Server in a test HTTP listener.
func newServerFor(t *testing.T, srv *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// patchSetText issues one set-text PATCH against the test server.
func patchSetText(ts *httptest.Server, path, value string) error {
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

// expectedClerkViews computes, with the library directly, the clerk's view of
// every reachable (a, b) writer-progress state of the race below.
func expectedClerkViews(t *testing.T, xml string, steps int, valueA, valueB func(int) string) map[string]string {
	t.Helper()
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
	return expected
}

// TestConcurrentPatchAndParallelViews races region-parallel GET /view
// against concurrent PATCHes: every delivered body must be the exact view of
// one reachable (writer-A-progress, writer-B-progress) document state —
// never a torn mix — because every region worker of one scan reads the same
// immutable snapshot. Run under -race in CI (the whole test job is).
func TestConcurrentPatchAndParallelViews(t *testing.T) {
	srv := newServerOpts(t, Options{ViewParallelism: 4})
	ts := newServerFor(t, srv)
	const folders = 8
	xml := xmlstream.SerializeTree(dataset.HospitalFolders(folders, 7), false)
	putDoc(t, ts, "hospital", xml)
	putPolicy(t, ts, "hospital", "clerk", secretaryRulesJSON)

	const steps = 3
	valueA := func(i int) string { return fmt.Sprintf("alpha%03d", i) }
	valueB := func(i int) string { return fmt.Sprintf("beta%04d", i) }
	expected := expectedClerkViews(t, xml, steps, valueA, valueB)

	var wg sync.WaitGroup
	writerErrs := make([]error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 1; i <= steps; i++ {
			if err := patchSetText(ts, "/Hospital/Folder[1]/Admin/Fname", valueA(i)); err != nil {
				writerErrs[0] = err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 1; i <= steps; i++ {
			if err := patchSetText(ts, "/Hospital/Folder[2]/Admin/Fname", valueB(i)); err != nil {
				writerErrs[1] = err
				return
			}
		}
	}()

	const readers = 6
	const viewsPerReader = 5
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
	for i, err := range writerErrs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	for g, err := range readerErrs {
		if err != nil {
			t.Fatal(g, err)
		}
	}
	for g := range bodies {
		for i, body := range bodies[g] {
			if _, ok := expected[body]; !ok {
				t.Fatalf("reader %d view %d: body matches no consistent document state:\n%s", g, i, body)
			}
		}
	}
}
