package xmlac_test

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

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

// TestRemoteViewParity is the acceptance check of the remote subsystem: for
// each built-in policy on the hospital dataset, the view fetched through
// internal/remote is byte-identical to the local AuthorizedViewCompiled
// output with identical SOE cost metrics, and whenever the Skip index
// skipped bytes, the wire carried strictly less than the full encrypted
// document.
func TestRemoteViewParity(t *testing.T) {
	docURL, prot, key := startBlobServer(t, 48)
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
			wantView, wantMetrics, err := prot.AuthorizedViewCompiled(key, cp, xmlac.ViewOptions{})
			if err != nil {
				t.Fatal(err)
			}
			doc, err := xmlac.OpenRemote(docURL, key)
			if err != nil {
				t.Fatal(err)
			}
			gotView, gotMetrics, err := doc.AuthorizedViewCompiled(cp, xmlac.ViewOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if gotView.XML() != wantView.XML() {
				t.Fatalf("remote view differs from local view:\nremote: %.200s\nlocal:  %.200s", gotView.XML(), wantView.XML())
			}
			// The SOE cost model is source-independent: every counter except
			// the wire counters must match the local evaluation exactly.
			scrubbed := *gotMetrics
			scrubbed.BytesOnWire, scrubbed.RoundTrips, scrubbed.Duration = 0, 0, 0
			want := *wantMetrics
			want.Duration = 0
			if scrubbed != want {
				t.Fatalf("remote SOE metrics differ:\nremote: %+v\nlocal:  %+v", scrubbed, wantMetrics)
			}
			if gotMetrics.BytesSkipped == 0 {
				t.Fatalf("policy %s skipped nothing; dataset too small for the test to mean anything", policy.Subject)
			}
			if gotMetrics.BytesOnWire <= 0 || gotMetrics.RoundTrips <= 0 {
				t.Fatalf("remote evaluation reported no wire activity: %+v", gotMetrics)
			}
			// Strictness: even counting the open-time manifest and digest
			// fetches, the remote SOE transferred less than the document.
			wire, _ := doc.WireStats()
			if wire >= int64(prot.Size()) {
				t.Fatalf("wire bytes %d >= encrypted document %d despite %d bytes skipped",
					wire, prot.Size(), gotMetrics.BytesSkipped)
			}
			t.Logf("%s: %d wire bytes for a %d byte document (%d skipped, %d round trips)",
				policy.Subject, wire, prot.Size(), gotMetrics.BytesSkipped, gotMetrics.RoundTrips)
		})
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
	want, firstMetrics, err := doc.AuthorizedViewCompiled(cp, xmlac.ViewOptions{})
	if err != nil {
		t.Fatal(err)
	}
	again, againMetrics, err := doc.AuthorizedViewCompiled(cp, xmlac.ViewOptions{})
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
				if _, _, err := doc.AuthorizedViewCompiled(cp, xmlac.ViewOptions{}); err != nil {
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
			// back with no Skip-index jumps.
			if _, _, err := full.AuthorizedViewCompiled(key, cp, xmlac.ViewOptions{DisableSkipIndex: true}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(wire)/float64(b.N), "wire-B/view")
	})
}

// TestRemoteStreamTraceHasOneViewRootSpan pins the single-view trace
// contract of a remote stream: the evaluation records exactly one
// view:<subject> root span under its TraceID, carrying the page-cache counts
// in its Detail, and no shared-scan span. Trace consumers derive the page
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
		if _, err := doc.StreamAuthorizedViewCompiled(cp, xmlac.ViewOptions{Trace: tr, TraceID: id}, io.Discard); err != nil {
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
	}
}
