package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"xmlac"
)

// foldView records one view outcome of document "doc" straight into a
// ledger: nil metrics model a view that failed before scanning.
func foldView(l *ledger, subject, policy string, wire int64, m *xmlac.Metrics, err error) {
	l.recordView(viewOutcome{doc: "doc", subject: subject, policy: policy, wireBytes: wire, metrics: m, err: err})
}

// sessionOf returns a snapshot's record of one (document, subject) session
// (zero when the snapshot has none).
func sessionOf(snap *metricsSnapshot, docID, subject string) SessionStats {
	for _, st := range snap.Sessions {
		if st.Document == docID && st.Subject == subject {
			return st
		}
	}
	return SessionStats{}
}

// TestCostRegistryCardinalityCap: 10k distinct subjects stay within the
// ledger's cost key cap — the overflow folds into the "other" bucket and
// nothing is lost.
func TestCostRegistryCardinalityCap(t *testing.T) {
	l := newLedger(0, nil)
	l.costCap = 32
	for i := 0; i < 10_000; i++ {
		foldView(l, fmt.Sprintf("subject-%05d", i), "hash-a", 100,
			&xmlac.Metrics{BytesDecrypted: 10}, nil)
	}
	l.mu.Lock()
	distinct := len(l.costs)
	l.mu.Unlock()
	if distinct != 32 {
		t.Fatalf("ledger tracks %d cost keys, cap is 32", distinct)
	}
	snap := l.snapshot(10).Costs
	if len(snap.Entries) != 10 {
		t.Fatalf("snapshot(10) returned %d entries", len(snap.Entries))
	}
	if snap.Distinct != 32 || snap.Collapsed != 10_000-32 {
		t.Fatalf("snapshot shape distinct=%d collapsed=%d, want 32 / %d",
			snap.Distinct, snap.Collapsed, 10_000-32)
	}
	if snap.Other == nil {
		t.Fatal("snapshot misses the other rollup")
	}
	// No recording was lost: top-10 + other account for all 10k views and
	// their bytes.
	total := snap.Other.Views
	bytes := snap.Other.BytesDecrypted
	for _, e := range snap.Entries {
		total += e.Views
		bytes += e.BytesDecrypted
	}
	if total != 10_000 || bytes != 100_000 {
		t.Fatalf("views/bytes accounted %d/%d, want 10000/100000", total, bytes)
	}
}

// TestCostRegistryRanking: snapshot ranks by views, ties by wire bytes, and
// rolls beyond-K buckets into other.
func TestCostRegistryRanking(t *testing.T) {
	l := newLedger(0, nil)
	for i := 0; i < 3; i++ {
		foldView(l, "heavy", "h1", 50, &xmlac.Metrics{}, nil)
	}
	foldView(l, "light", "h2", 10, &xmlac.Metrics{}, errors.New("aborted"))
	foldView(l, "mid", "h3", 999, &xmlac.Metrics{}, nil)

	snap := l.snapshot(2).Costs
	if len(snap.Entries) != 2 || snap.Entries[0].Subject != "heavy" || snap.Entries[1].Subject != "mid" {
		t.Fatalf("ranking wrong: %+v", snap.Entries)
	}
	if snap.Other == nil || snap.Other.Views != 1 || snap.Other.Errors != 1 {
		t.Fatalf("beyond-K bucket not rolled into other: %+v", snap.Other)
	}
}

// TestPromLabelEscaping: hostile subject names (quotes, backslashes,
// newlines) survive the exposition as escaped label values that the format
// checker accepts, without breaking any other line.
func TestPromLabelEscaping(t *testing.T) {
	srv, ts, _ := newLoggedServer(t, Options{})
	hostile := []string{
		`evil"quote`,
		`back\slash`,
		"multi\nline",
		`all"of\them` + "\n" + `at once`,
	}
	for _, subject := range hostile {
		foldView(srv.ledger, subject, `policy"hash\`, 42, &xmlac.Metrics{BytesDecrypted: 7}, nil)
	}

	resp, body := do(t, http.MethodGet, ts.URL+"/metrics.prom", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics.prom: %d", resp.StatusCode)
	}
	subjectLines := 0
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("malformed sample line: %q", line)
		}
		if strings.HasPrefix(line, "xmlac_subject_views_total{") {
			subjectLines++
		}
	}
	if subjectLines != len(hostile) {
		t.Fatalf("%d subject series, want one per hostile subject (%d):\n%s",
			subjectLines, len(hostile), body)
	}
	for _, want := range []string{`subject="evil\"quote"`, `subject="back\\slash"`, `subject="multi\nline"`} {
		if !strings.Contains(body, want) {
			t.Fatalf("escaped label %s missing from exposition", want)
		}
	}
	if strings.Contains(body, "multi\nline\"") {
		t.Fatal("raw newline leaked into a label value")
	}
}

// TestDebugCostsSurface: views accumulate per (subject, policy) buckets
// served ranked on /debug/costs, with phase time visible.
func TestDebugCostsSurface(t *testing.T) {
	_, ts, _ := newLoggedServer(t, Options{})
	putDoc(t, ts, "hospital", hospitalXML(4))
	putPolicy(t, ts, "hospital", "secretary", `{"rules":[{"sign":"+","object":"//Admin"}]}`)
	putPolicy(t, ts, "hospital", "DrA", `{"rules":[{"sign":"+","object":"//Folder/Admin"}]}`)

	for i := 0; i < 2; i++ {
		if resp, _ := do(t, http.MethodGet, ts.URL+"/docs/hospital/view?subject=secretary", ""); resp.StatusCode != http.StatusOK {
			t.Fatalf("secretary view %d: %d", i, resp.StatusCode)
		}
	}
	if resp, _ := do(t, http.MethodGet, ts.URL+"/docs/hospital/view?subject=DrA", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("DrA view: %d", resp.StatusCode)
	}

	resp, body := do(t, http.MethodGet, ts.URL+"/debug/costs", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/costs: %d %s", resp.StatusCode, body)
	}
	var snap struct {
		Entries []struct {
			Subject   string `json:"subject"`
			Policy    string `json:"policy"`
			Views     int64  `json:"views"`
			WireBytes int64  `json:"wire_bytes"`
			Phases    struct {
				EvalNs int64
			} `json:"phases"`
		} `json:"entries"`
		Distinct int `json:"distinct"`
	}
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("costs JSON: %v\n%s", err, body)
	}
	if snap.Distinct != 2 || len(snap.Entries) != 2 {
		t.Fatalf("expected 2 buckets, got %s", body)
	}
	top := snap.Entries[0]
	if top.Subject != "secretary" || top.Views != 2 {
		t.Fatalf("top bucket %+v, want secretary with 2 views", top)
	}
	if top.Policy == "" || top.WireBytes <= 0 {
		t.Fatalf("bucket misses policy fingerprint or wire bytes: %+v", top)
	}
	if top.Phases.EvalNs <= 0 {
		t.Fatalf("phase breakdown empty despite tracing on: %+v", top)
	}

	// ?k= cuts the rank and rolls the rest into other.
	_, body = do(t, http.MethodGet, ts.URL+"/debug/costs?k=1", "")
	var cut struct {
		Entries []struct {
			Subject string `json:"subject"`
		} `json:"entries"`
		Other *struct {
			Subject string `json:"subject"`
			Views   int64  `json:"views"`
		} `json:"other"`
	}
	if err := json.Unmarshal([]byte(body), &cut); err != nil {
		t.Fatal(err)
	}
	if len(cut.Entries) != 1 || cut.Entries[0].Subject != "secretary" {
		t.Fatalf("k=1 entries: %s", body)
	}
	if cut.Other == nil || cut.Other.Subject != "other" || cut.Other.Views != 1 {
		t.Fatalf("k=1 other rollup: %s", body)
	}

	if resp, _ := do(t, http.MethodGet, ts.URL+"/debug/costs?k=zero", ""); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad k must 400, got %d", resp.StatusCode)
	}
}

// TestFailedViewIsAccounted: a view whose scan fails mid-document (one
// ciphertext byte flipped, so an integrity check fails halfway through)
// still folds its partial work into the server totals, exactly the work its
// scan performed, like a served view's.
func TestFailedViewIsAccounted(t *testing.T) {
	srv := newServerOpts(t, Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	putDoc(t, ts, "hospital", hospitalXML(12))
	good, err := srv.Store().Entry("hospital")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := good.Blob()
	blob = append([]byte(nil), blob...)
	m := good.Manifest()
	blob[m.CiphertextOffset+m.CiphertextLen/2] ^= 0xff
	prot, err := xmlac.UnmarshalProtected(blob)
	if err != nil {
		t.Fatalf("a flipped ciphertext byte must still unmarshal: %v", err)
	}
	reg := registerMeta{Scheme: string(good.Scheme), Passphrase: good.passphrase, CreatedAt: good.CreatedAt, Stats: good.Stats}
	entry, err := srv.Store().install("hospital", reg, prot, blob, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	subjects := []string{"DrA", "DrB"}
	var partial int64
	for _, subj := range subjects {
		policy := xmlac.Policy{Rules: []xmlac.Rule{{Sign: "+", Object: "//Folder"}}}
		if _, err := entry.SetPolicy(subj, policy, time.Time{}, nil); err != nil {
			t.Fatal(err)
		}
		rec, err := entry.PolicyFor(subj)
		if err != nil {
			t.Fatal(err)
		}
		// The physical work of one failed scan, measured directly.
		m, scanErr := entry.StreamView(rec.Compiled, xmlac.ViewOptions{}, io.Discard)
		if scanErr == nil || m == nil {
			t.Fatalf("corrupted scan must fail with partial metrics, got %v / %+v", scanErr, m)
		}
		if m.BytesDecrypted <= 0 {
			t.Fatal("failed scan reports no decrypted bytes; the flip landed too early")
		}
		partial += m.BytesDecrypted
	}

	for _, subj := range subjects {
		do(t, http.MethodGet, fmt.Sprintf("%s/docs/hospital/view?subject=%s", ts.URL, subj), "")
	}

	_, body := do(t, http.MethodGet, ts.URL+"/metrics", "")
	var metrics struct {
		ViewErrors int64         `json:"view_errors"`
		Totals     xmlac.Metrics `json:"totals"`
	}
	if err := json.Unmarshal([]byte(body), &metrics); err != nil {
		t.Fatal(err)
	}
	if metrics.ViewErrors != 2 {
		t.Fatalf("view_errors = %d, want 2", metrics.ViewErrors)
	}
	if got := metrics.Totals.BytesDecrypted; got != partial {
		t.Fatalf("totals.BytesDecrypted = %d, want the failed scans' %d", got, partial)
	}
}

// TestSnapshotConsistentUnderConcurrentViews: snapshots taken while views
// fold concurrently are each internally consistent — the sessions and the
// cost buckets sum to the totals — because a view folds into all of them
// under one lock and a snapshot copies them under the same lock.
func TestSnapshotConsistentUnderConcurrentViews(t *testing.T) {
	l := newLedger(0, nil)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				var err error
				if i%7 == 0 {
					err = errors.New("aborted")
				}
				foldView(l, fmt.Sprintf("s%d", (g+i)%6), "h", 10,
					&xmlac.Metrics{BytesDecrypted: int64(g + 1)}, err)
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	check := func(snap *metricsSnapshot) {
		t.Helper()
		attempts := snap.ViewsServed + snap.ViewErrors
		var sessViews, sessDecrypted, costViews, costDecrypted int64
		for _, s := range snap.Sessions {
			sessViews += s.Views + s.Errors
			sessDecrypted += s.Totals.BytesDecrypted
		}
		entries := snap.Costs.Entries
		if snap.Costs.Other != nil {
			entries = append(entries, *snap.Costs.Other)
		}
		for _, e := range entries {
			costViews += e.Views
			costDecrypted += e.BytesDecrypted
		}
		if sessViews != attempts || costViews != attempts {
			t.Fatalf("views: sessions %d, costs %d, totals %d", sessViews, costViews, attempts)
		}
		if sessDecrypted != snap.Totals.BytesDecrypted || costDecrypted != snap.Totals.BytesDecrypted {
			t.Fatalf("bytes decrypted: sessions %d, costs %d, totals %d", sessDecrypted, costDecrypted, snap.Totals.BytesDecrypted)
		}
		// The histograms observe served views only, in the same fold.
		if got := snap.Histograms.ViewBytes.Count; got != snap.ViewsServed {
			t.Fatalf("view-bytes histogram observed %d views, views served %d", got, snap.ViewsServed)
		}
	}
	for {
		select {
		case <-done:
			snap := l.snapshot(maxCostTopK)
			check(snap)
			if snap.ViewsServed+snap.ViewErrors != 2000 {
				t.Fatalf("%d views folded, want 2000", snap.ViewsServed+snap.ViewErrors)
			}
			return
		default:
			check(l.snapshot(maxCostTopK))
		}
	}
}

// promSamples parses a text exposition into sample values keyed by the
// metric name plus label set.
func promSamples(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			t.Fatalf("sample value unparseable in %q: %v", line, err)
		}
		out[line[:cut]] = v
	}
	return out
}

// TestMetricsSurfacesAgree: GET /metrics, GET /metrics.prom and
// GET /debug/costs render the same ledger, so after pairs of concurrent
// views every counter they have in common reads the same on all three, and
// the per-subject rows sum to the totals.
func TestMetricsSurfacesAgree(t *testing.T) {
	srv, ts, _ := newLoggedServer(t, Options{clock: newFakeClock()})
	putDoc(t, ts, "hospital", hospitalXML(6))
	for _, subject := range []string{"DrA", "DrB", "DrC", "DrD"} {
		putPolicy(t, ts, "hospital", subject, doctorRulesJSON)
	}
	for _, pair := range [][2]string{{"DrA", "DrB"}, {"DrC", "DrD"}, {"DrA", "DrC"}} {
		var wg sync.WaitGroup
		for _, subject := range pair {
			wg.Add(1)
			go func(subject string) {
				defer wg.Done()
				if resp, body := do(t, http.MethodGet, ts.URL+"/docs/hospital/view?subject="+subject, ""); resp.StatusCode != http.StatusOK {
					t.Errorf("view %s: %d %s", subject, resp.StatusCode, body)
				}
			}(subject)
		}
		wg.Wait()
	}

	var js metricsSnapshot
	_, body := do(t, http.MethodGet, ts.URL+"/metrics", "")
	if err := json.Unmarshal([]byte(body), &js); err != nil {
		t.Fatalf("decoding /metrics: %v", err)
	}
	_, body = do(t, http.MethodGet, ts.URL+"/metrics.prom", "")
	prom := promSamples(t, body)
	var costs costSnapshot
	_, body = do(t, http.MethodGet, ts.URL+fmt.Sprintf("/debug/costs?k=%d", maxCostTopK), "")
	if err := json.Unmarshal([]byte(body), &costs); err != nil {
		t.Fatalf("decoding /debug/costs: %v", err)
	}

	if js.ViewsServed != 6 || js.ViewErrors != 0 {
		t.Fatalf("/metrics views_served=%d view_errors=%d, want 6/0", js.ViewsServed, js.ViewErrors)
	}
	same := func(what string, want int64, got float64) {
		t.Helper()
		if float64(want) != got {
			t.Errorf("%s: /metrics %d, /metrics.prom %v", what, want, got)
		}
	}
	same("views served", js.ViewsServed, prom["xmlac_views_served_total"])
	same("view errors", js.ViewErrors, prom["xmlac_view_errors_total"])
	same("bytes transferred", js.Totals.BytesTransferred, prom["xmlac_bytes_transferred_total"])
	same("bytes decrypted", js.Totals.BytesDecrypted, prom["xmlac_bytes_decrypted_total"])
	same("sessions", int64(len(js.Sessions)), prom["xmlac_sessions"])
	same("view duration count", js.Histograms.ViewSeconds.Count, prom["xmlac_view_duration_seconds_count"])

	// Per-subject rows sum to the totals on every surface.
	var sessDecrypted, costViews, costDecrypted int64
	for _, s := range js.Sessions {
		sessDecrypted += s.Totals.BytesDecrypted
	}
	for _, e := range costs.Entries {
		costViews += e.Views
		costDecrypted += e.BytesDecrypted
		labels := promSubjectLabels(e.Subject, e.Policy)
		same(e.Subject+" views", e.Views, prom["xmlac_subject_views_total"+labels])
		same(e.Subject+" bytes decrypted", e.BytesDecrypted, prom["xmlac_subject_bytes_decrypted_total"+labels])
	}
	if costs.Other != nil || len(costs.Entries) != 4 {
		t.Fatalf("/debug/costs: %d entries (other %v), want the 4 subjects", len(costs.Entries), costs.Other)
	}
	if sessDecrypted != js.Totals.BytesDecrypted || costDecrypted != js.Totals.BytesDecrypted {
		t.Fatalf("bytes decrypted: sessions %d, costs %d, totals %d", sessDecrypted, costDecrypted, js.Totals.BytesDecrypted)
	}
	if costViews != js.ViewsServed {
		t.Fatalf("cost views %d, views served %d", costViews, js.ViewsServed)
	}
	if got := srv.snapshot(0).Costs; len(got.Entries) != len(costs.Entries) {
		t.Fatalf("in-process snapshot has %d cost rows, /debug/costs %d", len(got.Entries), len(costs.Entries))
	}
}
