package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"xmlac"
)

// TestCoalesceAdmit unit-tests the admission decisions of the coalescing
// table: the first request of a wave leads, requests inside the window join,
// filling the cap seals the batch, and arrivals during a sealed (scanning)
// batch run their own singleton batch instead of queueing.
func TestCoalesceAdmit(t *testing.T) {
	c := newCoalescer(time.Hour, 3, newFakeClock()) // the window never elapses during the test
	key := "doc\x00etag"
	newReq := func() *viewRequest { return &viewRequest{done: make(chan struct{})} }

	lead := newReq()
	b, admitted := c.admit(key, nil, lead)
	if admitted != admitLead || b == nil || len(b.reqs) != 1 {
		t.Fatalf("first request must lead a new batch, got %v", admitted)
	}
	if _, admitted := c.admit(key, nil, newReq()); admitted != admitJoin {
		t.Fatalf("second request must join the open batch, got %v", admitted)
	}
	select {
	case <-b.sealCh:
		t.Fatal("batch sealed before the cap filled")
	default:
	}
	if _, admitted := c.admit(key, nil, newReq()); admitted != admitJoin {
		t.Fatal("third request must join")
	}
	select {
	case <-b.sealCh:
	default:
		t.Fatal("filling the cap must seal the batch immediately")
	}
	// Sealed batch still in the table: a late joiner goes solo.
	if _, admitted := c.admit(key, nil, newReq()); admitted != admitSolo {
		t.Fatal("arrival during a sealed batch must fall back to solo")
	}
	c.finish(key, b)
	// After the scan finished a new wave can form.
	if _, admitted := c.admit(key, nil, newReq()); admitted != admitLead {
		t.Fatal("first request after a finished batch must lead a new wave")
	}
}

// openBatchCount reports the number of open coalescing batches (test
// instrumentation; the fake-clock tests poll it to know a leader is waiting).
func (c *coalescer) openBatchCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.open)
}

// TestViewCoalescingSharedScan runs three concurrent GET /view requests for
// distinct subjects of the same document with a cap of three: they must
// coalesce into one shared scan, each receiving exactly the bytes its solo
// scan would produce, and /metrics must report the batch. The fake clock
// never advances, so the join window cannot elapse early on a loaded
// runner — the cap alone seals the batch, deterministically.
func TestViewCoalescingSharedScan(t *testing.T) {
	srv := newServerOpts(t, Options{CoalesceWindow: 2 * time.Second, CoalesceMaxSubjects: 3, clock: newFakeClock()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	xml := hospitalXML(12)
	putDoc(t, ts, "hospital", xml)
	subjects := []string{"DrA", "DrB", "DrC"}
	for _, subj := range subjects {
		putPolicy(t, ts, "hospital", subj, doctorRulesJSON)
	}

	// Expected bytes: each subject's one-view scan, straight off the store.
	entry, err := srv.Store().Entry("hospital")
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string, len(subjects))
	for _, subj := range subjects {
		rec, err := entry.PolicyFor(subj)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := rec.Policy.Compile()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := entry.StreamViews([]xmlac.CompiledView{{Policy: cp, Output: &buf}}); err != nil {
			t.Fatal(err)
		}
		want[subj] = buf.String()
	}

	var wg sync.WaitGroup
	bodies := make([]string, len(subjects))
	errs := make([]error, len(subjects))
	for i, subj := range subjects {
		wg.Add(1)
		go func(i int, subj string) {
			defer wg.Done()
			resp, body := do(t, http.MethodGet, fmt.Sprintf("%s/docs/hospital/view?subject=%s", ts.URL, subj), "")
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("subject %s: status %d: %s", subj, resp.StatusCode, body)
				return
			}
			bodies[i] = body
		}(i, subj)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, subj := range subjects {
		if bodies[i] != want[subj] {
			t.Fatalf("subject %s: coalesced view differs from solo view (%d vs %d bytes)",
				subj, len(bodies[i]), len(want[subj]))
		}
	}

	resp, body := do(t, http.MethodGet, ts.URL+"/metrics", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	var metrics struct {
		Coalescing struct {
			Enabled   bool               `json:"enabled"`
			Documents []CoalesceDocStats `json:"documents"`
		} `json:"coalescing"`
	}
	if err := json.Unmarshal([]byte(body), &metrics); err != nil {
		t.Fatalf("decoding /metrics: %v", err)
	}
	if !metrics.Coalescing.Enabled {
		t.Fatal("/metrics must report coalescing enabled")
	}
	if len(metrics.Coalescing.Documents) != 1 {
		t.Fatalf("expected one document's coalescing stats, got %+v", metrics.Coalescing.Documents)
	}
	st := metrics.Coalescing.Documents[0]
	if st.Document != "hospital" || st.SharedScans != 1 || st.CoalescedViews != 3 {
		t.Fatalf("expected one shared scan of 3 subjects, got %+v", st)
	}
	if st.SubjectsPerScan["le_4"] != 1 {
		t.Fatalf("3-subject scan must land in bucket le_4, got %+v", st.SubjectsPerScan)
	}

	// Amortized accounting: the three coalesced views fold exactly one shared
	// pass into the server totals — not three times the shared-cost fields
	// each client's trailers report.
	var totals struct {
		Totals xmlac.Metrics `json:"totals"`
	}
	if err := json.Unmarshal([]byte(body), &totals); err != nil {
		t.Fatal(err)
	}
	direct := make([]xmlac.CompiledView, 0, len(subjects))
	for _, subj := range subjects {
		rec, err := entry.PolicyFor(subj)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := rec.Policy.Compile()
		if err != nil {
			t.Fatal(err)
		}
		direct = append(direct, xmlac.CompiledView{Policy: cp, Output: io.Discard})
	}
	results, err := entry.StreamViews(direct)
	if err != nil {
		t.Fatal(err)
	}
	sharedDecrypted := results[0].Metrics.BytesDecrypted
	if sharedDecrypted <= 0 {
		t.Fatal("shared scan must decrypt bytes")
	}
	if got := totals.Totals.BytesDecrypted; got != sharedDecrypted {
		t.Fatalf("totals.BytesDecrypted = %d, want exactly one shared pass (%d), not %d",
			got, sharedDecrypted, 3*sharedDecrypted)
	}
}

// TestViewCoalescingSingleton: with nobody joining inside the window, the
// leader serves itself as a one-view shared scan and the batch is recorded as a
// solo scan. The fake clock makes the sequence deterministic: the request
// provably waits inside the window until the test elapses it, instead of
// racing a real 5ms timer.
func TestViewCoalescingSingleton(t *testing.T) {
	fc := newFakeClock()
	srv := newServerOpts(t, Options{CoalesceWindow: 5 * time.Millisecond, clock: fc})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	putDoc(t, ts, "doc", hospitalXML(4))
	putPolicy(t, ts, "doc", "DrA", doctorRulesJSON)

	type result struct {
		status int
		body   string
	}
	done := make(chan result, 1)
	go func() {
		resp, body := do(t, http.MethodGet, ts.URL+"/docs/doc/view?subject=DrA", "")
		done <- result{resp.StatusCode, body}
	}()
	// The leader is blocked waiting for company until the window elapses.
	for srv.coalesce.openBatchCount() == 0 {
		select {
		case res := <-done:
			t.Fatalf("request finished before the window elapsed (status %d, %d bytes)", res.status, len(res.body))
		default:
			time.Sleep(100 * time.Microsecond)
		}
	}
	fc.Advance(5 * time.Millisecond)
	res := <-done
	if res.status != http.StatusOK || len(res.body) == 0 {
		t.Fatalf("GET /view: %d (%d bytes)", res.status, len(res.body))
	}
	snap := srv.snapshot(0).Coalescing.Documents
	if len(snap) != 1 || snap[0].SoloScans != 1 || snap[0].SharedScans != 0 {
		t.Fatalf("singleton batch must be recorded as a solo scan: %+v", snap)
	}
}

// blockingWriter holds a response's first body write until release is
// closed, keeping the scan that writes it in flight.
type blockingWriter struct {
	http.ResponseWriter
	entered chan struct{} // closed when the first write arrives
	release chan struct{}
	once    sync.Once
}

func (b *blockingWriter) Write(p []byte) (int, error) {
	b.once.Do(func() {
		close(b.entered)
		<-b.release
	})
	return b.ResponseWriter.Write(p)
}

func (b *blockingWriter) Flush() { b.ResponseWriter.(http.Flusher).Flush() }

// TestViewCoalescingLateArrival: a request arriving while a sealed batch is
// scanning runs its own singleton batch instead of queueing behind it, and
// the ledger records it as a late fallback and a solo scan. Both requests
// go through the HTTP handler; the first one's scan is held mid-write, so
// the second provably arrives while it is in flight.
func TestViewCoalescingLateArrival(t *testing.T) {
	fc := newFakeClock()
	srv := newServerOpts(t, Options{CoalesceWindow: 5 * time.Millisecond, clock: fc})
	held := &blockingWriter{entered: make(chan struct{}), release: make(chan struct{})}
	h := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("subject") == "DrA" {
			held.ResponseWriter = w
			w = held
		}
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()
	putDoc(t, ts, "doc", hospitalXML(4))
	putPolicy(t, ts, "doc", "DrA", doctorRulesJSON)
	putPolicy(t, ts, "doc", "DrB", doctorRulesJSON)

	leader := make(chan int, 1)
	go func() {
		resp, _ := do(t, http.MethodGet, ts.URL+"/docs/doc/view?subject=DrA", "")
		leader <- resp.StatusCode
	}()
	for srv.coalesce.openBatchCount() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	fc.Advance(5 * time.Millisecond) // seal: the leader starts scanning
	<-held.entered                   // ... and is held at its first write

	resp, body := do(t, http.MethodGet, ts.URL+"/docs/doc/view?subject=DrB", "")
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("late GET /view: %d (%d bytes)", resp.StatusCode, len(body))
	}
	close(held.release)
	if status := <-leader; status != http.StatusOK {
		t.Fatalf("leader GET /view: %d", status)
	}

	docs := srv.snapshot(0).Coalescing.Documents
	if len(docs) != 1 {
		t.Fatalf("expected one document's scan record, got %+v", docs)
	}
	st := docs[0]
	if st.LateFallbacks != 1 || st.SoloScans != 2 || st.SharedScans != 0 || st.CoalescedViews != 0 {
		t.Fatalf("want 1 late fallback and 2 solo scans (the held singleton and the late arrival), got %+v", st)
	}
	if st.SubjectsPerScan["le_1"] != 2 {
		t.Fatalf("both one-view scans must land in bucket le_1, got %+v", st.SubjectsPerScan)
	}
}

// TestViewCoalescingDisabled: DisableCoalescing runs every view alone and
// /metrics reports coalescing off.
func TestViewCoalescingDisabled(t *testing.T) {
	srv := newServerOpts(t, Options{DisableCoalescing: true})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	putDoc(t, ts, "doc", hospitalXML(4))
	putPolicy(t, ts, "doc", "DrA", doctorRulesJSON)
	resp, body := do(t, http.MethodGet, ts.URL+"/docs/doc/view?subject=DrA", "")
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("GET /view: %d (%d bytes)", resp.StatusCode, len(body))
	}
	if srv.coalesce != nil {
		t.Fatal("DisableCoalescing must leave the coalescer nil")
	}
	_, metricsBody := do(t, http.MethodGet, ts.URL+"/metrics", "")
	var metrics struct {
		Coalescing struct {
			Enabled bool `json:"enabled"`
		} `json:"coalescing"`
	}
	if err := json.Unmarshal([]byte(metricsBody), &metrics); err != nil {
		t.Fatal(err)
	}
	if metrics.Coalescing.Enabled {
		t.Fatal("/metrics must report coalescing disabled")
	}
}

// TestFailedCoalescedScanIsAccounted: a coalesced scan that fails
// mid-document (one ciphertext byte flipped, so an integrity check fails
// halfway through) still folds every member's amortized partial work into
// the server totals, exactly one shared pass of it, like a failed solo
// view's work.
func TestFailedCoalescedScanIsAccounted(t *testing.T) {
	srv := newServerOpts(t, Options{CoalesceWindow: 2 * time.Second, CoalesceMaxSubjects: 2, clock: newFakeClock()})
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
	entry := srv.Store().install("hospital", reg, prot, blob, nil)
	subjects := []string{"DrA", "DrB"}
	views := make([]xmlac.CompiledView, len(subjects))
	for i, subj := range subjects {
		policy := xmlac.Policy{Rules: []xmlac.Rule{{Sign: "+", Object: "//Folder"}}}
		if _, err := entry.SetPolicy(subj, policy, time.Time{}); err != nil {
			t.Fatal(err)
		}
		policy.Subject = subj
		cp, err := policy.Compile()
		if err != nil {
			t.Fatal(err)
		}
		views[i] = xmlac.CompiledView{Policy: cp, Output: io.Discard}
	}
	// The physical work of one failed shared scan, measured directly.
	results, scanErr := entry.StreamViews(views)
	if scanErr == nil || results == nil || results[0].Metrics == nil {
		t.Fatalf("corrupted scan must fail with partial results, got %v / %+v", scanErr, results)
	}
	partial := results[0].Metrics.BytesDecrypted
	if partial <= 0 {
		t.Fatal("failed scan reports no decrypted bytes; the flip landed too early")
	}

	var wg sync.WaitGroup
	for _, subj := range subjects {
		wg.Add(1)
		go func(subj string) {
			defer wg.Done()
			do(t, http.MethodGet, fmt.Sprintf("%s/docs/hospital/view?subject=%s", ts.URL, subj), "")
		}(subj)
	}
	wg.Wait()

	_, body := do(t, http.MethodGet, ts.URL+"/metrics", "")
	var metrics struct {
		ViewErrors int64         `json:"view_errors"`
		Totals     xmlac.Metrics `json:"totals"`
		Coalescing struct {
			Documents []CoalesceDocStats `json:"documents"`
		} `json:"coalescing"`
	}
	if err := json.Unmarshal([]byte(body), &metrics); err != nil {
		t.Fatal(err)
	}
	if docs := metrics.Coalescing.Documents; len(docs) != 1 || docs[0].SharedScans != 1 {
		t.Fatalf("the two views must share one scan, got %+v", docs)
	}
	if metrics.ViewErrors != 2 {
		t.Fatalf("view_errors = %d, want 2", metrics.ViewErrors)
	}
	if got := metrics.Totals.BytesDecrypted; got != partial {
		t.Fatalf("totals.BytesDecrypted = %d, want the failed shared pass's %d", got, partial)
	}
}
