package xmlac_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"xmlac"
	"xmlac/internal/dataset"
	"xmlac/internal/secure"
	"xmlac/internal/xmlstream"
)

// Public-API differential harness for the parallel intra-document scan:
// ViewOptions.Parallelism is an execution strategy, never a semantics
// change, so for every worker count the delivered view must be byte-
// identical to the serial scan's and the per-subject decision counters must
// be exactly equal. Only the documented cost fields (BytesTransferred,
// BytesDecrypted, EstimatedSmartCardSeconds) may grow — by the region
// planning reads and the chunk re-decrypts at region boundaries — and only
// the wall-clock fields (Duration, TimeToFirstByte, PhaseBreakdown) and
// Workers may differ arbitrarily.

// scrubParallelCosts zeroes the fields the parallel scan is documented to
// change, leaving the per-subject decision counters for exact comparison.
func scrubParallelCosts(m *xmlac.Metrics) xmlac.Metrics {
	out := *m
	out.BytesTransferred = 0
	out.BytesDecrypted = 0
	out.EstimatedSmartCardSeconds = 0
	out.TimeToFirstByte = 0
	out.Duration = 0
	out.PhaseBreakdown = xmlac.PhaseBreakdown{}
	out.Workers = 0
	return out
}

func protectHospital(t *testing.T, folders int) (*xmlac.Protected, xmlac.Key, string) {
	t.Helper()
	xml := xmlstream.SerializeTree(dataset.HospitalFolders(folders, 3), false)
	doc, err := xmlac.ParseDocumentString(xml)
	if err != nil {
		t.Fatal(err)
	}
	key := xmlac.DeriveKey("parallel view tests")
	prot, err := xmlac.Protect(doc, key, xmlac.SchemeECBMHT)
	if err != nil {
		t.Fatal(err)
	}
	return prot, key, xml
}

func TestParallelViewDifferentialHarness(t *testing.T) {
	prot, key, _ := protectHospital(t, 48)
	for _, policy := range streamParityPolicies() {
		cp, err := policy.Compile()
		if err != nil {
			t.Fatal(err)
		}
		for _, dummy := range []bool{false, true} {
			serialOpts := xmlac.ViewOptions{DummyDeniedNames: dummy}
			var serial bytes.Buffer
			_, serialMetrics, err := prot.View(context.Background(), key, cp, serialOpts, &serial)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4, 8} {
				t.Run(fmt.Sprintf("%s/dummy=%v/workers=%d", policy.Subject, dummy, workers), func(t *testing.T) {
					opts := xmlac.ViewOptions{DummyDeniedNames: dummy, Parallelism: workers}
					var got bytes.Buffer
					_, gotMetrics, err := prot.View(context.Background(), key, cp, opts, &got)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got.Bytes(), serial.Bytes()) {
						t.Fatalf("parallel view differs from serial\nparallel: %.300s\nserial:   %.300s",
							got.String(), serial.String())
					}
					if scrubParallelCosts(gotMetrics) != scrubParallelCosts(serialMetrics) {
						t.Fatalf("per-subject counters differ:\nparallel: %+v\nserial:   %+v", gotMetrics, serialMetrics)
					}
					if gotMetrics.Workers < 1 {
						t.Fatalf("Workers = %d: the parallel path did not engage", gotMetrics.Workers)
					}
					if gotMetrics.BytesTransferred < serialMetrics.BytesTransferred ||
						gotMetrics.BytesDecrypted < serialMetrics.BytesDecrypted {
						t.Fatalf("parallel cost fields below serial:\nparallel: %+v\nserial:   %+v",
							gotMetrics, serialMetrics)
					}
					// The materialized entry point takes the same parallel path.
					view, viewMetrics, err := prot.View(context.Background(), key, cp, opts, nil)
					if err != nil {
						t.Fatal(err)
					}
					if view.XML() != serial.String() {
						t.Fatal("materialized parallel view differs from serial stream")
					}
					if scrubParallelCosts(viewMetrics) != scrubParallelCosts(serialMetrics) {
						t.Fatalf("materialized parallel counters differ:\n%+v\nvs %+v", viewMetrics, serialMetrics)
					}
				})
			}
		}
	}
}

// TestParallelViewAfterUpdates: the parallel scan runs over the current
// snapshot of a mutated document — after chunk-granular updates its view
// must still match the serial view of the same version.
func TestParallelViewAfterUpdates(t *testing.T) {
	prot, key, _ := protectHospital(t, 24)
	cp, err := xmlac.SecretaryPolicy().Compile()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		edits := []xmlac.Edit{{
			Op:   xmlac.EditSetText,
			Path: fmt.Sprintf("/Hospital/Folder[%d]/Admin/Fname", i),
			Text: fmt.Sprintf("edited%02d", i),
		}}
		if _, _, err := prot.Update(key, edits); err != nil {
			t.Fatal(err)
		}
		var serial, parallel bytes.Buffer
		if _, _, err := prot.View(context.Background(), key, cp, xmlac.ViewOptions{}, &serial); err != nil {
			t.Fatal(err)
		}
		if _, _, err := prot.View(context.Background(), key, cp, xmlac.ViewOptions{Parallelism: 4}, &parallel); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(parallel.Bytes(), serial.Bytes()) {
			t.Fatalf("after update %d: parallel view differs from serial", i)
		}
	}
}

// TestParallelQueryFallsBackToSerial: query evaluations cannot ride the
// regions (their scope anchors at the document root); the fallback must be
// transparent — same bytes, Workers reported as 0.
func TestParallelQueryFallsBackToSerial(t *testing.T) {
	prot, key, _ := protectHospital(t, 24)
	cp, err := xmlac.DoctorPolicy("DrA").Compile()
	if err != nil {
		t.Fatal(err)
	}
	serialOpts := xmlac.ViewOptions{Query: "//Folder[Admin/Age > 70]"}
	var serial bytes.Buffer
	if _, _, err := prot.View(context.Background(), key, cp, serialOpts, &serial); err != nil {
		t.Fatal(err)
	}
	parOpts := serialOpts
	parOpts.Parallelism = 8
	var got bytes.Buffer
	_, metrics, err := prot.View(context.Background(), key, cp, parOpts, &got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), serial.Bytes()) {
		t.Fatal("query fallback delivered different bytes")
	}
	if metrics.Workers != 0 {
		t.Fatalf("query evaluation reported %d workers, want 0 (serial fallback)", metrics.Workers)
	}
}

// failAfterWriter fails permanently once n bytes were accepted.
type failAfterWriter struct {
	n       int
	written bytes.Buffer
}

var errWriterFull = errors.New("writer full")

func (w *failAfterWriter) Write(p []byte) (int, error) {
	room := w.n - w.written.Len()
	if room <= 0 {
		return 0, errWriterFull
	}
	if len(p) <= room {
		w.written.Write(p)
		return len(p), nil
	}
	w.written.Write(p[:room])
	return room, errWriterFull
}

// TestParallelStreamSinkAbort: a destination dying at any byte offset aborts
// the parallel scan with the writer's error, the delivered bytes are an
// exact prefix of the serial view, and the partial metrics still come back.
func TestParallelStreamSinkAbort(t *testing.T) {
	prot, key, _ := protectHospital(t, 24)
	cp, err := xmlac.SecretaryPolicy().Compile()
	if err != nil {
		t.Fatal(err)
	}
	var full bytes.Buffer
	if _, _, err := prot.View(context.Background(), key, cp, xmlac.ViewOptions{}, &full); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 1, full.Len() / 3, full.Len() / 2, full.Len() - 1} {
		w := &failAfterWriter{n: cut}
		_, metrics, err := prot.View(context.Background(), key, cp, xmlac.ViewOptions{Parallelism: 4}, w)
		if !errors.Is(err, errWriterFull) {
			t.Fatalf("cut=%d: err = %v, want errWriterFull", cut, err)
		}
		if metrics == nil {
			t.Fatalf("cut=%d: aborted stream must report partial metrics", cut)
		}
		if !bytes.HasPrefix(full.Bytes(), w.written.Bytes()) {
			t.Fatalf("cut=%d: delivered bytes are not a prefix of the serial view", cut)
		}
	}
}

// TestViewScanFailurePartialMetrics: a scan whose reader fails mid-document
// (one ciphertext byte flipped in the marshalled container) returns the
// integrity error together with the partial Metrics of the work performed —
// streamed or materialized, serial or region-parallel.
func TestViewScanFailurePartialMetrics(t *testing.T) {
	xml := xmlstream.SerializeTree(dataset.HospitalFolders(24, 7), false)
	doc, err := xmlac.ParseDocumentString(xml)
	if err != nil {
		t.Fatal(err)
	}
	key := xmlac.DeriveKey("scan failure")
	good, err := xmlac.Protect(doc, key, xmlac.SchemeECBMHT)
	if err != nil {
		t.Fatal(err)
	}
	blob := good.Marshal()
	m := good.Manifest()
	blob[m.CiphertextOffset+m.CiphertextLen/2] ^= 0xff
	prot, err := xmlac.UnmarshalProtected(blob)
	if err != nil {
		t.Fatalf("a flipped ciphertext byte must still unmarshal: %v", err)
	}
	cp, err := xmlac.Policy{Subject: "all", Rules: []xmlac.Rule{{Sign: "+", Object: "//Folder"}}}.Compile()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 4} {
		opts := xmlac.ViewOptions{Parallelism: workers}
		_, streamed, streamErr := prot.View(context.Background(), key, cp, opts, io.Discard)
		view, materialized, viewErr := prot.View(context.Background(), key, cp, opts, nil)
		if view != nil {
			t.Fatalf("workers=%d: failed scan materialized a view", workers)
		}
		for name, c := range map[string]struct {
			m   *xmlac.Metrics
			err error
		}{"streamed": {streamed, streamErr}, "materialized": {materialized, viewErr}} {
			if !errors.Is(c.err, secure.ErrIntegrity) {
				t.Fatalf("workers=%d %s: err = %v, want an integrity error", workers, name, c.err)
			}
			if c.m == nil || c.m.BytesDecrypted <= 0 || c.m.NodesPermitted <= 0 {
				t.Fatalf("workers=%d %s: no partial metrics for the work performed: %+v", workers, name, c.m)
			}
			if workers > 0 && c.m.Workers < 1 {
				t.Fatalf("workers=%d %s: the parallel scan did not engage (Workers = %d)", workers, name, c.m.Workers)
			}
		}
	}
}

// TestParallelViewContextCancel: a parallel local scan honors the view's
// context (the serial local scan documents that it does not poll it);
// cancellation mid-scan surfaces the context error without delivering a
// complete view.
func TestParallelViewContextCancel(t *testing.T) {
	prot, key, _ := protectHospital(t, 24)
	cp, err := xmlac.SecretaryPolicy().Compile()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	_, _, err = prot.View(ctx, key, cp, xmlac.ViewOptions{Parallelism: 4}, &buf)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("canceled-before-start scan delivered %d bytes", buf.Len())
	}
}

// TestParallelTracedViewParity: tracing a parallel scan must not change the
// delivered bytes, and the folded PhaseBreakdown must carry the region
// workers' time (its sum measures work, not wall time).
func TestParallelTracedViewParity(t *testing.T) {
	prot, key, _ := protectHospital(t, 32)
	cp, err := xmlac.DoctorPolicy("DrA").Compile()
	if err != nil {
		t.Fatal(err)
	}
	var plain bytes.Buffer
	if _, _, err := prot.View(context.Background(), key, cp, xmlac.ViewOptions{Parallelism: 4}, &plain); err != nil {
		t.Fatal(err)
	}
	tr := xmlac.NewTrace(0)
	var traced bytes.Buffer
	_, metrics, err := prot.View(context.Background(), key, cp,
		xmlac.ViewOptions{Parallelism: 4, Trace: tr, TraceID: xmlac.NewTraceID()}, &traced)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(traced.Bytes(), plain.Bytes()) {
		t.Fatal("traced parallel view differs from untraced")
	}
	if metrics.Workers < 1 {
		t.Fatalf("Workers = %d, want >= 1", metrics.Workers)
	}
	if metrics.PhaseBreakdown.Sum() <= 0 {
		t.Fatalf("traced parallel scan folded no phase time: %+v", metrics.PhaseBreakdown)
	}
}

// TestParallelTraceRendersWorkerLanes pins the observability story of the
// tentpole: a traced parallel view's Chrome-trace export shows the region
// workers as separate rows of one process — each forked per-region context
// is its own thread row (keyed by its root span), all under the evaluation's
// single trace ID — so a straggler region is visible as a long lane next to
// idle ones.
func TestParallelTraceRendersWorkerLanes(t *testing.T) {
	prot, key, _ := protectHospital(t, 32)
	cp, err := xmlac.DoctorPolicy("DrA").Compile()
	if err != nil {
		t.Fatal(err)
	}
	tr := xmlac.NewTrace(0)
	traceID := xmlac.NewTraceID()
	_, metrics, err := prot.View(context.Background(), key, cp,
		xmlac.ViewOptions{Parallelism: 4, Trace: tr, TraceID: traceID}, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if metrics.Workers < 1 {
		t.Fatalf("Workers = %d, want >= 1 (scan fell back to serial)", metrics.Workers)
	}
	var buf bytes.Buffer
	err = xmlac.WriteMergedChromeTrace(&buf, xmlac.TraceLane{
		Name:  "client SOE",
		Spans: tr.Spans(xmlac.TraceFilter{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string `json:"name"`
		Ph   string `json:"ph"`
		Pid  int    `json:"pid"`
		Tid  int    `json:"tid"`
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("not a Chrome trace JSON array: %v", err)
	}
	regionTids := map[int]bool{}
	pids := map[int]bool{}
	for _, ev := range events {
		if ev.Ph == "M" || !strings.HasPrefix(ev.Name, "region:") {
			continue
		}
		regionTids[ev.Tid] = true
		pids[ev.Pid] = true
	}
	if len(regionTids) < 2 {
		t.Fatalf("region spans landed on %d thread row(s), want >= 2 parallel lanes", len(regionTids))
	}
	if len(pids) != 1 {
		t.Fatalf("region spans spread over %d processes, want 1 (one lane = one process)", len(pids))
	}
}
