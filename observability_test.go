package xmlac_test

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"xmlac"
	"xmlac/internal/dataset"
	"xmlac/internal/xmlstream"
)

// Tracing acceptance: attaching a Trace must not change the evaluation — the
// view bytes and every deterministic metric counter stay identical — while
// filling Metrics.PhaseBreakdown with an exclusive-time decomposition whose
// sum tracks the evaluation's wall time, and recording spans retrievable as
// JSONL and Chrome trace events.

func TestTracedViewMatchesUntracedAndBreakdownTracksDuration(t *testing.T) {
	xml := xmlstream.SerializeTree(dataset.HospitalFolders(300, 7), false)
	doc, err := xmlac.ParseDocumentString(xml)
	if err != nil {
		t.Fatal(err)
	}
	key := xmlac.DeriveKey("tracing acceptance")
	prot, err := xmlac.Protect(doc, key, xmlac.SchemeECBMHT)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := xmlac.DoctorPolicy("DrA").Compile()
	if err != nil {
		t.Fatal(err)
	}

	var plain bytes.Buffer
	_, plainMetrics, err := prot.View(context.Background(), key, cp, xmlac.ViewOptions{}, &plain)
	if err != nil {
		t.Fatal(err)
	}

	tr := xmlac.NewTrace(0)
	var traced bytes.Buffer
	opts := xmlac.ViewOptions{Trace: tr, TraceID: "acceptance-1"}
	_, tracedMetrics, err := prot.View(context.Background(), key, cp, opts, &traced)
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(plain.Bytes(), traced.Bytes()) {
		t.Fatalf("traced view differs from untraced view (%d vs %d bytes)", traced.Len(), plain.Len())
	}
	got, want := scrubTTFB(tracedMetrics), scrubTTFB(plainMetrics)
	got.PhaseBreakdown, want.PhaseBreakdown = xmlac.PhaseBreakdown{}, xmlac.PhaseBreakdown{}
	if got != want {
		t.Fatalf("traced metrics differ from untraced:\ngot  %+v\nwant %+v", got, want)
	}
	if plainMetrics.PhaseBreakdown != (xmlac.PhaseBreakdown{}) {
		t.Fatal("untraced evaluation must leave PhaseBreakdown zero")
	}

	// The phase decomposition accounts for the evaluation's wall time: the
	// exclusive sum never exceeds Duration, and on a document this size the
	// uninstrumented residue (pool churn, reader reset) is a small fraction.
	b := tracedMetrics.PhaseBreakdown
	sum, dur := b.Sum(), tracedMetrics.Duration
	if sum <= 0 || dur <= 0 {
		t.Fatalf("degenerate timings: phase sum %v, duration %v", sum, dur)
	}
	if sum > dur {
		t.Fatalf("exclusive phase sum %v exceeds wall duration %v", sum, dur)
	}
	if float64(sum) < 0.9*float64(dur) {
		t.Errorf("phase sum %v covers only %.0f%% of duration %v, want within 10%%",
			sum, 100*float64(sum)/float64(dur), dur)
	}
	// A local streaming evaluation exercises these phases; each must have
	// received some time.
	if b.DecryptNs <= 0 || b.VerifyNs <= 0 || b.DecodeNs <= 0 || b.EvalNs <= 0 || b.EmitNs <= 0 {
		t.Fatalf("expected nonzero decrypt/verify/decode/eval/emit, got %+v", b)
	}
	if b.FetchNs != 0 || b.ResyncNs != 0 {
		t.Fatalf("local evaluation must not charge remote phases, got %+v", b)
	}

	// Spans made it into the ring and export as JSONL (one object per line,
	// carrying the caller's trace ID) and as a Chrome trace JSON array.
	if tr.Len() == 0 {
		t.Fatal("traced evaluation recorded no spans")
	}
	var jsonl bytes.Buffer
	if err := tr.WriteJSONL(&jsonl, xmlac.TraceFilter{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(jsonl.Bytes(), []byte(`"trace_id":"acceptance-1"`)) {
		t.Fatal("JSONL spans do not carry the caller's trace ID")
	}
	var chrome bytes.Buffer
	if err := tr.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(chrome.Bytes(), &events); err != nil {
		t.Fatalf("Chrome trace output is not a JSON array: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("Chrome trace export is empty")
	}
}

// TestPhaseBreakdownAddAndSumCoverEveryField stamps every field of a
// PhaseBreakdown with a distinct value by reflection, so a phase added to
// the struct but left out of Add or Sum fails here: adding onto a zero
// value must reproduce the source, adding twice must double it, and Sum
// must equal the field total.
func TestPhaseBreakdownAddAndSumCoverEveryField(t *testing.T) {
	var src xmlac.PhaseBreakdown
	fields := reflect.ValueOf(&src).Elem()
	var total int64
	for i := 0; i < fields.NumField(); i++ {
		f := fields.Field(i)
		if f.Kind() != reflect.Int64 {
			t.Fatalf("PhaseBreakdown.%s has kind %s: teach Add, Sum and this test about it",
				fields.Type().Field(i).Name, f.Kind())
		}
		f.SetInt(int64(101 + i))
		total += f.Int()
	}

	var acc xmlac.PhaseBreakdown
	acc.Add(&src)
	if acc != src {
		t.Fatalf("Add onto a zero breakdown must reproduce the source:\ngot  %+v\nwant %+v", acc, src)
	}
	acc.Add(&src)
	doubled := reflect.ValueOf(acc)
	for i := 0; i < doubled.NumField(); i++ {
		if got, want := doubled.Field(i).Int(), 2*fields.Field(i).Int(); got != want {
			t.Errorf("Add drops or mis-folds %s: got %d, want %d", doubled.Type().Field(i).Name, got, want)
		}
	}
	if got := src.Sum(); got != time.Duration(total) {
		t.Errorf("Sum = %d, want the field total %d", got, total)
	}
}
