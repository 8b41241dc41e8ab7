package core

import (
	"errors"
	"strings"
	"testing"

	"xmlac/internal/accessrule"
	"xmlac/internal/skipindex"
	"xmlac/internal/xmlstream"
)

// Multicast differential testing: a MultiEvaluator sharing one Skip-index
// decoder across several subjects must produce, for every subject, exactly
// the view and exactly the evaluator metrics of a solo evaluation of that
// subject's policy — including BytesSkipped, which the virtual skip facade
// charges through SkipDistance even when other subjects keep the subtree
// alive on the shared reader.

// multiSolo runs one policy alone over a fresh decoder.
func multiSolo(t *testing.T, encoded []byte, cp *CompiledPolicy, opts Options) *Result {
	t.Helper()
	dec, err := skipindex.NewDecoder(skipindex.NewBytesSource(encoded))
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewCompiledEvaluator(dec, cp, opts).Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestMultiEvaluatorDifferentialRandom(t *testing.T) {
	const seeds = 100
	const subjectsPerScan = 3
	for seed := 0; seed < seeds; seed++ {
		r := newRng(uint64(9000 + seed))
		doc := randomDocument(r, 4+r.next(3), 3)
		enc, err := skipindex.Encode(doc)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		compiled := make([]*CompiledPolicy, subjectsPerScan)
		for i := range compiled {
			compiled[i] = CompilePolicy(randomPolicy(r))
		}
		want := make([]*Result, subjectsPerScan)
		for i, cp := range compiled {
			want[i] = multiSolo(t, enc.Data, cp, Options{})
		}
		dec, err := skipindex.NewDecoder(skipindex.NewBytesSource(enc.Data))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		multi := NewMultiEvaluator(dec)
		for _, cp := range compiled {
			multi.AddSubject(nil, cp, Options{})
		}
		outcomes, err := multi.Run()
		if err != nil {
			t.Fatalf("seed %d: multicast run failed: %v\ndoc: %s",
				seed, err, xmlstream.SerializeTree(doc, false))
		}
		for i, out := range outcomes {
			if out.Err != nil {
				t.Fatalf("seed %d subject %d: %v", seed, i, out.Err)
			}
			if !treesEqual(out.Result.View, want[i].View) {
				t.Fatalf("seed %d subject %d: multicast view differs from solo\ndoc:   %s\nmulti: %s\nsolo:  %s",
					seed, i, xmlstream.SerializeTree(doc, false),
					serialize(out.Result.View), serialize(want[i].View))
			}
			if out.Result.Metrics != want[i].Metrics {
				t.Fatalf("seed %d subject %d: multicast metrics differ from solo\nmulti: %+v\nsolo:  %+v",
					seed, i, out.Result.Metrics, want[i].Metrics)
			}
		}
	}
}

// TestMultiEvaluatorSharedSkip checks the union degradation of the Skip
// index: a region is physically skipped on the shared reader only when every
// subject skips it, and subjects that all deny the same subtree still share
// the jump.
func TestMultiEvaluatorSharedSkip(t *testing.T) {
	doc, err := xmlstream.ParseTreeString(
		`<root><secret><a>1</a><b>2</b><c>3</c></secret><open><a>4</a></open></root>`)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := skipindex.Encode(doc)
	if err != nil {
		t.Fatal(err)
	}
	denyAll := CompilePolicy(accessrule.NewPolicy("u1", accessrule.MustRule("R1", "+", "//open")))
	denyAll2 := CompilePolicy(accessrule.NewPolicy("u2", accessrule.MustRule("R1", "+", "//open/a")))

	// Both subjects deny //secret: the shared scan physically skips it.
	dec, err := skipindex.NewDecoder(skipindex.NewBytesSource(enc.Data))
	if err != nil {
		t.Fatal(err)
	}
	multi := NewMultiEvaluator(dec)
	multi.AddSubject(nil, denyAll, Options{})
	multi.AddSubject(nil, denyAll2, Options{})
	if _, err := multi.Run(); err != nil {
		t.Fatal(err)
	}
	if st := multi.Stats(); st.SharedSkips == 0 || st.SharedBytesSkipped == 0 {
		t.Fatalf("expected a shared physical skip of the subtree both subjects deny, got %+v", st)
	}

	// One subject needs //secret/b: no physical skip of <secret> may happen,
	// yet the other subject's per-view accounting still reports its solo skip.
	needsB := CompilePolicy(accessrule.NewPolicy("u3", accessrule.MustRule("R1", "+", "//secret/b")))
	soloSkip := multiSolo(t, enc.Data, denyAll, Options{}).Metrics.BytesSkipped
	if soloSkip == 0 {
		t.Fatal("solo scan of the deny-all-but-open policy should skip bytes")
	}
	dec2, err := skipindex.NewDecoder(skipindex.NewBytesSource(enc.Data))
	if err != nil {
		t.Fatal(err)
	}
	multi2 := NewMultiEvaluator(dec2)
	i1 := multi2.AddSubject(nil, denyAll, Options{})
	multi2.AddSubject(nil, needsB, Options{})
	outcomes, err := multi2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := outcomes[i1].Result.Metrics.BytesSkipped; got != soloSkip {
		t.Fatalf("virtually skipped subject charged %d skipped bytes, solo charged %d", got, soloSkip)
	}
	if dec2.BytesSkipped() >= soloSkip {
		t.Fatalf("shared reader physically skipped %d bytes although one subject needed the subtree", dec2.BytesSkipped())
	}
}

// budgetSink errors after a fixed number of delivered events.
type budgetSink struct {
	budget int
	n      int
}

var errBudgetSink = errors.New("sink budget exhausted")

func (f *budgetSink) deliver() error {
	f.n++
	if f.n > f.budget {
		return errBudgetSink
	}
	return nil
}
func (f *budgetSink) OpenElement(string) error  { return f.deliver() }
func (f *budgetSink) Text(string) error         { return f.deliver() }
func (f *budgetSink) CloseElement(string) error { return f.deliver() }
func (f *budgetSink) End() error                { return f.deliver() }

// TestMultiEvaluatorSinkAbort: one subject's sink dying mid-scan removes only
// that subject; the surviving subjects' streams complete byte-identical to
// solo runs.
func TestMultiEvaluatorSinkAbort(t *testing.T) {
	r := newRng(77)
	doc := randomDocument(r, 6, 3)
	enc, err := skipindex.Encode(doc)
	if err != nil {
		t.Fatal(err)
	}
	all := CompilePolicy(accessrule.NewPolicy("all", accessrule.MustRule("R1", "+", "//*")))
	solo := multiSolo(t, enc.Data, all, Options{})

	dec, err := skipindex.NewDecoder(skipindex.NewBytesSource(enc.Data))
	if err != nil {
		t.Fatal(err)
	}
	multi := NewMultiEvaluator(dec)
	bad := multi.AddSubject(nil, all, Options{Sink: &budgetSink{budget: 3}})
	good := multi.AddSubject(nil, all, Options{})
	outcomes, err := multi.Run()
	if err != nil {
		t.Fatalf("one failing sink must not abort the shared scan: %v", err)
	}
	if !errors.Is(outcomes[bad].Err, errBudgetSink) {
		t.Fatalf("failing subject must surface its sink error, got %v", outcomes[bad].Err)
	}
	if outcomes[good].Err != nil {
		t.Fatalf("surviving subject failed: %v", outcomes[good].Err)
	}
	if !treesEqual(outcomes[good].Result.View, solo.View) {
		t.Fatalf("surviving subject's view differs from solo:\nmulti: %s\nsolo:  %s",
			serialize(outcomes[good].Result.View), serialize(solo.View))
	}
	if outcomes[good].Result.Metrics != solo.Metrics {
		t.Fatalf("surviving subject's metrics differ from solo:\nmulti: %+v\nsolo:  %+v",
			outcomes[good].Result.Metrics, solo.Metrics)
	}
}

var errSourceFailed = errors.New("source failed")

// failingSource fails every read once reads (when non-negative) are used
// up, like a reader whose integrity check rejects the rest of the document.
type failingSource struct {
	skipindex.ByteSource
	reads int
}

func (f *failingSource) ReadAt(p []byte, off int64) (int, error) {
	if f.reads == 0 {
		return 0, errSourceFailed
	}
	if f.reads > 0 {
		f.reads--
	}
	return f.ByteSource.ReadAt(p, off)
}

// TestMultiEvaluatorReaderFailurePartialOutcomes: a shared reader failing
// mid-scan aborts the scan with its error, and every subject still reports
// the partial metrics of the work performed, carrying that error; a subject
// whose sink had already failed keeps its own error.
func TestMultiEvaluatorReaderFailurePartialOutcomes(t *testing.T) {
	doc, err := xmlstream.ParseTree(strings.NewReader("<r>" + strings.Repeat("<a><b>1</b></a>", 50) + "</r>"))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := skipindex.Encode(doc)
	if err != nil {
		t.Fatal(err)
	}
	src := &failingSource{ByteSource: skipindex.NewBytesSource(enc.Data), reads: -1}
	dec, err := skipindex.NewDecoder(src)
	if err != nil {
		t.Fatal(err)
	}
	src.reads = 8
	all := CompilePolicy(accessrule.NewPolicy("all", accessrule.MustRule("R1", "+", "//*")))
	multi := NewMultiEvaluator(dec)
	bad := multi.AddSubject(nil, all, Options{Sink: &budgetSink{budget: 1}})
	live := multi.AddSubject(nil, all, Options{})
	outcomes, err := multi.Run()
	if err == nil {
		t.Fatal("truncated document must fail the shared scan")
	}
	if len(outcomes) != 2 {
		t.Fatalf("got %d outcomes, want one per subject", len(outcomes))
	}
	if !errors.Is(outcomes[bad].Err, errBudgetSink) {
		t.Fatalf("subject removed by its sink must keep its own error, got %v", outcomes[bad].Err)
	}
	if outcomes[live].Err != err {
		t.Fatalf("live subject must carry the scan error %v, got %v", err, outcomes[live].Err)
	}
	for i, out := range outcomes {
		if out.Result == nil || out.Result.Metrics.Events == 0 {
			t.Fatalf("subject %d: no partial metrics for the work performed: %+v", i, out.Result)
		}
	}
}
