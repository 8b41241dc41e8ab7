package core

import (
	"errors"
	"strings"
	"testing"

	"xmlac/internal/accessrule"
	"xmlac/internal/skipindex"
	"xmlac/internal/xmlstream"
	"xmlac/internal/xpath"
)

// Integration of the evaluator with the Skip-index decoder: same result as
// the oracle, and prohibited subtrees are actually skipped (saving input
// bytes), which is the central performance claim of the paper.

func evaluateWithIndex(t *testing.T, doc *xmlstream.Node, policy *accessrule.Policy, opts Options) (*Result, *skipindex.Decoder) {
	t.Helper()
	enc, err := skipindex.Encode(doc)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	dec, err := skipindex.NewDecoder(skipindex.NewBytesSource(enc.Data))
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	res, err := Evaluate(dec, policy, opts)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	return res, dec
}

func TestSkipIndexEvaluationMatchesOracle(t *testing.T) {
	doc := hospitalTestDoc()
	for name, policy := range map[string]*accessrule.Policy{
		"secretary":  accessrule.SecretaryPolicy(),
		"doctorA":    accessrule.DoctorPolicy("DrA"),
		"researcher": accessrule.ResearcherPolicy("G3"),
	} {
		t.Run(name, func(t *testing.T) {
			res, _ := evaluateWithIndex(t, doc, policy, Options{})
			oracle := accessrule.AuthorizedView(doc, policy, accessrule.ViewOptions{})
			if !treesEqual(res.View, oracle) {
				t.Fatalf("skip-index evaluation differs from oracle:\ngot:  %s\nwant: %s",
					serialize(res.View), serialize(oracle))
			}
		})
	}
}

func TestSkipIndexActuallySkipsProhibitedSubtrees(t *testing.T) {
	doc := hospitalTestDoc()
	// The secretary only sees Admin subtrees: MedActs/Analysis/Protocol
	// subtrees must be skipped without being read.
	res, dec := evaluateWithIndex(t, doc, accessrule.SecretaryPolicy(), Options{})
	if res.Metrics.SubtreesSkipped == 0 {
		t.Fatalf("expected skipped subtrees, metrics=%+v", res.Metrics)
	}
	if dec.BytesSkipped() == 0 {
		t.Fatal("decoder should report skipped bytes")
	}
	total := dec.BytesRead() + dec.BytesSkipped()
	if dec.BytesRead() >= total {
		t.Fatal("skipping must reduce the bytes entering the SOE")
	}
	// The closed policy skips essentially the whole document body.
	resClosed, decClosed := evaluateWithIndex(t, doc, accessrule.NewPolicy("nobody"), Options{})
	if resClosed.View != nil {
		t.Fatal("closed policy must deliver nothing")
	}
	if decClosed.BytesSkipped() == 0 {
		t.Fatal("closed policy should skip aggressively")
	}
	if decClosed.BytesRead() >= dec.BytesRead() {
		t.Fatalf("closed policy should read less than the secretary (%d >= %d)",
			decClosed.BytesRead(), dec.BytesRead())
	}
}

func TestSkipIndexWithQueryMatchesOracle(t *testing.T) {
	doc := hospitalTestDoc()
	q := xpath.MustParse("//Folder[Admin/Age > 50]")
	res, _ := evaluateWithIndex(t, doc, accessrule.DoctorPolicy("DrA"), Options{Query: q})
	oracle := accessrule.AuthorizedView(doc, accessrule.DoctorPolicy("DrA"), accessrule.ViewOptions{Query: q})
	if !treesEqual(res.View, oracle) {
		t.Fatalf("query over skip index differs from oracle:\ngot:  %s\nwant: %s",
			serialize(res.View), serialize(oracle))
	}
}

func TestSkipIndexDifferentialRandom(t *testing.T) {
	const iterations = 150
	for seed := 9000; seed < 9000+iterations; seed++ {
		r := newRng(uint64(seed))
		doc := randomDocument(r, 4, 3)
		policy := randomPolicy(r)
		oracle := accessrule.AuthorizedView(doc, policy, accessrule.ViewOptions{})
		enc, err := skipindex.Encode(doc)
		if err != nil {
			t.Fatalf("seed %d: encode: %v", seed, err)
		}
		dec, err := skipindex.NewDecoder(skipindex.NewBytesSource(enc.Data))
		if err != nil {
			t.Fatalf("seed %d: decoder: %v", seed, err)
		}
		res, err := Evaluate(dec, policy, Options{})
		if err != nil {
			t.Fatalf("seed %d: evaluate: %v", seed, err)
		}
		if !treesEqual(res.View, oracle) {
			t.Fatalf("seed %d: mismatch with skip index\ndoc: %s\npolicy: %s\ngot:  %s\nwant: %s",
				seed, xmlstream.SerializeTree(doc, false), policy, serialize(res.View), serialize(oracle))
		}
	}
}

func TestSkipIndexNeverReadsMoreThanBruteForce(t *testing.T) {
	doc := hospitalTestDoc()
	for _, policy := range []*accessrule.Policy{
		accessrule.SecretaryPolicy(),
		accessrule.DoctorPolicy("DrA"),
		accessrule.ResearcherPolicy("G3"),
	} {
		enc, err := skipindex.Encode(doc)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := skipindex.NewDecoder(skipindex.NewBytesSource(enc.Data))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Evaluate(dec, policy, Options{}); err != nil {
			t.Fatal(err)
		}
		if dec.BytesRead() > int64(len(enc.Data)) {
			t.Fatalf("policy %s: read %d bytes out of %d", policy.Subject, dec.BytesRead(), len(enc.Data))
		}
	}
}

// budgetSink errors after a fixed number of delivered events (End
// included).
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

// TestEvaluatorRunFailurePartialMetrics: every way a run can fail — the
// reader running out of bytes mid-document, the sink failing mid-scan, the
// sink failing at End — returns the error together with the partial
// metrics of the work performed, and no view.
func TestEvaluatorRunFailurePartialMetrics(t *testing.T) {
	doc, err := xmlstream.ParseTree(strings.NewReader("<r>" + strings.Repeat("<a><b>1</b></a>", 50) + "</r>"))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := skipindex.Encode(doc)
	if err != nil {
		t.Fatal(err)
	}
	all := CompilePolicy(accessrule.NewPolicy("all", accessrule.MustRule("R1", "+", "//*")))
	counter := &budgetSink{budget: 1 << 30}
	full, err := EvaluateCompiled(mustDecoder(t, skipindex.NewBytesSource(enc.Data)), all, Options{Sink: counter})
	if err != nil {
		t.Fatal(err)
	}
	whole := skipindex.NewBytesSource(enc.Data)
	cut := truncatedSource{ByteSource: skipindex.NewBytesSource(enc.Data[:len(enc.Data)/2]), size: whole.Size()}
	cases := map[string]struct {
		src  skipindex.ByteSource
		sink ViewSink
		want error
	}{
		"truncated": {src: cut, want: skipindex.ErrBadFormat},
		"sink":      {src: whole, sink: &budgetSink{budget: 10}, want: errBudgetSink},
		"sink end":  {src: whole, sink: &budgetSink{budget: counter.n - 1}, want: errBudgetSink},
	}
	for name, tc := range cases {
		res, err := EvaluateCompiled(mustDecoder(t, tc.src), all, Options{Sink: tc.sink})
		if !errors.Is(err, tc.want) {
			t.Fatalf("%s: err = %v, want %v", name, err, tc.want)
		}
		if res == nil || res.View != nil {
			t.Fatalf("%s: want partial metrics and no view, got %+v", name, res)
		}
		if res.Metrics.Events == 0 || res.Metrics.NodesPermitted == 0 || res.Metrics.Events > full.Metrics.Events {
			t.Fatalf("%s: implausible partial metrics %+v (full run %+v)", name, res.Metrics, full.Metrics)
		}
	}
}

// truncatedSource declares the whole encoding's size but holds only a
// prefix of its bytes, like a transfer cut short.
type truncatedSource struct {
	skipindex.ByteSource
	size int64
}

func (s truncatedSource) Size() int64 { return s.size }

func mustDecoder(t *testing.T, src skipindex.ByteSource) *skipindex.Decoder {
	t.Helper()
	dec, err := skipindex.NewDecoder(src)
	if err != nil {
		t.Fatal(err)
	}
	return dec
}
