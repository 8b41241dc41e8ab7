package core

import (
	"errors"
	"strings"
	"testing"

	"xmlac/internal/xmlstream"
	"xmlac/internal/xpath"
)

// Streaming-delivery tests: the Options.Sink path must emit byte-for-byte the
// serialization of the materialized view, with identical evaluator metrics,
// for any document/policy/query — and a sink error must abort the run.

func TestDifferentialStreamingSinkParity(t *testing.T) {
	const iterations = 300
	for seed := 9000; seed < 9000+iterations; seed++ {
		r := newRng(uint64(seed))
		doc := randomDocument(r, 4+r.next(3), 3)
		policy := randomPolicy(r)
		var query *xpath.Path
		if r.next(3) == 0 {
			if q, err := xpath.Parse(randomPathExpr(r)); err == nil {
				query = q
			}
		}
		dummy := r.next(2) == 0

		tree, err := Evaluate(xmlstream.NewTreeReader(doc), policy,
			Options{Query: query, DummyDeniedNames: dummy})
		if err != nil {
			t.Fatalf("seed %d: materialized Evaluate failed: %v", seed, err)
		}
		want := ""
		if tree.View != nil {
			want = xmlstream.SerializeTree(tree.View, false)
		}

		var sb strings.Builder
		sink := xmlstream.NewSerializer(&sb)
		streamed, err := Evaluate(xmlstream.NewTreeReader(doc), policy,
			Options{Query: query, DummyDeniedNames: dummy, Sink: sink})
		if err != nil {
			t.Fatalf("seed %d: streaming Evaluate failed: %v", seed, err)
		}
		if streamed.View != nil {
			t.Fatalf("seed %d: streaming run must not materialize a view", seed)
		}
		if sb.String() != want {
			t.Fatalf("seed %d: streamed view differs\ndoc:      %s\npolicy: %s\nstreamed: %s\ntree:     %s",
				seed, xmlstream.SerializeTree(doc, false), policy, sb.String(), want)
		}
		if streamed.Metrics != tree.Metrics {
			t.Fatalf("seed %d: metrics differ between sink and tree delivery\nsink: %+v\ntree: %+v",
				seed, streamed.Metrics, tree.Metrics)
		}
	}
}

// failingSink accepts a fixed number of events, then fails every call.
type failingSink struct {
	allow int
	fail  error
	seen  int
}

func (f *failingSink) WriteEvent(xmlstream.Event) error {
	f.seen++
	if f.seen > f.allow {
		return f.fail
	}
	return nil
}

func TestStreamingSinkErrorAbortsRun(t *testing.T) {
	r := newRng(77)
	doc := randomDocument(r, 6, 4)
	policy := randomPolicy(r)
	// Find out how many events a full delivery emits, then fail at every
	// earlier point: the run must surface the sink error each time.
	probe := &failingSink{allow: int(^uint(0) >> 1), fail: nil}
	if _, err := Evaluate(xmlstream.NewTreeReader(doc), policy, Options{Sink: probe}); err != nil {
		t.Fatalf("probe run failed: %v", err)
	}
	if probe.seen < 3 {
		t.Skipf("degenerate view (%d events), pick another seed", probe.seen)
	}
	sinkErr := errors.New("client went away")
	for allow := 0; allow < probe.seen; allow++ {
		sink := &failingSink{allow: allow, fail: sinkErr}
		_, err := Evaluate(xmlstream.NewTreeReader(doc), policy, Options{Sink: sink})
		if !errors.Is(err, sinkErr) {
			t.Fatalf("allow=%d: want sink error, got %v", allow, err)
		}
		if sink.seen != allow+1 {
			t.Fatalf("allow=%d: delivery continued after the sink failed (%d events seen)", allow, sink.seen)
		}
	}
}
