package core

import (
	"context"
	"errors"
	"testing"

	"xmlac/internal/accessrule"
	"xmlac/internal/skipindex"
	"xmlac/internal/trace"
	"xmlac/internal/xmlstream"
	"xmlac/internal/xpath"
)

// Differential testing of the parallel intra-document scan against the
// serial Skip-index evaluation: stitched views must be event-identical and
// metrics must be exactly equal — the parallel scan is an execution
// strategy, not a semantics change.

// runParallelOverEncoded plans regions over an encoded document and runs
// one subject through RunParallel with plain in-memory region scanners.
func runParallelOverEncoded(t *testing.T, ctx context.Context, data []byte, workers int, cp *CompiledPolicy, opts Options) (*Result, ParallelStats, error) {
	t.Helper()
	plan, err := skipindex.PlanRegions(skipindex.NewBytesSource(data), workers*4)
	if err != nil {
		return nil, ParallelStats{}, err
	}
	cfg := ParallelConfig{
		Ctx:              ctx,
		Workers:          workers,
		NumRegions:       plan.RegionCount(),
		Prefix:           plan.Prefix(),
		RootName:         plan.RootName(),
		RootDescTags:     plan.RootDescendantTags(),
		RootSkipDistance: plan.RootSkipDistance(),
		OpenRegion: func(r int) (RegionScanner, *trace.Context, error) {
			dec, err := skipindex.NewRegionDecoder(skipindex.NewBytesSource(data), plan, r)
			return dec, nil, err
		},
	}
	return RunParallel(cfg, cp, opts)
}

// serialSolo evaluates one subject serially over a fresh Skip-index decoder.
func serialSolo(t *testing.T, data []byte, cp *CompiledPolicy, opts Options) (*Result, error) {
	t.Helper()
	dec, err := skipindex.NewDecoder(skipindex.NewBytesSource(data))
	if err != nil {
		t.Fatal(err)
	}
	return NewCompiledEvaluator(dec, cp, opts).Run()
}

func encodeDoc(t *testing.T, doc *xmlstream.Node) []byte {
	t.Helper()
	enc, err := skipindex.Encode(doc)
	if err != nil {
		t.Fatal(err)
	}
	return enc.Data
}

// recordingSink records the exact sink call sequence, optionally failing
// permanently at call number failAt (0-based; -1 never fails).
type recordingSink struct {
	calls  []string
	failAt int
	ended  int
}

func newRecordingSink() *recordingSink { return &recordingSink{failAt: -1} }

func (s *recordingSink) call(c string) error {
	if s.failAt >= 0 && len(s.calls) >= s.failAt {
		return errors.New("sink full")
	}
	s.calls = append(s.calls, c)
	return nil
}

func (s *recordingSink) OpenElement(name string) error  { return s.call("<" + name + ">") }
func (s *recordingSink) Text(value string) error        { return s.call("\"" + value + "\"") }
func (s *recordingSink) CloseElement(name string) error { return s.call("</" + name + ">") }
func (s *recordingSink) End() error                     { s.ended++; return nil }

func callsEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestParallelMatchesSerialHospital(t *testing.T) {
	data := encodeDoc(t, hospitalTestDoc())
	policies := map[string]*accessrule.Policy{
		"secretary":  accessrule.SecretaryPolicy(),
		"doctorA":    accessrule.DoctorPolicy("DrA"),
		"researcher": accessrule.ResearcherPolicy("G3"),
		"nobody":     accessrule.NewPolicy("nobody"),
	}
	for name, policy := range policies {
		cp := CompilePolicy(policy)
		for _, dummy := range []bool{false, true} {
			for _, workers := range []int{1, 2, 4, 8} {
				opts := Options{DummyDeniedNames: dummy}
				serial, err := serialSolo(t, data, cp, opts)
				if err != nil {
					t.Fatalf("%s: serial: %v", name, err)
				}
				res, stats, err := runParallelOverEncoded(t, nil, data, workers, cp, opts)
				if err != nil {
					t.Fatalf("%s workers=%d dummy=%v: parallel: %v", name, workers, dummy, err)
				}
				if !treesEqual(res.View, serial.View) {
					t.Fatalf("%s workers=%d dummy=%v: view mismatch\nparallel: %s\nserial:   %s",
						name, workers, dummy, serialize(res.View), serialize(serial.View))
				}
				if res.Metrics != serial.Metrics {
					t.Fatalf("%s workers=%d dummy=%v: metrics mismatch\nparallel: %+v\nserial:   %+v",
						name, workers, dummy, res.Metrics, serial.Metrics)
				}
				if stats.Regions < 2 {
					t.Fatalf("%s: expected a multi-region plan, got %d", name, stats.Regions)
				}
			}
		}
	}
}

func TestParallelMatchesSerialRandom(t *testing.T) {
	const iterations = 150
	for seed := 9000; seed < 9000+iterations; seed++ {
		r := newRng(uint64(seed))
		doc := randomDocument(r, 4+r.next(2), 3)
		data := encodeDoc(t, doc)
		policy := randomPolicy(r)
		cp := CompilePolicy(policy)
		opts := Options{DummyDeniedNames: r.next(2) == 0}
		serial, err := serialSolo(t, data, cp, opts)
		if err != nil {
			t.Fatalf("seed %d: serial: %v", seed, err)
		}
		workers := r.next(4) + 1
		res, _, err := runParallelOverEncoded(t, nil, data, workers, cp, opts)
		if errors.Is(err, ErrNotParallelizable) {
			// Root-anchored predicate: the fallback is the contract. The
			// serial path remains authoritative; nothing to compare.
			continue
		}
		if err != nil {
			t.Fatalf("seed %d: parallel: %v", seed, err)
		}
		if !treesEqual(res.View, serial.View) {
			t.Fatalf("seed %d workers=%d: view mismatch\ndoc:      %s\npolicy: %s\nparallel: %s\nserial:   %s",
				seed, workers, xmlstream.SerializeTree(doc, false), policy,
				serialize(res.View), serialize(serial.View))
		}
		if res.Metrics != serial.Metrics {
			t.Fatalf("seed %d workers=%d: metrics mismatch\ndoc:      %s\npolicy: %s\nparallel: %+v\nserial:   %+v",
				seed, workers, xmlstream.SerializeTree(doc, false), policy,
				res.Metrics, serial.Metrics)
		}
	}
}

// TestParallelStreamedOrderByteIdentical: with streaming sinks, the exact
// sink call sequence (opens, texts, closes, in order) matches the serial
// scan.
func TestParallelStreamedOrderByteIdentical(t *testing.T) {
	data := encodeDoc(t, hospitalTestDoc())
	for name, policy := range map[string]*accessrule.Policy{
		"secretary": accessrule.SecretaryPolicy(),
		"doctorA":   accessrule.DoctorPolicy("DrA"),
	} {
		cp := CompilePolicy(policy)
		serialSink := newRecordingSink()
		if _, err := serialSolo(t, data, cp, Options{Sink: serialSink}); err != nil {
			t.Fatalf("%s: serial: %v", name, err)
		}
		parSink := newRecordingSink()
		if _, _, err := runParallelOverEncoded(t, nil, data, 4, cp, Options{Sink: parSink}); err != nil {
			t.Fatalf("%s: parallel: %v", name, err)
		}
		if !callsEqual(parSink.calls, serialSink.calls) {
			t.Fatalf("%s: sink call sequence differs\nparallel: %v\nserial:   %v",
				name, parSink.calls, serialSink.calls)
		}
		if parSink.ended != 1 || serialSink.ended != 1 {
			t.Fatalf("%s: End must be called exactly once (parallel %d, serial %d)",
				name, parSink.ended, serialSink.ended)
		}
	}
}

// TestParallelFallsBackOnRootCoupling: queries and unresolved root-anchored
// predicates make regions interdependent; RunParallel must refuse before
// any output is delivered.
func TestParallelFallsBackOnRootCoupling(t *testing.T) {
	doc := hospitalTestDoc()
	data := encodeDoc(t, doc)

	// A predicate anchored at the document root, unresolvable from the
	// prefix alone: content of one region would gate delivery in another.
	rootPred := accessrule.NewPolicy("rootpred")
	rootPred.Add(accessrule.MustRule("R1", "+", "/Hospital[//RPhys=DrA]//Admin"))
	sink := newRecordingSink()
	res, _, err := runParallelOverEncoded(t, nil, data, 4, CompilePolicy(rootPred), Options{Sink: sink})
	if !errors.Is(err, ErrNotParallelizable) || res != nil {
		t.Fatalf("root-anchored predicate: result %+v, err = %v; want no result and ErrNotParallelizable", res, err)
	}
	if len(sink.calls) != 0 || sink.ended != 0 {
		t.Fatalf("fallback must precede any delivery, sink saw %v (ended %d)", sink.calls, sink.ended)
	}

	// Queries anchor their scope at the root: serial fallback.
	q := mustParsePath(t, "//Admin")
	_, _, err = runParallelOverEncoded(t, nil, data, 4, CompilePolicy(accessrule.SecretaryPolicy()), Options{Query: q})
	if !errors.Is(err, ErrNotParallelizable) {
		t.Fatalf("query: err = %v, want ErrNotParallelizable", err)
	}
}

// TestParallelSinkAbortEveryPosition: a sink that dies at call k receives,
// for every k, exactly the serial scan's first k calls — delivery order is
// preserved up to the failure — and the scan returns the sink's error with
// the partial metrics of the work performed.
func TestParallelSinkAbortEveryPosition(t *testing.T) {
	data := encodeDoc(t, hospitalTestDoc())
	cp := CompilePolicy(accessrule.DoctorPolicy("DrA"))
	full := newRecordingSink()
	if _, err := serialSolo(t, data, cp, Options{Sink: full}); err != nil {
		t.Fatal(err)
	}
	for k := 0; k <= len(full.calls); k += 7 {
		sink := newRecordingSink()
		sink.failAt = k
		res, _, err := runParallelOverEncoded(t, nil, data, 4, cp, Options{Sink: sink})
		if k < len(full.calls) {
			if err == nil {
				t.Fatalf("failAt=%d: expected the sink's error", k)
			}
			if res == nil || res.Metrics.Events == 0 {
				t.Fatalf("failAt=%d: no partial metrics next to the error: %+v", k, res)
			}
			if !callsEqual(sink.calls, full.calls[:k]) {
				t.Fatalf("failAt=%d: delivered prefix differs\ngot:  %v\nwant: %v", k, sink.calls, full.calls[:k])
			}
		} else if err != nil {
			t.Fatalf("failAt=%d: unexpected error: %v", k, err)
		}
	}
}

// TestParallelCancelAtEveryRegionBoundary: canceling the context while any
// region opens aborts the scan with the context's error and the partial
// metrics of the work performed.
func TestParallelCancelAtEveryRegionBoundary(t *testing.T) {
	data := encodeDoc(t, hospitalTestDoc())
	plan, err := skipindex.PlanRegions(skipindex.NewBytesSource(data), 4)
	if err != nil {
		t.Fatal(err)
	}
	cp := CompilePolicy(accessrule.SecretaryPolicy())
	for target := 0; target < plan.RegionCount(); target++ {
		ctx, cancel := context.WithCancel(context.Background())
		cfg := ParallelConfig{
			Ctx:              ctx,
			Workers:          1, // deterministic region order
			NumRegions:       plan.RegionCount(),
			Prefix:           plan.Prefix(),
			RootName:         plan.RootName(),
			RootDescTags:     plan.RootDescendantTags(),
			RootSkipDistance: plan.RootSkipDistance(),
			OpenRegion: func(r int) (RegionScanner, *trace.Context, error) {
				if r == target {
					cancel()
				}
				dec, err := skipindex.NewRegionDecoder(skipindex.NewBytesSource(data), plan, r)
				return dec, nil, err
			},
		}
		res, _, err := RunParallel(cfg, cp, Options{})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("target=%d: err = %v, want context.Canceled", target, err)
		}
		if res == nil || res.Metrics.Events == 0 || res.View != nil {
			t.Fatalf("target=%d: want partial metrics and no view, got %+v", target, res)
		}
	}
}

// mustParsePath parses an XPath expression of the supported fragment.
func mustParsePath(t *testing.T, expr string) *xpath.Path {
	t.Helper()
	p, err := xpath.Parse(expr)
	if err != nil {
		t.Fatalf("parse %q: %v", expr, err)
	}
	return p
}
