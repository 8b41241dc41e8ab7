package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"xmlac/internal/trace"
	"xmlac/internal/xmlstream"
)

// Parallel intra-document scan: the Skip index partitions a document into
// regions at the root's child boundaries (skipindex.PlanRegions), and this
// orchestrator evaluates the regions concurrently while keeping every
// per-subject observable — the delivered view, byte for byte, and the
// per-subject evaluation counters — identical to the serial scan.
//
// The protocol has three legs:
//
//  1. Prefix (serial, per subject). A stitching evaluator E0 processes the
//     shared document prefix (root Open + direct text) against the real
//     sink. A dry run over a throwaway sink first proves the subject is
//     parallelizable: a predicate instance anchored at the root and still
//     unresolved after the prefix couples the regions (content in one
//     region decides delivery in another), so such subjects — and query
//     evaluations, whose scope predicates anchor at the root — fall back
//     to the serial scan before any byte reaches the sink.
//
//  2. Regions (parallel). A bounded pool of workers scans the regions,
//     each through its own region decoder and secure reader over the
//     shared immutable ciphertext. Every worker replays the prefix into
//     fresh per-subject evaluators — re-creating exactly the root-level
//     token state the serial evaluator carries into that part of the
//     document — then erases the replay's artifacts (captured events,
//     metrics) so the region contributes only its own work. Sink events
//     are captured per (region, subject), never written directly.
//
//  3. Merge (serial, in document order). Captured events are replayed into
//     the real sink region by region; a region that finishes early waits
//     its turn, so streamed delivery preserves exact document order. The
//     root's Close and the sink End are emitted once, by E0, after the
//     last region.
//
// Correctness of the per-region replay rests on an invariant of the
// evaluator: absent unresolved root-anchored predicate instances, the
// root-level suspension condition (maybeSuspendOrSkip at depth 1) depends
// only on state fixed when the root opens, so it fires during the prefix —
// making the subject a root-skip that never joins the regions — or never.
// Every region therefore starts from the same root-level state the serial
// scan would have at that point, and per-subject metrics fold by plain
// summation (maxima for the high-water marks).

// ErrNotParallelizable reports that a document/policy combination cannot be
// scanned in parallel with per-subject observables intact; callers fall
// back to the serial scan. It is always detected before any output is
// delivered.
var ErrNotParallelizable = errors.New("core: evaluation not parallelizable")

// errSubjectGone kills a subject's region evaluation after its real sink
// failed during an earlier region's merge.
var errSubjectGone = errors.New("core: subject left the parallel scan (sink failed in an earlier region)")

// RegionScanner is the event source a region worker scans: a region-limited
// decoder carrying the Skip-index facets (skipindex.NewRegionDecoder over a
// per-worker secure reader).
type RegionScanner interface {
	xmlstream.EventReader
	MetaProvider
	xmlstream.Skipper
	SkipMeasurer
}

// ParallelSubject is one subject evaluation riding a parallel scan.
// Opts.Query must be nil (query scopes anchor predicates at the root) and
// Opts.Sink receives the stitched view; a nil sink materializes a tree,
// like the serial path.
type ParallelSubject struct {
	CP   *CompiledPolicy
	Opts Options
}

// ParallelConfig wires a parallel scan to its document: the region plan's
// shared prefix and root metadata, plus a factory for region scanners.
type ParallelConfig struct {
	// Ctx, when non-nil, cancels the scan between events; workers abort at
	// the next event boundary and the shared error is returned.
	Ctx context.Context
	// Workers caps the number of concurrently scanning goroutines; it is
	// further capped by NumRegions and floored at 1.
	Workers int
	// NumRegions is the number of regions in the plan.
	NumRegions int
	// Prefix holds the shared document prefix events (root Open and its
	// direct text), from skipindex.RegionPlan.Prefix.
	Prefix []xmlstream.Event
	// RootName is the root element's tag name, used for the stitched Close
	// event and the structural root of subjects whose root is denied.
	RootName string
	// RootDescTags is the root's descendant-tag set
	// (skipindex.RegionPlan.RootDescendantTags) — the MetaProvider answer a
	// whole-document decoder gives right after the root opens.
	RootDescTags MetaProvider
	// RootSkipDistance is the byte count a depth-1 SkipToClose jumps right
	// after the prefix (skipindex.RegionPlan.RootSkipDistance); subjects
	// that deny the whole document are charged it, exactly like the serial
	// scan.
	RootSkipDistance int64
	// OpenRegion returns a scanner over region r and the trace context its
	// work is charged to (nil for untraced runs). Called from worker
	// goroutines, at most once per region; it must be safe for concurrent
	// calls with distinct r.
	OpenRegion func(r int) (RegionScanner, *trace.Context, error)
	// CloseRegion, when non-nil, runs once after region r's scan ends
	// (success or failure), on the worker goroutine.
	CloseRegion func(r int)
}

// ParallelStats reports the shared side of a parallel scan.
type ParallelStats struct {
	// Workers is the number of region workers actually started (0 when
	// every subject root-skipped and no region was scanned).
	Workers int
	// Regions is the number of planned regions.
	Regions int
	// Events counts the events read across all region scanners.
	Events int64
	// SharedSkips / SharedBytesSkipped aggregate the physical skips the
	// region scanners performed (possible only when every live subject of
	// the region skipped, as on the shared serial scan).
	SharedSkips        int64
	SharedBytesSkipped int64
}

// capturedEvent is one sink event buffered by a region worker; text holds
// the element name for Open/Close and the value for Text.
type capturedEvent struct {
	kind xmlstream.EventKind
	text string
}

// captureSink buffers a subject's region output for ordered replay. The
// dead flag is shared with the merge goroutine: once the subject's real
// sink fails, captures in later regions fail fast instead of buffering
// output that can never be delivered.
type captureSink struct {
	dead   *atomic.Bool
	events []capturedEvent
}

func (c *captureSink) add(kind xmlstream.EventKind, text string) error {
	if c.dead.Load() {
		return errSubjectGone
	}
	c.events = append(c.events, capturedEvent{kind: kind, text: text})
	return nil
}

func (c *captureSink) OpenElement(name string) error  { return c.add(xmlstream.Open, name) }
func (c *captureSink) Text(value string) error        { return c.add(xmlstream.Text, value) }
func (c *captureSink) CloseElement(name string) error { return c.add(xmlstream.Close, name) }

// End is never reached: region workers scan without finalizing, and the
// stitching evaluator ends the real sink.
func (c *captureSink) End() error { return nil }

// nopViewSink swallows the dry run's output.
type nopViewSink struct{}

func (nopViewSink) OpenElement(string) error  { return nil }
func (nopViewSink) Text(string) error         { return nil }
func (nopViewSink) CloseElement(string) error { return nil }
func (nopViewSink) End() error                { return nil }

// prefixFeed is the reader facade the stitching evaluator runs over: events
// are pushed (ProcessEvent), the Skip-index metadata answers for the root,
// and a depth-1 skip request is recorded — with the serial path's byte
// charge — instead of moving any reader.
type prefixFeed struct {
	rootTags MetaProvider
	skipDist int64
	skipped  bool
}

func (f *prefixFeed) Next() (xmlstream.Event, error) {
	return xmlstream.Event{}, errMultiFeedNext
}

func (f *prefixFeed) HasDescendantTag(name string) (has, known bool) {
	if f.rootTags == nil {
		return false, false
	}
	return f.rootTags.HasDescendantTag(name)
}

func (f *prefixFeed) SkipToClose(int) (int64, error) {
	f.skipped = true
	return f.skipDist, nil
}

// cancelScanner aborts a region scan at the next event boundary once the
// scan's context is canceled.
type cancelScanner struct {
	RegionScanner
	ctx context.Context
}

func (c *cancelScanner) Next() (xmlstream.Event, error) {
	if err := c.ctx.Err(); err != nil {
		return xmlstream.Event{}, fmt.Errorf("core: parallel scan canceled: %w", err)
	}
	return c.RegionScanner.Next()
}

// foldMetrics folds the metrics of one region (or of the stitching prefix)
// into a subject's total: counters sum, high-water marks fold by max. With
// the replay artifacts erased, the per-subject sum over prefix + regions
// equals the serial scan's counters exactly.
func foldMetrics(dst *Metrics, src Metrics) {
	dst.Events += src.Events
	dst.OpenEvents += src.OpenEvents
	dst.TokenOps += src.TokenOps
	dst.TransitionsFired += src.TransitionsFired
	dst.AuthEntries += src.AuthEntries
	dst.PredInstances += src.PredInstances
	dst.PredSatisfied += src.PredSatisfied
	dst.PredFailed += src.PredFailed
	dst.NodesPermitted += src.NodesPermitted
	dst.NodesDenied += src.NodesDenied
	dst.NodesPending += src.NodesPending
	dst.PendingResolved += src.PendingResolved
	dst.SubtreesSkipped += src.SubtreesSkipped
	dst.BytesSkipped += src.BytesSkipped
	dst.BlanketPermits += src.BlanketPermits
	if src.MaxTokenLevel > dst.MaxTokenLevel {
		dst.MaxTokenLevel = src.MaxTokenLevel
	}
	if src.MaxAuthDepth > dst.MaxAuthDepth {
		dst.MaxAuthDepth = src.MaxAuthDepth
	}
}

// parallelSubjectState is the per-subject bookkeeping of a parallel run.
type parallelSubjectState struct {
	cp   *CompiledPolicy
	opts Options

	sink ViewSink
	tree *xmlstream.TreeSink // non-nil when materializing (Opts.Sink nil)

	e0 *Evaluator // the stitching evaluator (prefix + root Close + End)

	// rootskip: the subject denied the whole document during the prefix
	// (the serial scan would SkipToClose(1)); it joins no region.
	rootskip bool
	// rootOpened: E0 delivered the root's opening tag during the prefix.
	// When false and a region delivers content, the merge opens the root
	// structurally under lazyName, exactly as the serial builder's
	// emitOpenPath would.
	rootOpened       bool
	mergerOpenedRoot bool
	lazyName         string

	// dead is shared with the capture sinks of in-flight regions.
	dead    atomic.Bool
	deadErr error

	// folded accumulates the per-region metrics, in region order.
	folded Metrics
}

func (st *parallelSubjectState) fail(err error) {
	if st.deadErr == nil {
		st.deadErr = err
	}
	st.dead.Store(true)
}

// emit writes one stitched event to the subject's real sink, wrapping
// failures like the serial builder does.
func (st *parallelSubjectState) emit(kind xmlstream.EventKind, text string) bool {
	var err error
	switch kind {
	case xmlstream.Open:
		err = st.sink.OpenElement(text)
	case xmlstream.Text:
		err = st.sink.Text(text)
	case xmlstream.Close:
		err = st.sink.CloseElement(text)
	}
	if err != nil {
		st.fail(fmt.Errorf("core: delivering view: %w", err))
		return false
	}
	return true
}

// regionOut is one region's contribution, produced by a worker and consumed
// by the in-order merge. Slices are indexed like the regionSubjects list.
type regionOut struct {
	events  [][]capturedEvent
	metrics []Metrics
	errs    []error
	stats   MultiStats
	err     error // shared failure: aborts the whole scan
}

// RunParallel evaluates every subject over the document's regions
// concurrently and stitches the views back into exact document order. The
// outcomes slice matches the subjects slice; a shared failure (a region
// reader failing, or context cancellation) returns nil outcomes and the
// error, like MultiEvaluator.Run. ErrNotParallelizable (wrapped) is
// returned before any output is delivered when a subject cannot ride the
// regions; the caller falls back to the serial scan.
func RunParallel(cfg ParallelConfig, subjects []ParallelSubject) ([]SubjectOutcome, ParallelStats, error) {
	stats := ParallelStats{Regions: cfg.NumRegions}
	if cfg.NumRegions < 1 || len(cfg.Prefix) == 0 || len(subjects) == 0 {
		return nil, stats, fmt.Errorf("%w: empty region plan", ErrNotParallelizable)
	}

	// Leg 1a — dry run: prove every subject parallelizable before a single
	// byte reaches a real sink, so the serial fallback starts clean.
	for i := range subjects {
		if subjects[i].Opts.Query != nil {
			return nil, stats, fmt.Errorf("%w: query scopes anchor at the document root", ErrNotParallelizable)
		}
		dry := &Evaluator{}
		dopts := subjects[i].Opts
		dopts.Sink = nopViewSink{}
		dopts.Trace = nil
		feed := &prefixFeed{rootTags: cfg.RootDescTags, skipDist: cfg.RootSkipDistance}
		dry.Reset(feed, subjects[i].CP, dopts)
		for _, ev := range cfg.Prefix {
			if err := dry.ProcessEvent(ev); err != nil {
				return nil, stats, fmt.Errorf("core: parallel prefix dry run: %w", err)
			}
			if feed.skipped {
				break
			}
		}
		for _, inst := range dry.predInstances {
			if inst.state == predUnknown {
				return nil, stats, fmt.Errorf("%w: unresolved predicate anchored at the document root", ErrNotParallelizable)
			}
		}
	}

	// Leg 1b — stitching evaluators: the prefix runs against the real sinks.
	states := make([]*parallelSubjectState, len(subjects))
	for i := range subjects {
		st := &parallelSubjectState{cp: subjects[i].CP, opts: subjects[i].Opts}
		st.sink = subjects[i].Opts.Sink
		if st.sink == nil {
			st.tree = xmlstream.NewTreeSink()
			st.sink = st.tree
		}
		st.lazyName = cfg.RootName
		if subjects[i].Opts.DummyDeniedNames {
			st.lazyName = "_"
		}
		feed := &prefixFeed{rootTags: cfg.RootDescTags, skipDist: cfg.RootSkipDistance}
		e0opts := subjects[i].Opts
		e0opts.Sink = st.sink
		st.e0 = &Evaluator{}
		st.e0.Reset(feed, subjects[i].CP, e0opts)
		for _, ev := range cfg.Prefix {
			if err := st.e0.ProcessEvent(ev); err != nil {
				st.fail(err)
				break
			}
			if feed.skipped {
				st.rootskip = true
				break
			}
		}
		st.rootOpened = st.e0.builder.root != nil && st.e0.builder.root.opened
		states[i] = st
	}

	// The subjects that ride the regions: live and not root-skipped.
	var regionSubjects []int
	for i, st := range states {
		if !st.rootskip && st.deadErr == nil {
			regionSubjects = append(regionSubjects, i)
		}
	}

	var mergeErr error
	if len(regionSubjects) > 0 {
		ctx := cfg.Ctx
		if ctx == nil {
			ctx = context.Background()
		}
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()

		workers := cfg.Workers
		if workers > cfg.NumRegions {
			workers = cfg.NumRegions
		}
		if workers < 1 {
			workers = 1
		}
		stats.Workers = workers

		outs := make([]regionOut, cfg.NumRegions)
		done := make([]chan struct{}, cfg.NumRegions)
		regionCh := make(chan int, cfg.NumRegions)
		for r := 0; r < cfg.NumRegions; r++ {
			done[r] = make(chan struct{})
			regionCh <- r
		}
		close(regionCh)

		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for r := range regionCh {
					if err := ctx.Err(); err != nil {
						outs[r].err = fmt.Errorf("core: parallel scan canceled: %w", err)
					} else {
						outs[r] = scanRegion(ctx, &cfg, states, regionSubjects, r)
						if outs[r].err != nil {
							cancel()
						}
					}
					close(done[r])
				}
			}()
		}

		// Leg 3 — in-order merge on this goroutine: region r's captures are
		// replayed only after regions 0..r-1 were, so the sink sees exact
		// document order no matter which worker finished first.
		for r := 0; r < cfg.NumRegions; r++ {
			<-done[r]
			out := &outs[r]
			if out.err != nil {
				mergeErr = out.err
				cancel()
				break
			}
			stats.Events += out.stats.Events
			stats.SharedSkips += out.stats.SharedSkips
			stats.SharedBytesSkipped += out.stats.SharedBytesSkipped
			for j, i := range regionSubjects {
				st := states[i]
				if st.deadErr != nil {
					continue
				}
				if out.errs[j] != nil {
					foldMetrics(&st.folded, out.metrics[j])
					st.fail(out.errs[j])
					continue
				}
				foldMetrics(&st.folded, out.metrics[j])
				evs := out.events[j]
				if len(evs) == 0 {
					continue
				}
				tr := st.opts.Trace
				tr.Begin(trace.PhaseEmit)
				if !st.rootOpened && !st.mergerOpenedRoot {
					// The serial builder opens a denied root structurally the
					// moment a permitted descendant settles; the stitched
					// stream does the same at the first region output.
					if !st.emit(xmlstream.Open, st.lazyName) {
						tr.End()
						continue
					}
					st.mergerOpenedRoot = true
				}
				for _, ev := range evs {
					if !st.emit(ev.kind, ev.text) {
						break
					}
				}
				tr.End()
			}
		}
		wg.Wait()
	}

	if mergeErr != nil {
		return nil, stats, mergeErr
	}

	// Leg 3, tail — one root Close and one End per subject, through the
	// stitching evaluator, so Finish-time semantics (unresolved denials,
	// sink End exactly once) match the serial path.
	rootClose := xmlstream.Event{Kind: xmlstream.Close, Name: cfg.RootName, Depth: 1}
	outcomes := make([]SubjectOutcome, len(subjects))
	for i, st := range states {
		if st.deadErr != nil {
			m := st.e0.Metrics()
			foldMetrics(&m, st.folded)
			outcomes[i] = SubjectOutcome{Result: &Result{Metrics: m}, Err: st.deadErr}
			continue
		}
		if st.mergerOpenedRoot {
			if !st.emit(xmlstream.Close, st.lazyName) {
				m := st.e0.Metrics()
				foldMetrics(&m, st.folded)
				outcomes[i] = SubjectOutcome{Result: &Result{Metrics: m}, Err: st.deadErr}
				continue
			}
		}
		var res *Result
		err := st.e0.ProcessEvent(rootClose)
		if err == nil {
			res, err = st.e0.Finish()
		}
		if res == nil {
			res = &Result{Metrics: st.e0.Metrics()}
		}
		foldMetrics(&res.Metrics, st.folded)
		if err == nil && st.tree != nil {
			res.View = st.tree.Root()
		}
		outcomes[i] = SubjectOutcome{Result: res, Err: err}
	}
	return outcomes, stats, nil
}

// scanRegion runs one region on a worker goroutine: fresh per-subject
// evaluators are primed by replaying the shared prefix, the replay's
// artifacts are erased, and the region is scanned through the shared-scan
// machinery (virtual per-subject skips, physical skip only when every live
// subject skipped).
func scanRegion(ctx context.Context, cfg *ParallelConfig, states []*parallelSubjectState, regionSubjects []int, r int) regionOut {
	var out regionOut
	scanner, rctx, err := cfg.OpenRegion(r)
	if err != nil {
		out.err = fmt.Errorf("core: opening region %d: %w", r, err)
		return out
	}
	if cfg.CloseRegion != nil {
		defer cfg.CloseRegion(r)
	}
	var reader xmlstream.EventReader = scanner
	if cfg.Ctx != nil {
		reader = &cancelScanner{RegionScanner: scanner, ctx: ctx}
	}
	m := NewMultiEvaluator(reader)
	captures := make([]*captureSink, len(regionSubjects))
	for j, i := range regionSubjects {
		st := states[i]
		captures[j] = &captureSink{dead: &st.dead}
		wopts := st.opts
		wopts.Sink = captures[j]
		wopts.Trace = rctx
		m.AddSubject(nil, st.cp, wopts)
	}
	for _, ev := range cfg.Prefix {
		m.dispatch(ev)
	}
	// Erase the replay's artifacts: the prefix output and its metrics were
	// already produced by the stitching evaluator. A root the prefix did not
	// open (denied root) is pre-marked opened so no region re-opens it
	// structurally — the merge owns that, once, in document order.
	for j, s := range m.subjects {
		captures[j].events = captures[j].events[:0]
		s.eval.metrics = Metrics{}
		if root := s.eval.builder.root; root != nil && !root.opened {
			root.opened = true
		}
	}
	if err := m.scan(); err != nil {
		out.err = fmt.Errorf("core: region %d: %w", r, err)
		return out
	}
	out.stats = m.Stats()
	out.events = make([][]capturedEvent, len(regionSubjects))
	out.metrics = make([]Metrics, len(regionSubjects))
	out.errs = make([]error, len(regionSubjects))
	for j, s := range m.subjects {
		out.events[j] = captures[j].events
		out.metrics[j] = s.eval.metrics
		out.errs[j] = s.err
	}
	return out
}
