package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"xmlac/internal/trace"
	"xmlac/internal/xmlstream"
)

// Parallel intra-document scan: the Skip index partitions a document into
// regions at the root's child boundaries (skipindex.PlanRegions), and this
// orchestrator evaluates one subject's regions concurrently while keeping
// the delivered view, byte for byte, and the evaluation counters identical
// to the serial scan.
//
// The protocol has three legs:
//
//  1. Prefix (serial). A stitching evaluator E0 processes the shared
//     document prefix (root Open + direct text) against the real sink. A
//     dry run over a throwaway sink first proves the subject is
//     parallelizable: a predicate instance anchored at the root and still
//     unresolved after the prefix couples the regions (content in one
//     region decides delivery in another), so such subjects — and query
//     evaluations, whose scope predicates anchor at the root — fall back
//     to the serial scan before any byte reaches the sink.
//
//  2. Regions (parallel). A bounded pool of workers scans the regions,
//     each through its own region decoder and secure reader over the
//     shared immutable ciphertext. Every worker replays the prefix into a
//     fresh evaluator over its region scanner — re-creating exactly the
//     root-level token state the serial evaluator carries into that part
//     of the document — then erases the replay's artifacts (captured
//     events, metrics) so the region contributes only its own work. Its
//     subtree skips are physical jumps of its region scanner, as on the
//     serial scan. Sink events are captured per region, never written
//     directly.
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
// the subject root-skips and never joins the regions — or never. Every
// region therefore starts from the same root-level state the serial scan
// would have at that point, and the metrics fold by plain summation
// (maxima for the high-water marks).

// ErrNotParallelizable reports that a document/policy combination cannot be
// scanned in parallel with its observables intact; callers fall back to the
// serial scan. It is always detected before any output is delivered.
var ErrNotParallelizable = errors.New("core: evaluation not parallelizable")

// errPrefixFeedNext guards against the stitching evaluator pulling events
// itself: the parallel scan pushes the prefix events into it.
var errPrefixFeedNext = errors.New("core: prefix feed is push-driven; Next must not be called")

// RegionScanner is the event source a region worker scans: a region-limited
// decoder carrying the Skip-index facets (skipindex.NewRegionDecoder over a
// per-worker secure reader).
type RegionScanner interface {
	xmlstream.EventReader
	MetaProvider
	xmlstream.Skipper
}

// ParallelConfig wires a parallel scan to its document: the region plan's
// shared prefix and root metadata, plus a factory for region scanners.
type ParallelConfig struct {
	// Ctx, when non-nil, cancels the scan between events; workers abort at
	// the next event boundary and the error is returned.
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
	// event and the structural root of a view whose root is denied.
	RootName string
	// RootDescTags is the root's descendant-tag set
	// (skipindex.RegionPlan.RootDescendantTags) — the MetaProvider answer a
	// whole-document decoder gives right after the root opens.
	RootDescTags MetaProvider
	// RootSkipDistance is the byte count a depth-1 SkipToClose jumps right
	// after the prefix (skipindex.RegionPlan.RootSkipDistance); a subject
	// that denies the whole document is charged it, exactly like the serial
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

// ParallelStats reports the shape of a parallel scan.
type ParallelStats struct {
	// Workers is the number of region workers actually started (0 when the
	// subject root-skipped and no region was scanned).
	Workers int
	// Regions is the number of planned regions.
	Regions int
}

// capturedEvent is one sink event buffered by a region worker; text holds
// the element name for Open/Close and the value for Text.
type capturedEvent struct {
	kind xmlstream.EventKind
	text string
}

// captureSink buffers a region's output for ordered replay.
type captureSink struct {
	events []capturedEvent
}

func (c *captureSink) add(kind xmlstream.EventKind, text string) error {
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
	return xmlstream.Event{}, errPrefixFeedNext
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
// into the total: counters sum, high-water marks fold by max. With the
// replay artifacts erased, the sum over prefix + regions equals the serial
// scan's counters exactly.
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

// regionOut is one region's contribution, produced by a worker and consumed
// by the in-order merge. On a failure, metrics holds the region's partial
// work.
type regionOut struct {
	events  []capturedEvent
	metrics Metrics
	err     error
}

// stitcher is the merge side of a parallel scan: the real sink and the
// region metrics folded so far.
type stitcher struct {
	sink ViewSink
	tr   *trace.Context
	// rootOpened: E0 delivered the root's opening tag during the prefix.
	// When false and a region delivers content, the merge opens the root
	// structurally under lazyName, exactly as the serial builder's
	// emitOpenPath would.
	rootOpened       bool
	mergerOpenedRoot bool
	lazyName         string
	folded           Metrics
}

// emit writes one stitched event to the real sink, wrapping failures like
// the serial builder does.
func (s *stitcher) emit(kind xmlstream.EventKind, text string) error {
	var err error
	switch kind {
	case xmlstream.Open:
		err = s.sink.OpenElement(text)
	case xmlstream.Text:
		err = s.sink.Text(text)
	case xmlstream.Close:
		err = s.sink.CloseElement(text)
	}
	if err != nil {
		return fmt.Errorf("core: delivering view: %w", err)
	}
	return nil
}

// merge folds one region's metrics and replays its captured events into the
// real sink; it returns the region's own failure or the sink's.
func (s *stitcher) merge(out *regionOut) error {
	foldMetrics(&s.folded, out.metrics)
	if out.err != nil || len(out.events) == 0 {
		return out.err
	}
	s.tr.Begin(trace.PhaseEmit)
	defer s.tr.End()
	if !s.rootOpened && !s.mergerOpenedRoot {
		// The serial builder opens a denied root structurally the moment a
		// permitted descendant settles; the stitched stream does the same
		// at the first region output.
		if err := s.emit(xmlstream.Open, s.lazyName); err != nil {
			return err
		}
		s.mergerOpenedRoot = true
	}
	for _, ev := range out.events {
		if err := s.emit(ev.kind, ev.text); err != nil {
			return err
		}
	}
	return nil
}

// RunParallel evaluates one subject over the document's regions
// concurrently and stitches its view back into exact document order.
// opts.Query must be nil (query scopes anchor predicates at the root) and
// opts.Sink receives the stitched view; a nil sink materializes a tree,
// like the serial path. ErrNotParallelizable (wrapped) is returned with a
// nil Result before any output is delivered when the subject cannot ride
// the regions; the caller falls back to the serial scan. Any other failure
// — a region reader's, the sink's, a canceled context — returns the error
// with a Result carrying the partial metrics of the prefix and of the
// regions merged up to the failure, like Evaluator.Run.
func RunParallel(cfg ParallelConfig, cp *CompiledPolicy, opts Options) (*Result, ParallelStats, error) {
	stats := ParallelStats{Regions: cfg.NumRegions}
	if cfg.NumRegions < 1 || len(cfg.Prefix) == 0 {
		return nil, stats, fmt.Errorf("%w: empty region plan", ErrNotParallelizable)
	}
	if opts.Query != nil {
		return nil, stats, fmt.Errorf("%w: query scopes anchor at the document root", ErrNotParallelizable)
	}

	// Leg 1a — dry run: prove the subject parallelizable before a single
	// byte reaches the real sink, so the serial fallback starts clean.
	dry := &Evaluator{}
	dopts := opts
	dopts.Sink = nopViewSink{}
	dopts.Trace = nil
	feed := &prefixFeed{rootTags: cfg.RootDescTags, skipDist: cfg.RootSkipDistance}
	dry.Reset(feed, cp, dopts)
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

	// Leg 1b — the stitching evaluator runs the prefix against the real sink.
	s := &stitcher{sink: opts.Sink, tr: opts.Trace, lazyName: cfg.RootName}
	var tree *xmlstream.TreeSink
	if s.sink == nil {
		tree = xmlstream.NewTreeSink()
		s.sink = tree
	}
	if opts.DummyDeniedNames {
		s.lazyName = "_"
	}
	feed = &prefixFeed{rootTags: cfg.RootDescTags, skipDist: cfg.RootSkipDistance}
	e0opts := opts
	e0opts.Sink = s.sink
	e0 := &Evaluator{}
	e0.Reset(feed, cp, e0opts)
	var err error
	for _, ev := range cfg.Prefix {
		if err = e0.ProcessEvent(ev); err != nil || feed.skipped {
			break
		}
	}
	s.rootOpened = e0.builder.root != nil && e0.builder.root.opened

	// A subject that denied the whole document during the prefix (the
	// serial scan would SkipToClose(1)) joins no region.
	if err == nil && !feed.skipped {
		stats.Workers, err = s.runRegions(&cfg, cp, opts)
	}

	// Leg 3, tail — one root Close and one End, through the stitching
	// evaluator, so Finish-time semantics (unresolved denials, sink End
	// exactly once) match the serial path.
	if err == nil && s.mergerOpenedRoot {
		err = s.emit(xmlstream.Close, s.lazyName)
	}
	if err == nil {
		err = e0.ProcessEvent(xmlstream.Event{Kind: xmlstream.Close, Name: cfg.RootName, Depth: 1})
	}
	res := &Result{Metrics: e0.Metrics()}
	if err == nil {
		res, err = e0.Finish()
	}
	foldMetrics(&res.Metrics, s.folded)
	if err == nil && tree != nil {
		res.View = tree.Root()
	}
	return res, stats, err
}

// runRegions scans the regions on a bounded worker pool (leg 2) and merges
// them into the real sink in document order (leg 3). It returns the number
// of workers started and the first failure in document order; every worker
// has finished by the time it returns.
func (s *stitcher) runRegions(cfg *ParallelConfig, cp *CompiledPolicy, opts Options) (int, error) {
	ctx := cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	workers := min(cfg.Workers, cfg.NumRegions)
	if workers < 1 {
		workers = 1
	}
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
					outs[r] = scanRegion(ctx, cfg, cp, opts, r)
					if outs[r].err != nil {
						cancel()
					}
				}
				close(done[r])
			}
		}()
	}

	// Region r's captures are replayed only after regions 0..r-1 were, so
	// the sink sees exact document order no matter which worker finished
	// first. After a failure no region starts; those in flight finish (or,
	// with cfg.Ctx set, abort at their next event) and are not merged.
	var err error
	for r := 0; r < cfg.NumRegions && err == nil; r++ {
		<-done[r]
		err = s.merge(&outs[r])
	}
	cancel()
	wg.Wait()
	return workers, err
}

// scanRegion runs one region on a worker goroutine: a fresh evaluator over
// the region scanner is primed by replaying the shared prefix, the replay's
// artifacts are erased, and the region is scanned without finalizing.
func scanRegion(ctx context.Context, cfg *ParallelConfig, cp *CompiledPolicy, opts Options, r int) regionOut {
	scanner, rctx, err := cfg.OpenRegion(r)
	if err != nil {
		return regionOut{err: fmt.Errorf("core: opening region %d: %w", r, err)}
	}
	if cfg.CloseRegion != nil {
		defer cfg.CloseRegion(r)
	}
	var reader xmlstream.EventReader = scanner
	if cfg.Ctx != nil {
		reader = &cancelScanner{RegionScanner: scanner, ctx: ctx}
	}
	capture := &captureSink{}
	wopts := opts
	wopts.Sink = capture
	wopts.Trace = rctx
	e := &Evaluator{}
	e.Reset(reader, cp, wopts)
	for _, ev := range cfg.Prefix {
		if err := e.ProcessEvent(ev); err != nil {
			return regionOut{err: fmt.Errorf("core: region %d: replaying the prefix: %w", r, err)}
		}
	}
	// Erase the replay's artifacts: the prefix output and its metrics were
	// already produced by the stitching evaluator. A root the prefix did not
	// open (denied root) is pre-marked opened so no region re-opens it
	// structurally — the merge owns that, once, in document order.
	capture.events = capture.events[:0]
	e.metrics = Metrics{}
	if root := e.builder.root; root != nil {
		root.opened = true
	}
	err = e.scan()
	if err != nil {
		err = fmt.Errorf("core: region %d: %w", r, err)
	}
	return regionOut{events: capture.events, metrics: e.metrics, err: err}
}
