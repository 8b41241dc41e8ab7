package xmlac

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"xmlac/internal/core"
	"xmlac/internal/secure"
	"xmlac/internal/skipindex"
	"xmlac/internal/soe"
	itrace "xmlac/internal/trace"
	"xmlac/internal/xmlstream"
)

// The view pipeline. Every entry point — solo or shared, materialized or
// streamed, local or remote — is a multicast of one or more CompiledViews
// over one secure.ChunkSource: runViews sets every view up, runs one scan
// step (the serial multicast scan or the region-parallel scan) and assembles
// every view's result. A solo view is a one-element multicast.

// traceSetter is implemented by chunk sources that can charge their work to
// an evaluation's tracing context (internal/remote's Source).
type traceSetter interface {
	SetTrace(*itrace.Context)
}

// contextSetter is implemented by chunk sources whose fetches can be bound to
// a request context (internal/remote's Source), so canceling the context
// aborts their in-flight transfers.
type contextSetter interface {
	SetContext(context.Context)
}

// scanResult is what a scan step produced: one outcome per view plus the
// costs of the shared machinery.
type scanResult struct {
	outcomes []core.SubjectOutcome
	costs    secure.Costs
	// physSkipped is the byte count the serial scan's shared reader jumped
	// over physically.
	physSkipped int64
	// workers is the number of region workers a parallel scan started; 0 for
	// the serial scan.
	workers int
	// regionPhases is the phase time charged to a parallel scan's region
	// contexts.
	regionPhases PhaseBreakdown
}

// runView runs one view as a one-element multicast and unpacks its result.
func runView(src secure.ChunkSource, key Key, v CompiledView) (*Document, *Metrics, error) {
	results, err := runViews(src, key, []CompiledView{v})
	if results == nil {
		return nil, nil, err
	}
	return results[0].View, results[0].Metrics, results[0].Err
}

// streamed drops the materialized view (nil for a streamed run) from
// runView's results.
func streamed(_ *Document, m *Metrics, err error) (*Metrics, error) { return m, err }

// runViews evaluates every view over one scan of src and returns one result
// per view, in order. A setup failure (a view without a policy, an invalid
// query, a reader that cannot open the source) returns only the error. A
// scan failure (integrity violation, truncated ciphertext, a failed or
// canceled remote fetch) returns the error together with the results: every
// view still in the scan carries the error and the partial Metrics of the
// work performed, so aggregators account for it exactly once.
//
// A one-view run is that view's own evaluation: its ViewOptions.Context
// bounds the scan, and its trace context is the scan's (the event loop
// included, as eval time), so the trace holds exactly one view:<subject>
// root span (with the remote page-cache counts in its Detail) and no
// shared-scan span. A scan serving two or more views
// ignores every view's Context — no single request may cancel a scan serving
// the others — and charges the shared machinery to a separate shared-scan
// context of the first traced view's Trace, whose phases are folded into
// every traced view's breakdown.
func runViews(src secure.ChunkSource, key Key, views []CompiledView) ([]ViewResult, error) {
	if len(views) == 0 {
		return nil, nil
	}
	start := time.Now()
	subjects := make([]core.ParallelSubject, len(views))
	writers := make([]*firstByteWriter, len(views))
	workers, hasQuery := 0, false
	for i, v := range views {
		opts, err := v.Options.coreOptions()
		if v.Policy == nil {
			err = errors.New("xmlac: nil CompiledPolicy")
		}
		if err != nil {
			if len(views) > 1 {
				err = fmt.Errorf("xmlac: view %d: %w", i, err)
			}
			return nil, err
		}
		if v.Output != nil {
			writers[i] = &firstByteWriter{w: v.Output, start: start}
			opts.Sink = xmlstream.NewViewSerializer(writers[i], v.Options.Indent)
		}
		subjects[i] = core.ParallelSubject{CP: v.Policy.core, Opts: opts}
		workers = max(workers, v.Options.Parallelism)
		hasQuery = hasQuery || v.Options.Query != ""
	}
	ctx, shared := views[0].Options.Context, subjects[0].Opts.Trace
	if len(views) > 1 {
		ctx, shared = nil, nil
		for _, v := range views {
			if v.Options.Trace != nil {
				shared = v.Options.Trace.context(v.Options.TraceID)
				break
			}
		}
	}

	// The one fork: a query scope anchors at the document root, so a query
	// vetoes the region-parallel scan before its planning cost is paid.
	var sc *scanResult
	var err error
	if prot, ok := src.(*secure.Protected); ok && workers >= 2 && !hasQuery {
		sc, err = parallelScan(ctx, prot, key, workers, subjects, shared)
	}
	if sc == nil && (err == nil || parallelFallback(err)) {
		sc, err = serialScan(ctx, src, key, subjects, shared)
	}
	if sc == nil {
		return nil, err
	}

	dur := time.Since(start)
	sharedPhases := sc.regionPhases
	if len(views) > 1 && shared != nil {
		shared.Finish("shared-scan", sc.costs.BytesTransferred)
		ph := breakdownFromPhases(shared.Phases())
		sharedPhases.Add(&ph)
	}
	results := make([]ViewResult, len(views))
	for i, out := range sc.outcomes {
		// The public BytesSkipped is what the shared reader physically
		// skipped. Region workers only skip what every view skipped, so a
		// parallel scan reports each view's own skip accounting: exactly what
		// its serial scan would physically skip.
		skipped := sc.physSkipped
		if sc.workers > 0 {
			skipped = out.Result.Metrics.BytesSkipped
		}
		m := buildMetrics(sc.costs, skipped, out.Result)
		m.Duration = dur
		m.Workers = int64(sc.workers)
		if writers[i] != nil {
			m.TimeToFirstByte = writers[i].ttfb
		}
		if tr := subjects[i].Opts.Trace; tr != nil {
			tr.Finish("view:"+views[i].Policy.subject, sc.costs.BytesTransferred)
			m.PhaseBreakdown = breakdownFromPhases(tr.Phases())
			m.PhaseBreakdown.Add(&sharedPhases)
		}
		results[i] = ViewResult{Metrics: m, Err: out.Err}
		if views[i].Output == nil && out.Err == nil {
			results[i].View = &Document{root: out.Result.View}
		}
	}
	return results, err
}

// scanState bundles the serial scan's machinery (secure reader plus one
// evaluator per view), reused across scans through a sync.Pool: concurrent
// views do not re-allocate the reader caches and evaluator tables, they only
// reset them.
type scanState struct {
	reader *secure.Reader
	evals  []*core.Evaluator
}

var scanPool = sync.Pool{New: func() any { return &scanState{} }}

// serialScan runs every view over one secure reader and Skip-index decoder:
// a core.MultiEvaluator dispatches each event to one evaluator per view. The
// Skip index degrades to the union of the views' needed regions (a subtree
// is physically skipped only when every view skips it); with one view that
// is exactly the view's own skips.
func serialScan(ctx context.Context, src secure.ChunkSource, key Key, subjects []core.ParallelSubject, shared *itrace.Context) (*scanResult, error) {
	st := scanPool.Get().(*scanState)
	defer scanPool.Put(st)
	if cs, ok := src.(contextSetter); ok && ctx != nil {
		cs.SetContext(ctx)
		defer cs.SetContext(nil)
	}
	var err error
	if st.reader == nil {
		st.reader, err = secure.NewReader(src, key)
	} else {
		err = st.reader.Reset(src, key)
	}
	if err != nil {
		return nil, err
	}
	// The trace is attached before the decoder opens, so the header read
	// (the first chunk's fetch, decryption and verification) is charged to
	// the scan's phases like every later read.
	if shared != nil {
		st.reader.SetTrace(shared)
		if ts, ok := src.(traceSetter); ok {
			ts.SetTrace(shared)
			defer ts.SetTrace(nil)
		}
		defer st.reader.SetTrace(nil)
	}
	decoder, err := skipindex.NewDecoder(st.reader)
	if err != nil {
		return nil, err
	}
	decoder.SetTrace(shared)
	multi := core.NewMultiEvaluator(decoder)
	for i, s := range subjects {
		for len(st.evals) <= i {
			st.evals = append(st.evals, &core.Evaluator{})
		}
		multi.AddSubject(st.evals[i], s.CP, s.Opts)
	}
	// A one-view scan's event loop is that view's own evaluation. With
	// several views it would overlap each view's eval phase, kept in the
	// view's own context, and be counted twice.
	loop := shared
	if len(subjects) > 1 {
		loop = nil
	}
	loop.Begin(itrace.PhaseEval)
	outcomes, err := multi.Run()
	loop.End()
	return &scanResult{outcomes: outcomes, costs: st.reader.Costs(), physSkipped: decoder.BytesSkipped()}, err
}

// buildMetrics folds the secure-reader costs and the evaluator metrics into
// the public Metrics record, including the smart-card execution estimate.
func buildMetrics(costs secure.Costs, bytesSkipped int64, res *core.Result) *Metrics {
	profile := soe.HardwareSmartCard()
	breakdown := profile.Breakdown(costs.BytesTransferred, costs.BytesDecrypted, costs.BytesHashed,
		res.Metrics.TokenOps+res.Metrics.Events)
	return &Metrics{
		BytesTransferred:          costs.BytesTransferred,
		BytesDecrypted:            costs.BytesDecrypted,
		BytesSkipped:              bytesSkipped,
		SubtreesSkipped:           res.Metrics.SubtreesSkipped,
		NodesPermitted:            res.Metrics.NodesPermitted,
		NodesDenied:               res.Metrics.NodesDenied,
		NodesPending:              res.Metrics.NodesPending,
		EstimatedSmartCardSeconds: breakdown.Total(),
	}
}

// firstByteWriter stamps the delay to the first delivered byte.
type firstByteWriter struct {
	w     io.Writer
	start time.Time
	ttfb  time.Duration
}

func (f *firstByteWriter) Write(p []byte) (int, error) {
	if f.ttfb == 0 && len(p) > 0 {
		f.ttfb = time.Since(f.start)
		if f.ttfb <= 0 {
			f.ttfb = 1 // a degenerate clock still marks "bytes were delivered"
		}
	}
	return f.w.Write(p)
}
