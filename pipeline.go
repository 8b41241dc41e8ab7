package xmlac

import (
	"context"
	"errors"
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

// The view pipeline. Every entry point — materialized or streamed, local or
// remote — runs one view over one secure.ChunkSource through runView: it
// sets the view up, runs one scan step (the serial scan or the
// region-parallel scan) and assembles the view's result.

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

// scanResult is what a scan step produced: the evaluation result (partial
// metrics and no view when the scan failed) and the costs of the machinery.
type scanResult struct {
	res   *core.Result
	costs secure.Costs
	// skipped is the public BytesSkipped: the bytes the serial scan's
	// decoder jumped over, or the view's own skip accounting for a parallel
	// scan (exactly what its serial scan would jump over).
	skipped int64
	// workers is the number of region workers a parallel scan started; 0 for
	// the serial scan.
	workers int
	// regionPhases is the phase time charged to a parallel scan's region
	// contexts.
	regionPhases PhaseBreakdown
}

// runView evaluates one view of src: the policy cp under o, streamed to w
// when w is non-nil and materialized into the returned Document otherwise.
// A setup failure (a nil policy, an invalid query, a reader that cannot
// open the source) returns only the error. A scan failure (integrity
// violation, truncated ciphertext, a failed or canceled remote fetch, a
// failed writer) returns the error together with the partial Metrics of the
// work performed, so aggregators account for it exactly once.
//
// The view's Context bounds the scan, and its trace context is the scan's
// (reader header and event loop included, the loop as eval time), so the
// trace holds exactly one view:<subject> root span, with the remote
// page-cache counts in its Detail.
func runView(src secure.ChunkSource, key Key, cp *CompiledPolicy, o ViewOptions, w io.Writer) (*Document, *Metrics, error) {
	start := time.Now()
	opts, err := o.coreOptions()
	if cp == nil {
		err = errors.New("xmlac: nil CompiledPolicy")
	}
	if err != nil {
		return nil, nil, err
	}
	var fw *firstByteWriter
	if w != nil {
		fw = &firstByteWriter{w: w, start: start}
		opts.Sink = xmlstream.NewViewSerializer(fw, o.Indent)
	}

	// The one fork: a query scope anchors at the document root, so a query
	// vetoes the region-parallel scan before its planning cost is paid.
	var sc *scanResult
	if prot, ok := src.(*secure.Protected); ok && o.Parallelism >= 2 && opts.Query == nil {
		sc, err = parallelScan(o.Context, prot, key, o.Parallelism, cp.core, opts)
	}
	if sc == nil && (err == nil || parallelFallback(err)) {
		sc, err = serialScan(o.Context, src, key, cp.core, opts)
	}
	if sc == nil {
		return nil, nil, err
	}

	m := buildMetrics(sc.costs, sc.skipped, sc.res)
	m.Duration = time.Since(start)
	m.Workers = int64(sc.workers)
	if fw != nil {
		m.TimeToFirstByte = fw.ttfb
	}
	if tr := opts.Trace; tr != nil {
		tr.Finish("view:"+cp.subject, sc.costs.BytesTransferred)
		m.PhaseBreakdown = breakdownFromPhases(tr.Phases())
		m.PhaseBreakdown.Add(&sc.regionPhases)
	}
	if err != nil || w != nil {
		return nil, m, err
	}
	return &Document{root: sc.res.View}, m, nil
}

// scanState bundles the serial scan's machinery (secure reader, Skip-index
// decoder and evaluator), reused across scans through a sync.Pool:
// concurrent views do not re-allocate the reader caches, decoder stacks and
// evaluator tables, they only reset them.
type scanState struct {
	reader  *secure.Reader
	decoder skipindex.Decoder
	eval    core.Evaluator
}

var scanPool = sync.Pool{New: func() any { return &scanState{} }}

// serialScan runs the view over one secure reader and Skip-index decoder:
// the evaluator pulls events from the decoder and jumps over the subtrees
// it skips. opts.Trace, when non-nil, is charged the reader's and the
// decoder's phases too.
func serialScan(ctx context.Context, src secure.ChunkSource, key Key, cp *core.CompiledPolicy, opts core.Options) (*scanResult, error) {
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
	tr := opts.Trace
	if tr != nil {
		st.reader.SetTrace(tr)
		if ts, ok := src.(traceSetter); ok {
			ts.SetTrace(tr)
			defer ts.SetTrace(nil)
		}
		defer st.reader.SetTrace(nil)
	}
	decoder := &st.decoder
	if err := decoder.Reset(st.reader); err != nil {
		return nil, err
	}
	decoder.SetTrace(tr)
	st.eval.Reset(decoder, cp, opts)
	tr.Begin(itrace.PhaseEval)
	res, err := st.eval.Run()
	tr.End()
	return &scanResult{res: res, costs: st.reader.Costs(), skipped: decoder.BytesSkipped()}, err
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
