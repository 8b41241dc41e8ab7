package xmlac

import (
	"context"
	"errors"
	"io"
	"time"

	"xmlac/internal/core"
	"xmlac/internal/secure"
	"xmlac/internal/soe"
	"xmlac/internal/xmlstream"
)

// The view pipeline. Protected.View and RemoteDocument.View run one view
// over one secure.ChunkSource: newView sets the view up (its clock, its
// trace context, its delivery writer), scan runs one scan step (the SOE's
// serial scan, soe.Scan, or the region-parallel scan) and finish assembles
// the result. A
// remote view that re-syncs runs a second scan step under the same view, so
// the view keeps one clock and one root span.

// scanResult is what a scan step produced: the evaluation result (partial
// metrics and no view when the scan failed) and the costs of the machinery.
type scanResult struct {
	res   *core.Result
	costs secure.Costs
	// workers is the number of region workers a parallel scan started; 0 for
	// the serial scan.
	workers int
	// regionPhases is the phase time charged to a parallel scan's region
	// contexts.
	regionPhases PhaseBreakdown
}

// view is one view in progress: the policy cp under the options, streamed
// to fw when the caller passed a writer and materialized otherwise.
type view struct {
	start       time.Time
	cp          *CompiledPolicy
	opts        core.Options
	parallelism int
	indent      bool
	fw          *firstByteWriter
}

// newView starts the view's clock and trace context. A nil policy or an
// invalid query fails here, before any byte is read.
func newView(cp *CompiledPolicy, o ViewOptions, w io.Writer) (view, error) {
	start := time.Now()
	opts, err := o.coreOptions()
	if cp == nil {
		err = errors.New("xmlac: nil CompiledPolicy")
	}
	if err != nil {
		return view{}, err
	}
	v := view{start: start, cp: cp, opts: opts, parallelism: o.Parallelism, indent: o.Indent}
	if w != nil {
		v.fw = &firstByteWriter{w: w, start: start}
	}
	return v, nil
}

// scan runs one scan step of the view over src. Each step delivers through a
// fresh serializer, so a retried step never emits what a failed one left
// buffered. ctx aborts the region workers of a parallel scan; a serial scan
// does not poll it.
func (v *view) scan(ctx context.Context, src secure.ChunkSource, key Key) (*scanResult, error) {
	opts := v.opts
	if v.fw != nil {
		opts.Sink = xmlstream.NewViewSerializer(v.fw, v.indent)
	}
	// The one fork: a query scope anchors at the document root, so a query
	// vetoes the region-parallel scan before its planning cost is paid.
	var sc *scanResult
	var err error
	if prot, ok := src.(*secure.Protected); ok && v.parallelism >= 2 && opts.Query == nil {
		sc, err = parallelScan(ctx, prot, key, v.parallelism, v.cp.core, opts)
	}
	if sc == nil && (err == nil || parallelFallback(err)) {
		var res *core.Result
		var costs secure.Costs
		res, costs, err = soe.Scan(src, key, v.cp.core, opts)
		if res != nil {
			sc = &scanResult{res: res, costs: costs}
		}
	}
	return sc, err
}

// delivered reports whether a byte of the view has reached the caller's
// writer.
func (v *view) delivered() bool { return v.fw != nil && v.fw.ttfb != 0 }

// finish assembles the view from its last scan step. A setup failure (no
// scan result: a reader that cannot open the source) returns only the
// error. A scan failure (integrity violation, truncated ciphertext, a failed
// or canceled remote fetch, a failed writer) returns the error together with
// the partial Metrics of the work performed, so aggregators account for it
// exactly once. A traced view records exactly one view:<subject> root span,
// with the remote page-cache counts in its Detail.
func (v *view) finish(sc *scanResult, err error) (*Document, *Metrics, error) {
	if sc == nil {
		return nil, nil, err
	}
	m := buildMetrics(sc.costs, sc.res)
	m.Duration = time.Since(v.start)
	m.Workers = int64(sc.workers)
	if v.fw != nil {
		m.TimeToFirstByte = v.fw.ttfb
	}
	if tr := v.opts.Trace; tr != nil {
		tr.Finish("view:"+v.cp.subject, sc.costs.BytesTransferred)
		m.PhaseBreakdown = breakdownFromPhases(tr.Phases())
		m.PhaseBreakdown.Add(&sc.regionPhases)
	}
	if err != nil || v.fw != nil {
		return nil, m, err
	}
	return &Document{root: sc.res.View}, m, nil
}

// buildMetrics folds the secure-reader costs and the evaluator metrics into
// the public Metrics record, including the smart-card execution estimate.
func buildMetrics(costs secure.Costs, res *core.Result) *Metrics {
	profile := soe.HardwareSmartCard()
	breakdown := profile.Breakdown(costs.BytesTransferred, costs.BytesDecrypted, costs.BytesHashed,
		res.Metrics.TokenOps+res.Metrics.Events)
	return &Metrics{
		BytesTransferred:          costs.BytesTransferred,
		BytesDecrypted:            costs.BytesDecrypted,
		BytesSkipped:              res.Metrics.BytesSkipped,
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
