package xmlac

import (
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
// trace context, its delivery writer), scan runs the SOE's serial scan,
// soe.Scan, and finish assembles the result. A remote view that re-syncs
// runs a second scan under the same view, so the view keeps one clock and
// one root span.

// view is one view in progress: the policy cp under the options, streamed
// to fw when the caller passed a writer and materialized otherwise.
type view struct {
	start  time.Time
	cp     *CompiledPolicy
	opts   core.Options
	indent bool
	fw     *firstByteWriter
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
	v := view{start: start, cp: cp, opts: opts, indent: o.Indent}
	if w != nil {
		v.fw = &firstByteWriter{w: w, start: start}
	}
	return v, nil
}

// scan runs one scan of the view over src. Each scan delivers through a
// fresh serializer, so a retried scan never emits what a failed one left
// buffered.
func (v *view) scan(src secure.ChunkSource, key Key) (*core.Result, secure.Costs, error) {
	opts := v.opts
	if v.fw != nil {
		ser := xmlstream.NewSerializer(v.fw)
		ser.Indent = v.indent
		opts.Sink = ser
	}
	return soe.Scan(src, key, v.cp.core, opts)
}

// delivered reports whether a byte of the view has reached the caller's
// writer.
func (v *view) delivered() bool { return v.fw != nil && v.fw.ttfb != 0 }

// finish assembles the view from its last scan. A setup failure (no scan
// result: a reader that cannot open the source) returns only the error. A
// scan failure (integrity violation, truncated ciphertext, a failed or
// canceled remote fetch, a failed writer) returns the error together with
// the partial Metrics of the work performed. A traced view records exactly one view:<subject> root span,
// with the remote page-cache counts in its Detail.
func (v *view) finish(res *core.Result, costs secure.Costs, err error) (*Document, *Metrics, error) {
	if res == nil {
		return nil, nil, err
	}
	m := buildMetrics(costs, res)
	m.Duration = time.Since(v.start)
	if v.fw != nil {
		m.TimeToFirstByte = v.fw.ttfb
	}
	if tr := v.opts.Trace; tr != nil {
		tr.Finish("view:"+v.cp.subject, costs.BytesTransferred)
		m.PhaseBreakdown = breakdownFromPhases(tr.Phases())
	}
	if err != nil || v.fw != nil {
		return nil, m, err
	}
	return &Document{root: res.View}, m, nil
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
