package soe

import (
	"fmt"

	"xmlac/internal/accessrule"
	"xmlac/internal/core"
	"xmlac/internal/secure"
	"xmlac/internal/skipindex"
	"xmlac/internal/xmlstream"
	"xmlac/internal/xpath"
)

// Strategy is one of the evaluation strategies compared by the paper.
type Strategy int

const (
	// BruteForce filters the document without any index: the whole encrypted
	// document is transferred to and decrypted by the SOE.
	BruteForce Strategy = iota
	// SkipIndexStrategy is the TCSBR pipeline of the paper: Skip-index
	// decoding, token filtering, subtree skipping.
	SkipIndexStrategy
	// LowerBound is the LWB oracle: it reads and decrypts only the
	// authorized fragments, predicted for free.
	LowerBound
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case BruteForce:
		return "BF"
	case SkipIndexStrategy:
		return "TCSBR"
	case LowerBound:
		return "LWB"
	default:
		return "unknown"
	}
}

// Workload bundles a document with its encoded and protected forms so the
// same material can be evaluated under several policies, strategies and
// schemes without re-encoding.
type Workload struct {
	Name string
	Doc  *xmlstream.Node
	Key  secure.Key

	encoded   *skipindex.Encoded
	protected map[secure.Scheme]*secure.Protected
}

// NewWorkload prepares a workload: the document is Skip-index encoded once;
// protected forms are built lazily per scheme.
func NewWorkload(name string, doc *xmlstream.Node, key secure.Key) (*Workload, error) {
	enc, err := skipindex.Encode(doc)
	if err != nil {
		return nil, fmt.Errorf("soe: encoding %s: %w", name, err)
	}
	return &Workload{
		Name:      name,
		Doc:       doc,
		Key:       key,
		encoded:   enc,
		protected: map[secure.Scheme]*secure.Protected{},
	}, nil
}

// Encoded returns the Skip-index encoding of the workload document.
func (w *Workload) Encoded() *skipindex.Encoded { return w.encoded }

// EncodedSize returns the size in bytes of the compressed (Skip-index
// encoded) document, which is what the SOE consumes.
func (w *Workload) EncodedSize() int64 { return int64(len(w.encoded.Data)) }

// Protected returns (building it on first use) the encrypted form of the
// encoded document under the given scheme.
func (w *Workload) Protected(scheme secure.Scheme) (*secure.Protected, error) {
	if p, ok := w.protected[scheme]; ok {
		return p, nil
	}
	p, err := secure.Protect(w.encoded.Data, w.Key, secure.ProtectOptions{Scheme: scheme})
	if err != nil {
		return nil, err
	}
	w.protected[scheme] = p
	return p, nil
}

// RunSpec describes one evaluation run.
type RunSpec struct {
	Strategy Strategy
	Policy   *accessrule.Policy
	Query    *xpath.Path
	// Scheme selects the encryption/integrity combination; use
	// secure.SchemeECB to model "no integrity checking" (Figure 9) and
	// secure.SchemeECBMHT for the full proposal (Figures 11-12).
	Scheme  secure.Scheme
	Profile CostProfile
}

// Report is the outcome of a run.
type Report struct {
	Strategy Strategy
	Scheme   secure.Scheme
	Profile  string

	// View is the authorized (and possibly query-restricted) view; nil for
	// LWB (the oracle does not build it) and for empty views.
	View *xmlstream.Node
	// ResultBytes is the serialized size of the delivered view.
	ResultBytes int64

	// Volumes.
	CommBytes    int64
	DecryptBytes int64
	HashBytes    int64
	TokenOps     int64

	// Breakdown is the execution-time estimate under the profile.
	Breakdown CostBreakdown
}

// Throughput returns the processing throughput in KB/s of input document per
// second of estimated execution time (the metric of Figure 12), based on the
// compressed document size.
func (r *Report) Throughput(encodedSize int64) float64 {
	t := r.Breakdown.Total()
	if t <= 0 {
		return 0
	}
	return float64(encodedSize) / 1024 / t
}

// Run evaluates the workload under the given specification.
func (w *Workload) Run(spec RunSpec) (*Report, error) {
	switch spec.Strategy {
	case LowerBound:
		return w.runLowerBound(spec)
	case BruteForce, SkipIndexStrategy:
		return w.runPipeline(spec)
	default:
		return nil, fmt.Errorf("soe: unknown strategy %v", spec.Strategy)
	}
}

// runPipeline runs the SOE's scan (Scan) over the workload's protected form
// and materializes the view, so it can be compared with the rule oracle and
// measured. The brute-force strategy has no index: neither descendant-tag
// filtering nor subtree skips are available, so every byte of the document
// flows through the SOE.
func (w *Workload) runPipeline(spec RunSpec) (*Report, error) {
	prot, err := w.Protected(spec.Scheme)
	if err != nil {
		return nil, err
	}
	res, costs, err := Scan(prot, w.Key, core.CompilePolicy(spec.Policy), core.Options{
		Query:            spec.Query,
		DisableSkipIndex: spec.Strategy == BruteForce,
	})
	if err != nil {
		return nil, err
	}
	tokenOps := res.Metrics.TokenOps + res.Metrics.Events
	report := &Report{
		Strategy:     spec.Strategy,
		Scheme:       spec.Scheme,
		Profile:      spec.Profile.Name,
		View:         res.View,
		CommBytes:    costs.BytesTransferred,
		DecryptBytes: costs.BytesDecrypted,
		HashBytes:    costs.BytesHashed,
		TokenOps:     tokenOps,
	}
	if res.View != nil {
		report.ResultBytes = int64(len(xmlstream.SerializeTree(res.View, false)))
	}
	report.Breakdown = spec.Profile.Breakdown(report.CommBytes, report.DecryptBytes, report.HashBytes, tokenOps)
	return report, nil
}

// runLowerBound computes the LWB oracle estimate: only the authorized
// fragments are read and decrypted, with no access-control work at all. The
// authorized fragment volume is measured by Skip-index encoding the oracle
// view, which is exactly the portion of the compressed document the oracle
// would touch.
func (w *Workload) runLowerBound(spec RunSpec) (*Report, error) {
	view := accessrule.AuthorizedView(w.Doc, spec.Policy, accessrule.ViewOptions{Query: spec.Query})
	var authorizedBytes int64
	var resultBytes int64
	if view != nil {
		enc, err := skipindex.Encode(view)
		if err != nil {
			return nil, err
		}
		authorizedBytes = int64(len(enc.Data))
		resultBytes = int64(len(xmlstream.SerializeTree(view, false)))
	}
	// Integrity overhead for the oracle: digests of the chunks covering the
	// authorized volume.
	var hashBytes, digestBytes int64
	if spec.Scheme != secure.SchemeECB {
		chunks := (authorizedBytes + int64(secure.DefaultChunkSize) - 1) / int64(secure.DefaultChunkSize)
		digestBytes = chunks * 24
		hashBytes = authorizedBytes
	}
	report := &Report{
		Strategy:     LowerBound,
		Scheme:       spec.Scheme,
		Profile:      spec.Profile.Name,
		ResultBytes:  resultBytes,
		CommBytes:    authorizedBytes + digestBytes,
		DecryptBytes: authorizedBytes + digestBytes,
		HashBytes:    hashBytes,
	}
	report.Breakdown = spec.Profile.Breakdown(report.CommBytes, report.DecryptBytes, report.HashBytes, 0)
	return report, nil
}
