// Package xmlac is a client-based access-control manager for XML documents,
// a from-scratch implementation of Bouganim, Dang Ngoc and Pucheral,
// "Client-Based Access Control Management for XML documents" (VLDB 2004 /
// INRIA RR-5282).
//
// The library lets a publisher compress (Skip index), encrypt and
// integrity-protect an XML document once, and lets a client-side Secure
// Operating Environment (SOE) evaluate dynamic, user-specific access-control
// policies — and optionally a query — over the encrypted document in a
// streaming fashion, delivering exactly the authorized view while skipping
// (neither transferring nor decrypting) the prohibited parts.
//
// Typical flow — the view is streamed to its destination while the
// encrypted document is scanned, exactly as the paper's SOE delivers it:
//
//	doc, _ := xmlac.ParseDocumentString(xmlText)
//	key := xmlac.DeriveKey("passphrase provisioned through a secure channel")
//	protected, _ := xmlac.Protect(doc, key, xmlac.SchemeECBMHT)
//
//	policy := xmlac.Policy{
//	    Subject: "DrA",
//	    Rules: []xmlac.Rule{
//	        {Sign: "+", Object: "//Folder/Admin"},
//	        {Sign: "+", Object: "//MedActs[//RPhys = USER]"},
//	        {Sign: "-", Object: "//Act[RPhys != USER]/Details"},
//	    },
//	}
//	metrics, _ := protected.StreamAuthorizedView(key, policy, xmlac.ViewOptions{}, os.Stdout)
//	fmt.Printf("skipped %d bytes of prohibited data, first byte after %s\n",
//	    metrics.BytesSkipped, metrics.TimeToFirstByte)
//
// Streaming delivery keeps peak memory and time-to-first-byte proportional
// to the evaluator's working set (open path plus pending predicates), not to
// the view: authorized events flow into the destination writer as soon as
// their access decision settles, and a write error (a disconnected client)
// aborts the document scan. Callers that do want the view as a document tree
// use AuthorizedView, which delivers the same event stream into an in-memory
// tree instead:
//
//	view, metrics, _ := protected.AuthorizedView(key, policy, xmlac.ViewOptions{})
//	fmt.Println(view.XML())
//
// The two paths are byte-identical (StreamAuthorizedView output equals
// view.XML(), or view.IndentedXML() with ViewOptions.Indent) and report
// identical SOE metrics. On the paper's hospital dataset at scale 1.0
// (BenchmarkStreamingView, ~3.6 MB protected document):
//
//	profile    delivery      time/view  allocated/view  first byte after
//	secretary  materialized      52 ms         23.3 MB  52 ms (whole view)
//	secretary  streaming         45 ms         18.0 MB  0.08 ms
//	doctor     materialized     396 ms        176.9 MB  396 ms
//	doctor     streaming        294 ms        116.0 MB  0.21 ms
//
// # Compile once, evaluate many
//
// AuthorizedView and StreamAuthorizedView parse and compile every rule on
// each call. When the same policy is evaluated repeatedly — a server
// streaming views to a fleet of clients, a batch job — compile it once and
// reuse it:
//
//	cp, _ := policy.Compile()
//	metrics, _ := protected.StreamAuthorizedViewCompiled(key, cp, xmlac.ViewOptions{}, w)
//	view, metrics, _ := protected.AuthorizedViewCompiled(key, cp, xmlac.ViewOptions{})
//
// The contract: the compiled entry points produce byte-identical views and
// identical metrics to their uncompiled counterparts for the policy the
// CompiledPolicy was compiled from. A CompiledPolicy is immutable and safe
// for concurrent use; its Hash (the policy Fingerprint) is a stable cache
// key. All entry points draw their per-request machinery (secure reader,
// streaming evaluator) from a sync.Pool, so concurrent evaluations do not
// re-allocate it.
//
// # Shared scans
//
// When many subjects read the same document, the dominant cost — the
// decrypt/integrity-check/parse pass over the ciphertext — is the same bytes
// scanned once per subject. AuthorizedViewsCompiled amortizes it: one shared
// pass dispatches every event to N compiled policies, each with its own
// delivery sink, options and metrics:
//
//	results, _ := protected.AuthorizedViewsCompiled(key, []xmlac.CompiledView{
//	    {Policy: cpAlice, Output: wAlice},
//	    {Policy: cpBob, Output: wBob},
//	    {Policy: cpCarol}, // no Output: materialized into results[2].View
//	})
//
// Per-subject output is byte-identical to the solo entry points and the
// per-subject counters are identical; only the shared-cost fields
// (BytesTransferred, BytesDecrypted, BytesSkipped) describe the single
// shared pass. There is only one pipeline: every solo entry point, local or
// remote, materialized or streamed, is this scan with a one-element view
// list. The Skip index degrades to the union of the subjects' needed
// regions — a subtree is physically skipped only when every subject skips
// it — and one subject's failing writer removes only that subject from the
// scan (ViewResult.Err). On the scale-1.0 hospital document, 16 subjects
// multicast cost ~2.7x one solo scan where 16 solo scans cost ~16x
// (BenchmarkSharedScan).
//
// # Parallel scans
//
// Shared scans amortize one document across many subjects; ViewOptions.
// Parallelism attacks the opposite hot spot — one big document, one (or a
// few) subjects, many idle cores. The same Skip-index subtree sizes that
// power constant-time skips make the scan decomposable: the root's children
// are partitioned into byte-balanced regions, each region is decrypted,
// integrity-checked, decoded and evaluated by its own worker over the shared
// immutable ciphertext, and the sink events are stitched back into exact
// document order:
//
//	metrics, _ := protected.StreamAuthorizedViewCompiled(key, cp,
//	    xmlac.ViewOptions{Parallelism: 8}, w)
//	fmt.Printf("%d workers\n", metrics.Workers)
//
// The delivered view is byte-identical to the serial scan's and the
// per-subject decision counters are exactly equal; only the shared cost
// fields (BytesTransferred, BytesDecrypted, EstimatedSmartCardSeconds) grow
// by the region planning reads and the chunk re-decrypts at region
// boundaries. Evaluations the region protocol cannot serve — queries,
// root-anchored predicates unresolved at the end of the document prefix,
// documents with fewer than two root children, remote documents — fall back
// to the serial scan before any output is delivered. The region/merge
// protocol and the invariant that makes it safe are documented in
// docs/ARCHITECTURE.md.
//
// # Versioned in-place updates
//
// The chunked encryption layout exists so an edit re-encrypts only what it
// touches. Protected.Update applies subtree edits (Edit: replace, delete,
// insert, set-text, addressed by a simple location path), re-encrypts only
// the integrity chunks whose bytes changed, rebuilds only the affected
// Merkle roots and Skip-index entries, and installs the result as the next
// document version — monotonic, stamped into the container and the
// manifest:
//
//	version, delta, _ := protected.Update(key, []xmlac.Edit{
//	    {Op: xmlac.EditSetText, Path: "/Hospital/Folder[7]/Admin/Phone", Text: "5551234567"},
//	})
//	fmt.Printf("now v%d, %d of %d chunks re-encrypted\n",
//	    version, len(delta.DirtyChunks), delta.NumChunks)
//
// The contract is differential: views of the updated document are
// byte-identical, with identical SOE metrics, to views of a from-scratch
// Protect of the edited tree (Document.ApplyEdits is the reference edit
// semantics). A same-length text replacement takes an in-place fast path
// that splices the cached Skip-index encoding without re-encoding — on the
// scale-1.0 hospital document a field update costs ~3 ms against ~200 ms
// for a full re-protect (BenchmarkUpdate), re-encrypting under 0.1% of the
// ciphertext. Updates never tear concurrent evaluations: every view runs on
// the version it snapshotted at its start, and an edit batch applies
// atomically. The returned UpdateDelta names the dirty chunks; its
// marshalled form is what the server's delta endpoint serves to remote
// caches.
//
// # Server
//
// The internal/server package and the xmlac-serve command expose this API as
// a concurrent multi-tenant HTTP service: protected documents and
// per-subject policies are registered over HTTP (PUT /docs/{id},
// PUT /docs/{id}/policies/{subject}), and GET /docs/{id}/view?subject=...
// streams the subject's authorized view straight from the evaluator into the
// chunked response — the server holds an evaluator working set per in-flight
// view, never a DOM tree or a serialized copy, so thousands of concurrent
// views cost thousands of working sets. The evaluation metrics travel as
// HTTP trailers (they are not known when the headers go out), and a client
// that disconnects mid-view cancels the request context and stops the
// evaluation mid-document. Each policy is compiled once, when it is
// installed, and every view of its subject runs one scan with that compiled
// form; GET /metrics aggregates the Metrics counters of every evaluation
// across requests and sessions.
//
// # Remote SOE
//
// The deployment model of the paper keeps the server untrusted: it stores
// only the encrypted container, and the SOE holding the key runs on the
// client. OpenRemote implements that model against the same server's blob
// surface (GET /docs/{id}/manifest, /blob with HTTP ranges, /hashes):
//
//	doc, _ := xmlac.OpenRemote("http://host:8080/docs/hospital", key)
//	view, metrics, _ := doc.AuthorizedView(policy, xmlac.ViewOptions{})
//	fmt.Printf("%d bytes on the wire for a %d byte document (%d round trips)\n",
//	    metrics.BytesOnWire, doc.Size(), metrics.RoundTrips)
//
// The policy is evaluated locally while ciphertext is pulled on demand
// through range requests (coalesced, cached in a bounded LRU of pages), so
// the bytes the Skip index skips are bytes that never cross the network:
// Metrics.BytesOnWire stays well under a full download for selective
// policies. The xmlac-client command and examples/remoteclient show the full
// flow; integrity is verified client-side against the decrypted chunk
// digests, so a tampering server is always detected.
//
// The remote cache is version-aware: when the server's document is updated
// (PATCH), the client re-syncs by fetching the update delta for its cached
// version and evicting only the chunks the delta names — clean chunks stay
// resident (Metrics.ChunksReused counts them) instead of the whole cache
// going cold. An evaluation that trips over the change mid-flight re-syncs
// and retries transparently.
//
// # Observability
//
// Every evaluation can be traced: attach a Trace (a bounded, concurrency-safe
// span ring) through ViewOptions.Trace, and the pipeline's layers charge
// their time to per-phase monotonic timers that surface as
// Metrics.PhaseBreakdown — exclusive nanoseconds for decrypt, integrity
// verification, Merkle hash fetch, Skip-index decode, subtree skips,
// automata evaluation, view delivery, remote wire transfer and re-sync:
//
//	tr := xmlac.NewTrace(512)
//	metrics, _ := protected.StreamAuthorizedViewCompiled(key, cp,
//	    xmlac.ViewOptions{Trace: tr, TraceID: "req-42"}, w)
//	fmt.Printf("eval %s of %s total\n",
//	    time.Duration(metrics.PhaseBreakdown.EvalNs), metrics.Duration)
//	tr.WriteChromeTrace(f) // open in chrome://tracing or Perfetto
//
// Phase accounting is exclusive (nested phases never double-count), so the
// breakdown's sum tracks Metrics.Duration. Traced and untraced runs produce
// byte-identical views and identical counters; with Trace nil the timers
// are fully disabled. The server exposes the same machinery over HTTP:
// request-scoped trace IDs (X-Request-Id), a Prometheus text endpoint
// (GET /metrics.prom), recent spans as JSONL (GET /debug/trace) and opt-in
// pprof handlers.
//
// # Machine-checked trust boundary
//
// The security argument — the server never sees keys or plaintext — is not
// just a deployment convention: it is enforced at vet time by the module's
// own analyzer suite (cmd/xmlac-vet). A taint analysis (keytaint) proves no
// value derived from a Key reaches logging, error values, serialization or
// any server-side symbol, and a boundary check (trustboundary) proves the
// server packages never reference the decrypt, evaluator, or key-handling
// entry points; the single-machine trusted demo mode in internal/server is
// the one documented, baselined exception (.xmlac-vet.toml). The same suite
// pins repo invariants the type system cannot see: sentinel errors stay
// wrapped with %w, every trace phase Begin has an End on all paths, and
// Metrics.Add folds every field. CI runs it as a blocking job.
//
// The sub-packages under internal/ implement the building blocks (XPath
// fragment, access rules automata, streaming evaluator, Skip index,
// encryption and integrity layer, SOE cost model, dataset generators and the
// experiment harness reproducing the paper's evaluation); this package is
// the stable public API.
package xmlac

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"xmlac/internal/accessrule"
	"xmlac/internal/core"
	"xmlac/internal/secure"
	"xmlac/internal/skipindex"
	"xmlac/internal/xmlstream"
	"xmlac/internal/xpath"
)

// Document is a parsed XML document.
type Document struct {
	root *xmlstream.Node
}

// ParseDocument parses an XML document from a reader.
func ParseDocument(r io.Reader) (*Document, error) {
	root, err := xmlstream.ParseTree(r)
	if err != nil {
		return nil, err
	}
	return &Document{root: root}, nil
}

// ParseDocumentString parses an XML document held in a string.
func ParseDocumentString(s string) (*Document, error) {
	return ParseDocument(strings.NewReader(s))
}

// XML serializes the document (compact form).
func (d *Document) XML() string {
	if d == nil || d.root == nil {
		return ""
	}
	return xmlstream.SerializeTree(d.root, false)
}

// IndentedXML serializes the document with indentation.
func (d *Document) IndentedXML() string {
	if d == nil || d.root == nil {
		return ""
	}
	return xmlstream.SerializeTree(d.root, true)
}

// IsEmpty reports whether the document carries no content (an empty
// authorized view).
func (d *Document) IsEmpty() bool { return d == nil || d.root == nil }

// Stats reports structural characteristics of the document (size, depth,
// element and tag counts).
type Stats = xmlstream.Stats

// Stats computes the document statistics.
func (d *Document) Stats() Stats {
	if d.IsEmpty() {
		return Stats{}
	}
	return xmlstream.ComputeStats(d.root)
}

// Rule is one access-control rule in its declarative form: Sign is "+"
// (permit) or "-" (deny) and Object is an XPath expression of the fragment
// XP{[],*,//} — child and descendant axes, wildcards and predicates. The
// USER literal inside predicates is substituted with the policy subject.
type Rule struct {
	ID     string
	Sign   string
	Object string
}

// Policy is the set of rules granted to one subject over a document. The
// policy is closed: anything not explicitly permitted is denied;
// Denial-Takes-Precedence and Most-Specific-Object-Takes-Precedence resolve
// conflicts, and rules propagate to the descendants of their objects.
type Policy struct {
	Subject string
	Rules   []Rule
}

// ErrInvalidPolicy wraps policy compilation errors.
var ErrInvalidPolicy = errors.New("xmlac: invalid policy")

// compile converts the declarative policy into the internal representation.
func (p Policy) compile() (*accessrule.Policy, error) {
	out := accessrule.NewPolicy(p.Subject)
	if len(p.Rules) == 0 {
		return nil, fmt.Errorf("%w: a policy needs at least one rule (the closed policy denies everything)", ErrInvalidPolicy)
	}
	for i, r := range p.Rules {
		id := r.ID
		if id == "" {
			id = fmt.Sprintf("R%d", i+1)
		}
		rule, err := accessrule.ParseRule(id, r.Sign, r.Object)
		if err != nil {
			return nil, fmt.Errorf("%w: rule %s: %w", ErrInvalidPolicy, id, err)
		}
		out.Add(rule)
	}
	return out, nil
}

// Validate checks that every rule of the policy parses.
func (p Policy) Validate() error {
	_, err := p.compile()
	return err
}

// Built-in policies of the paper's motivating example (Figure 1), expressed
// on the Hospital document schema.

// SecretaryPolicy grants access to the administrative sub-folders only.
func SecretaryPolicy() Policy {
	return Policy{Subject: "secretary", Rules: []Rule{{ID: "S1", Sign: "+", Object: "//Admin"}}}
}

// DoctorPolicy grants a physician access to administrative data, to her own
// medical acts and analysis, and denies the details of acts she did not
// carry out.
func DoctorPolicy(physician string) Policy {
	return Policy{Subject: physician, Rules: []Rule{
		{ID: "D1", Sign: "+", Object: "//Folder/Admin"},
		{ID: "D2", Sign: "+", Object: "//MedActs[//RPhys = USER]"},
		{ID: "D3", Sign: "-", Object: "//Act[RPhys != USER]/Details"},
		{ID: "D4", Sign: "+", Object: "//Folder[MedActs//RPhys = USER]/Analysis"},
	}}
}

// ResearcherPolicy grants access to the age and to the laboratory results of
// the given protocol groups, for patients enrolled in a protocol, unless the
// cholesterol measurement exceeds 250.
func ResearcherPolicy(groups ...string) Policy {
	if len(groups) == 0 {
		groups = []string{"G3"}
	}
	p := Policy{Subject: "researcher", Rules: []Rule{
		{ID: "R1", Sign: "+", Object: "//Folder[Protocol]//Age"},
	}}
	for i, g := range groups {
		p.Rules = append(p.Rules,
			Rule{ID: fmt.Sprintf("R2.%d", i+1), Sign: "+", Object: fmt.Sprintf("//Folder[Protocol/Type=%s]//LabResults//%s", g, g)},
			Rule{ID: fmt.Sprintf("R3.%d", i+1), Sign: "-", Object: fmt.Sprintf("//%s[Cholesterol > 250]", g)},
		)
	}
	return p
}

// Key is the Triple-DES document key (24 bytes).
type Key = secure.Key

// DeriveKey derives a document key from a passphrase.
func DeriveKey(passphrase string) Key { return secure.DeriveKey(passphrase) }

// NewKey validates an explicit 24-byte key.
func NewKey(b []byte) (Key, error) { return secure.NewKey(b) }

// Scheme selects the encryption / integrity-checking combination.
type Scheme string

const (
	// SchemeECB: position-aware ECB encryption, no integrity checking.
	SchemeECB Scheme = "ecb"
	// SchemeECBMHT: position-aware ECB encryption with per-chunk Merkle hash
	// trees — the scheme proposed by the paper, supporting random accesses.
	SchemeECBMHT Scheme = "ecb-mht"
	// SchemeCBCSHA and SchemeCBCSHAC are the comparison schemes of the
	// paper's evaluation.
	SchemeCBCSHA  Scheme = "cbc-sha"
	SchemeCBCSHAC Scheme = "cbc-shac"
)

// ParseScheme converts a scheme name.
func ParseScheme(s string) (Scheme, error) {
	switch Scheme(strings.ToLower(s)) {
	case SchemeECB, SchemeECBMHT, SchemeCBCSHA, SchemeCBCSHAC:
		return Scheme(strings.ToLower(s)), nil
	default:
		return "", fmt.Errorf("xmlac: unknown scheme %q (want ecb, ecb-mht, cbc-sha or cbc-shac)", s)
	}
}

func (s Scheme) internal() (secure.Scheme, error) {
	switch s {
	case SchemeECB:
		return secure.SchemeECB, nil
	case SchemeECBMHT, "":
		return secure.SchemeECBMHT, nil
	case SchemeCBCSHA:
		return secure.SchemeCBCSHA, nil
	case SchemeCBCSHAC:
		return secure.SchemeCBCSHAC, nil
	default:
		return 0, fmt.Errorf("xmlac: unknown scheme %q", string(s))
	}
}

// Protected is a compressed, indexed, encrypted and integrity-protected
// document, ready to be stored on an untrusted server or streamed to
// clients. A Protected is safe for concurrent use: views snapshot the
// current version at the start of their scan, and Update swaps in a new
// version atomically, so every evaluation sees exactly one consistent
// version no matter how updates interleave with it.
type Protected struct {
	// updateMu serializes Update calls; the version chain is linear.
	updateMu sync.Mutex

	// mu guards the fields below. Views take a read-locked snapshot of prot
	// once and never touch the publisher-side caches.
	mu   sync.RWMutex
	prot *secure.Protected
	// plain is the Skip-index encoding prot was built from, root the
	// decoded document tree and spans the per-element text index — the
	// publisher-side state Update diffs and edits against. All three stay
	// nil until the first Update materializes them from the ciphertext (one
	// decrypt + decode, then cached), so read-only documents never pay the
	// memory for them.
	plain []byte
	root  *xmlstream.Node
	spans map[*xmlstream.Node]skipindex.TextSpan
}

// snapshot returns the current immutable protected form; evaluations hold it
// for their whole scan, so a concurrent Update never tears a view.
func (p *Protected) snapshot() *secure.Protected {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.prot
}

// Protect compresses the document with the Skip index, encrypts it under the
// key and protects its integrity according to the scheme. The returned
// Protected is independent of doc (the first Update derives its edit state
// from the ciphertext itself), so protecting a document costs no retained
// memory beyond the ciphertext for read-only workloads.
func Protect(doc *Document, key Key, scheme Scheme) (*Protected, error) {
	if doc.IsEmpty() {
		return nil, errors.New("xmlac: cannot protect an empty document")
	}
	sch, err := scheme.internal()
	if err != nil {
		return nil, err
	}
	encoded, err := skipindex.Encode(doc.root)
	if err != nil {
		return nil, err
	}
	prot, err := secure.Protect(encoded.Data, key, secure.ProtectOptions{Scheme: sch})
	if err != nil {
		return nil, err
	}
	return &Protected{prot: prot}, nil
}

// Marshal serializes the protected document for storage or transmission.
func (p *Protected) Marshal() []byte { return p.snapshot().Marshal() }

// UnmarshalProtected parses a serialized protected document.
func UnmarshalProtected(data []byte) (*Protected, error) {
	prot, err := secure.Unmarshal(data)
	if err != nil {
		return nil, err
	}
	return &Protected{prot: prot}, nil
}

// Size returns the size in bytes of the encrypted document.
func (p *Protected) Size() int { return len(p.snapshot().Ciphertext) }

// Version returns the monotonic document version: 1 after Protect, bumped by
// every Update, stamped into the marshalled container and the manifest.
func (p *Protected) Version() uint64 { return p.snapshot().Manifest().Version }

// DocumentManifest describes the public layout of a protected document: what
// an untrusted blob server knows and publishes to remote SOE clients
// (GET /docs/{id}/manifest). Nothing in it needs or reveals the key.
type DocumentManifest struct {
	Scheme           Scheme `json:"scheme"`
	ChunkSize        int    `json:"chunk_size"`
	FragmentSize     int    `json:"fragment_size"`
	PlainLen         int    `json:"plain_len"`
	CiphertextLen    int64  `json:"ciphertext_len"`
	NumChunks        int    `json:"num_chunks"`
	NumDigests       int    `json:"num_digests"`
	CiphertextOffset int64  `json:"ciphertext_offset"`
	BlobSize         int64  `json:"blob_size"`
	// Version is the document version this manifest describes; remote SOE
	// clients use it to request the delta from their cached version after a
	// change notice.
	Version uint64 `json:"version"`
}

// Manifest returns the document's public layout description.
func (p *Protected) Manifest() DocumentManifest {
	prot := p.snapshot()
	m := prot.Manifest()
	ctOff := prot.CiphertextOffset()
	return DocumentManifest{
		Scheme:           Scheme(m.Scheme.String()).normalize(),
		ChunkSize:        m.ChunkSize,
		FragmentSize:     m.FragmentSize,
		PlainLen:         m.PlainLen,
		CiphertextLen:    m.CiphertextLen,
		NumChunks:        m.NumChunks(),
		NumDigests:       m.NumDigests,
		CiphertextOffset: ctOff,
		BlobSize:         ctOff + m.CiphertextLen,
		Version:          m.Version,
	}
}

// normalize maps the internal scheme spelling (e.g. "ECB-MHT") onto the
// public lower-case names.
func (s Scheme) normalize() Scheme { return Scheme(strings.ToLower(string(s))) }

// FragmentHashes returns the SHA-1 hash of every ciphertext fragment of a
// chunk: the untrusted-terminal side of the ECB-MHT Merkle protocol, served
// by blob servers to remote SOE clients (GET /docs/{id}/hashes?chunk=N). The
// hashes are computed over public ciphertext; clients verify them against
// the decrypted chunk digest, so a tampering server is always detected.
func (p *Protected) FragmentHashes(chunk int) ([][]byte, error) {
	hashes, err := p.snapshot().FragmentHashes(chunk)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(hashes))
	for i := range hashes {
		h := hashes[i]
		out[i] = h[:]
	}
	return out, nil
}

// ViewOptions tunes the evaluation of an authorized view.
type ViewOptions struct {
	// Query restricts the view to the scope of an XPath query (same fragment
	// as the rules); empty means the whole authorized view.
	Query string
	// DummyDeniedNames replaces the names of denied structural ancestors
	// with "_".
	DummyDeniedNames bool
	// DisableSkipIndex ignores the Skip-index metadata (the brute-force
	// behaviour); mainly useful for measurements.
	DisableSkipIndex bool
	// Indent renders the streamed view with indentation (streaming entry
	// points only: StreamAuthorizedView and friends; the materialized API
	// picks the form at serialization time via XML / IndentedXML).
	Indent bool
	// Parallelism, when >= 2, requests the region-parallel scan for local
	// evaluations: the Skip index partitions the root element's children
	// into byte-balanced regions, up to Parallelism workers decrypt, verify
	// and evaluate the regions concurrently (each through its own secure
	// reader over the shared immutable ciphertext), and the delivered view
	// is stitched back into exact document order. 0 and 1 select the serial
	// scan.
	//
	// The guarantee: the view — materialized or streamed — is byte-identical
	// to the serial scan's, and the per-subject decision counters
	// (NodesPermitted, NodesDenied, NodesPending, SubtreesSkipped,
	// BytesSkipped) are exactly equal. The cost fields BytesTransferred,
	// BytesDecrypted and the derived EstimatedSmartCardSeconds are a
	// documented superset: the region planning reads and every region
	// boundary falling inside an integrity chunk re-transfer and re-decrypt
	// bytes the serial pass pays for once. Metrics.Workers reports the
	// worker count actually used.
	//
	// Every entry point runs one pipeline, and serial vs parallel is chosen
	// once per scan from its input: the region-parallel scan runs when the
	// document is local, no view of the scan has a query (its scope anchors
	// at the document root), and the largest Parallelism among the scan's
	// views is >= 2 — a shared scan (AuthorizedViewsCompiled) runs with that
	// largest value. Remote documents (OpenRemote) and EvaluateDocument
	// ignore Parallelism entirely. Evaluations the regions then cannot serve
	// fall back to the serial scan transparently, before any byte is
	// delivered: policies with a root-anchored predicate still unresolved
	// after the document prefix (content in one region would decide delivery
	// in another) and documents whose root has fewer than two children.
	Parallelism int
	// Trace, when non-nil, turns on pipeline tracing for this evaluation:
	// per-phase timers fill Metrics.PhaseBreakdown and spans (phase
	// aggregates, remote fetches, re-syncs) are recorded into the Trace's
	// bounded ring. The view bytes and every other Metrics field are
	// identical to an untraced run; leaving Trace nil keeps the fast path
	// free of timer reads.
	Trace *Trace
	// TraceID labels the spans of this evaluation in the Trace (a server
	// puts its request-scoped X-Request-Id here). Ignored when Trace is nil.
	TraceID string
	// Context, when non-nil, bounds a one-view evaluation: every solo entry
	// point, and AuthorizedViewsCompiled with a single view. For a remote
	// document, canceling it closes the in-flight HTTP range/hash/manifest
	// requests, so an abandoned view stops consuming the wire mid-request
	// instead of at the next range boundary; the evaluation then fails with
	// the transport's context error and, like any aborted stream, still
	// reports its partial Metrics exactly once. A parallel local scan
	// (Parallelism >= 2) aborts every region worker at its next event
	// boundary. A serial local scan has no wire to cut and does not poll it
	// (abort those through the output writer). A shared scan of two or more
	// views ignores every view's Context: the scan serves every subject, so
	// no single request's context may cancel it.
	Context context.Context
}

// Metrics summarizes what an evaluation did. Byte counts refer to the
// compressed encrypted document.
type Metrics struct {
	// BytesTransferred entered the SOE (ciphertext, digests, hashes).
	BytesTransferred int64
	// BytesDecrypted inside the SOE.
	BytesDecrypted int64
	// BytesSkipped were neither transferred nor decrypted thanks to the Skip
	// index.
	BytesSkipped int64
	// SubtreesSkipped counts skipped prohibited subtrees.
	SubtreesSkipped int64
	// NodesPermitted / NodesDenied / NodesPending count element decisions.
	NodesPermitted int64
	NodesDenied    int64
	NodesPending   int64
	// BytesOnWire is the number of HTTP body bytes actually transferred from
	// the blob server during a remote evaluation (OpenRemote); 0 when the
	// evaluation is local. Unlike BytesTransferred (the SOE cost model), it
	// counts real network payload: range responses, digest tables and
	// fragment hashes, page-granular and framing included.
	BytesOnWire int64
	// RoundTrips is the number of HTTP requests issued during a remote
	// evaluation; 0 when the evaluation is local.
	RoundTrips int64
	// ChunksReused is the number of integrity chunks whose cached pages a
	// remote client kept across a document update because the update delta
	// proved them unchanged (instead of flushing the whole chunk cache);
	// 0 when the evaluation is local or no re-sync happened.
	ChunksReused int64
	// TimeToFirstByte is the wall-clock delay between the start of a
	// streaming evaluation (StreamAuthorizedView and friends) and the first
	// byte of the view reaching the destination writer; 0 when the view was
	// empty or the evaluation was materialized. Aggregations (Metrics.Add)
	// sum it like every other counter; divide by the number of folded
	// evaluations for an average.
	TimeToFirstByte time.Duration
	// Duration is the wall-clock time of the evaluation pipeline (shared
	// scans report the whole scan's duration for every subject, consistent
	// with the shared-cost byte counters). Like TimeToFirstByte it sums
	// under Metrics.Add.
	Duration time.Duration
	// PhaseBreakdown decomposes Duration into exclusive per-phase time. It
	// is populated only when the evaluation ran with ViewOptions.Trace set;
	// its sum tracks the instrumented portion of Duration (the gap is loop
	// glue and setup outside any phase). For a parallel scan the breakdown
	// folds every region worker's phase time exactly once, so on a
	// multi-core machine its sum may exceed the wall-clock Duration — it
	// measures work, not elapsed time.
	PhaseBreakdown PhaseBreakdown
	// Workers is the number of region workers a parallel scan
	// (ViewOptions.Parallelism) actually started; 0 for serial evaluations,
	// including every parallel request that fell back to the serial scan.
	// Aggregations sum it like every other counter; divide by the number of
	// folded evaluations for an average.
	Workers int64
	// EstimatedSmartCardSeconds is the execution-time estimate on the
	// hardware smart-card profile of the paper (Table 1).
	EstimatedSmartCardSeconds float64
}

// Add accumulates another metrics record; aggregators (internal/server's
// accounting ledger) fold per-request metrics with it.
func (m *Metrics) Add(o *Metrics) {
	m.BytesTransferred += o.BytesTransferred
	m.BytesDecrypted += o.BytesDecrypted
	m.BytesSkipped += o.BytesSkipped
	m.SubtreesSkipped += o.SubtreesSkipped
	m.NodesPermitted += o.NodesPermitted
	m.NodesDenied += o.NodesDenied
	m.NodesPending += o.NodesPending
	m.BytesOnWire += o.BytesOnWire
	m.RoundTrips += o.RoundTrips
	m.ChunksReused += o.ChunksReused
	m.TimeToFirstByte += o.TimeToFirstByte
	m.Duration += o.Duration
	m.PhaseBreakdown.Add(&o.PhaseBreakdown)
	m.Workers += o.Workers
	m.EstimatedSmartCardSeconds += o.EstimatedSmartCardSeconds
}

// AuthorizedView decrypts and evaluates the policy (and optional query) over
// the protected document inside a simulated SOE, returning the authorized
// view. Prohibited subtrees are skipped: they are neither transferred to nor
// decrypted by the SOE, and integrity of everything read is verified when
// the scheme supports it.
//
// AuthorizedView compiles the policy on every call. Callers evaluating the
// same policy repeatedly (a server, a batch job) should compile it once with
// Policy.Compile and use AuthorizedViewCompiled, which produces identical
// output without the per-call compilation.
func (p *Protected) AuthorizedView(key Key, policy Policy, opts ViewOptions) (*Document, *Metrics, error) {
	compiled, err := policy.Compile()
	if err != nil {
		return nil, nil, err
	}
	return p.AuthorizedViewCompiled(key, compiled, opts)
}

// EvaluateDocument evaluates the policy (and optional query) over a
// plaintext document with the streaming evaluator, without encryption. It is
// the right entry point when the access-control manager runs in a trusted
// environment, and is also the semantics reference of AuthorizedView.
func EvaluateDocument(doc *Document, policy Policy, opts ViewOptions) (*Document, error) {
	if doc.IsEmpty() {
		return &Document{}, nil
	}
	compiled, err := policy.compile()
	if err != nil {
		return nil, err
	}
	coreOpts, err := opts.coreOptions()
	if err != nil {
		return nil, err
	}
	res, err := core.Evaluate(xmlstream.NewTreeReader(doc.root), compiled, coreOpts)
	if err != nil {
		return nil, err
	}
	return &Document{root: res.View}, nil
}

func (o ViewOptions) coreOptions() (core.Options, error) {
	out := core.Options{
		DummyDeniedNames: o.DummyDeniedNames,
		DisableSkipIndex: o.DisableSkipIndex,
		Trace:            o.Trace.context(o.TraceID),
	}
	if o.Query != "" {
		q, err := xpath.Parse(o.Query)
		if err != nil {
			return core.Options{}, fmt.Errorf("xmlac: invalid query: %w", err)
		}
		out.Query = q
	}
	return out, nil
}

// ValidateXPath checks that an expression belongs to the supported fragment
// XP{[],*,//}.
func ValidateXPath(expr string) error {
	_, err := xpath.Parse(expr)
	return err
}
