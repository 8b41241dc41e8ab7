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
//	cp, _ := policy.Compile()
//	_, metrics, _ := protected.View(ctx, key, cp, xmlac.ViewOptions{}, os.Stdout)
//	fmt.Printf("skipped %d bytes of prohibited data, first byte after %s\n",
//	    metrics.BytesSkipped, metrics.TimeToFirstByte)
//
// Streaming delivery keeps peak memory and time-to-first-byte proportional
// to the evaluator's working set (open path plus pending predicates), not to
// the view: authorized events flow into the destination writer as soon as
// their access decision settles, and a write error (a disconnected client)
// aborts the document scan. Callers that do want the view as a document tree
// pass a nil writer, and the same event stream builds an in-memory tree
// instead:
//
//	view, metrics, _ := protected.View(ctx, key, cp, xmlac.ViewOptions{}, nil)
//	fmt.Println(view.XML())
//
// The two forms are byte-identical (the streamed output equals view.XML(),
// or view.IndentedXML() with ViewOptions.Indent) and report identical SOE
// metrics. The README's BenchmarkStreamingView table gives their time,
// allocations and first-byte delay on the paper's hospital dataset.
//
// # Compile once, evaluate many
//
// A view takes a CompiledPolicy: Policy.Compile parses every rule and builds
// its automaton once, and the result serves any number of views, of any
// document, from any number of goroutines. A CompiledPolicy is immutable.
// Views draw their per-request machinery (secure reader, Skip-index decoder,
// streaming evaluator) from a sync.Pool, so concurrent views do not
// re-allocate it.
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
// scale-1.0 hospital document a field update costs ~3 ms against ~130 ms
// for a full re-protect (BenchmarkUpdate), re-encrypting under 0.1% of the
// ciphertext. Updates never tear concurrent evaluations: every view runs on
// the version it snapshotted at its start, and an edit batch applies
// atomically. The returned UpdateDelta names the dirty chunks; its
// marshalled form is what the server logs for each update.
//
// # Server
//
// The internal/server package and the xmlac-serve command are the paper's
// untrusted store, as a concurrent multi-tenant HTTP service: documents are
// registered (PUT /docs/{id}) and updated (PATCH /docs/{id}) over HTTP, and
// the store publishes each protected container's manifest and range-serves
// the container and its ECB-MHT leaf table. The store never evaluates a
// policy: every view runs in a client SOE (OpenRemote, below). Its one
// trusted-mode exception is the plaintext write path — registration takes
// XML and a passphrase and PATCH takes plaintext edits, so the store
// derives the key and protects and re-encrypts the document itself. GET
// /metrics and GET /metrics.prom report the store's own counters:
// requests, documents, updates and storage.
//
// # Remote SOE
//
// The deployment model of the paper keeps the server untrusted: it stores
// only the encrypted container, and the SOE holding the key runs on the
// client. OpenRemote implements that model against the same server's blob
// surface (GET /docs/{id}/manifest, and /blob and the ECB-MHT leaf table
// /hashes, both with HTTP ranges), and RemoteDocument.View is the same
// view over it:
//
//	doc, _ := xmlac.OpenRemote("http://host:8080/docs/hospital", key)
//	view, metrics, _ := doc.View(ctx, cp, xmlac.ViewOptions{}, nil)
//	fmt.Printf("%d bytes on the wire for a %d byte document (%d round trips)\n",
//	    metrics.BytesOnWire, doc.Size(), metrics.RoundTrips)
//
// The policy is evaluated locally while ciphertext is pulled on demand
// through range requests (cached in a bounded set of pages), so the bytes
// the Skip index skips are bytes that never cross the network:
// Metrics.BytesOnWire stays well under a full download for selective
// policies. Every request for ciphertext or leaf records names one byte
// range under If-Match with the entity tag the client holds, and only a
// 206 naming exactly those bytes is read; a read fetches its pages from the
// first missing one to the last in one request. The leaf records the
// Merkle checks need are fetched by the run of chunks, so a cold view sends
// one /hashes request, not one per chunk. A full page cache evicts at
// random: every view is a forward scan, and LRU would keep nothing of a
// repeated view whose working set exceeds the cache. Canceling the view's
// context closes its in-flight requests. The xmlac-view command (-url) and
// examples/remoteclient show the full flow.
//
// Integrity is verified client-side. Under ECB-MHT and CBC-SHA, every byte
// that reaches a sink has been checked against its chunk's encrypted
// digest, which binds the chunk's content to its position, so a server that
// flips or moves ciphertext bytes is caught; ECB checks nothing. The SOE
// decrypts only ciphertext it hashed and still holds, never a second fetch
// of it. CBC-SHAC leaves one gap: a chunk's first plaintext block depends
// on the last ciphertext block of the chunk before, which the chunk's
// digest does not cover, so a flip there alters that block undetected when
// the SOE reads the chunk without the one before it. The container header,
// the document version and the document identity are not authenticated
// yet, so a server can still downgrade the scheme, roll a client back to an
// older version, splice versions, swap documents or truncate the
// container; ROADMAP.md's first open item tracks that work.
//
// The remote cache is version-aware: when the server's document is updated
// (PATCH), the client re-syncs by fetching the new version's encrypted
// digest table and evicting only the chunks whose digest or bounds changed
// (under CBC, every chunk from the first change on; under ECB, which has no
// digests, every chunk) — clean chunks stay resident (Metrics.ChunksReused
// counts them) instead of the whole cache going cold. A view that trips
// over the change (its next range request answers 412) before delivering
// a byte re-syncs and retries transparently, as one view with one clock and
// one trace root span.
//
// # Observability
//
// Every view can be traced: attach a Trace (a bounded, concurrency-safe
// span ring) through ViewOptions.Trace, and the pipeline's layers charge
// their time to per-phase monotonic timers that surface as
// Metrics.PhaseBreakdown — exclusive nanoseconds for decrypt, integrity
// verification, Merkle hash fetch, Skip-index decode, subtree skips,
// automata evaluation, view delivery, remote wire transfer and re-sync:
//
//	tr := xmlac.NewTrace(512)
//	_, metrics, _ := protected.View(ctx, key, cp,
//	    xmlac.ViewOptions{Trace: tr, TraceID: "req-42"}, w)
//	fmt.Printf("eval %s of %s total\n",
//	    time.Duration(metrics.PhaseBreakdown.EvalNs), metrics.Duration)
//	tr.WriteChromeTrace(f) // open in chrome://tracing or Perfetto
//
// Phase accounting is exclusive (nested phases never double-count), so the
// breakdown's sum tracks Metrics.Duration. Traced and untraced runs produce
// byte-identical views and identical counters; with Trace nil the timers
// are fully disabled. The server records its side of a remote view over
// HTTP: request-scoped trace IDs (X-Request-Id), a span per blob, manifest
// and hash request (GET /debug/trace, as JSONL), a Prometheus text
// endpoint (GET /metrics.prom) and opt-in pprof handlers.
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
// wrapped with %w, and every trace phase switch restores the phase it
// leaves (defer x.Enter(x.Enter(p))). CI runs it as a blocking job.
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
	itrace "xmlac/internal/trace"
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
	// enc re-encodes root after structural edits; it keeps its working
	// state between updates and is used only under updateMu.
	enc skipindex.Encoder
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
	// Version is the document version this manifest describes.
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

// LeafTable returns the leaf table of the current version: the SHA-1 hash
// of every ciphertext fragment as 20-byte records back to back, chunk after
// chunk. It is the untrusted-terminal side of the ECB-MHT Merkle protocol,
// which blob servers range-serve to remote SOE clients (GET
// /docs/{id}/hashes) in exactly this form. The table is built with the
// version, hashed once over public ciphertext, so the call neither hashes
// nor copies; it is read-only. Clients verify the records against the
// decrypted chunk digest, so a record or fragment the server alters fails
// the Merkle check. Only ECB-MHT documents have a leaf table; under the
// other schemes it is nil.
func (p *Protected) LeafTable() []byte {
	return p.snapshot().LeafTable()
}

// ViewOptions tunes the evaluation of an authorized view.
type ViewOptions struct {
	// Query restricts the view to the scope of an XPath query (same fragment
	// as the rules); empty means the whole authorized view.
	Query string
	// DummyDeniedNames replaces the names of denied structural ancestors
	// with "_".
	DummyDeniedNames bool
	// DisableSkipIndex ignores the Skip index: no descendant-tag filtering
	// and no subtree skips, so the SOE transfers and decrypts every byte of
	// the document (the brute-force behaviour); mainly useful for
	// measurements.
	DisableSkipIndex bool
	// Indent renders a streamed view with indentation; a materialized view
	// picks its form at serialization time (XML or IndentedXML).
	Indent bool
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
	// fragment hashes, page-granular.
	BytesOnWire int64
	// RoundTrips is the number of HTTP requests issued during a remote
	// evaluation; 0 when the evaluation is local.
	RoundTrips int64
	// ChunksReused is the number of integrity chunks whose cached pages a
	// remote client kept across a document update because the two
	// versions' encrypted digest tables showed them unchanged (instead of
	// flushing the whole chunk cache); 0 when the evaluation is local or no
	// re-sync happened.
	ChunksReused int64
	// TimeToFirstByte is the wall-clock delay between the start of a
	// streamed view (a View with a non-nil writer) and the first byte of the
	// view reaching the writer; 0 when the view was empty or materialized.
	TimeToFirstByte time.Duration
	// Duration is the wall-clock time of the evaluation pipeline.
	Duration time.Duration
	// PhaseBreakdown decomposes Duration into exclusive per-phase time. It
	// is populated only when the evaluation ran with ViewOptions.Trace set;
	// its sum tracks the instrumented portion of Duration (the gap is loop
	// glue and setup outside any phase).
	PhaseBreakdown PhaseBreakdown
	// EstimatedSmartCardSeconds is the execution-time estimate on the
	// hardware smart-card profile of the paper (Table 1).
	EstimatedSmartCardSeconds float64
}

// View evaluates the compiled policy (and the optional query) over the
// protected document inside a simulated SOE. Prohibited subtrees are
// skipped: they are neither transferred to nor decrypted by the SOE, and the
// integrity of everything read is verified when the scheme supports it.
//
// The view is streamed to w as it is produced, or materialized into the
// returned Document when w is nil; the two forms are byte-identical (XML, or
// IndentedXML with ViewOptions.Indent) and report identical metrics. A
// streamed view keeps memory and time-to-first-byte proportional to the
// evaluator's working set (open path plus pending predicates), not to the
// view, and a write error from w aborts the scan. A scan failure returns
// the error with the partial Metrics of the work performed.
//
// A local scan has no wire to cut and does not poll ctx; abort it through
// w. ctx keeps the shape of RemoteDocument.View, whose requests it cuts.
func (p *Protected) View(ctx context.Context, key Key, cp *CompiledPolicy, opts ViewOptions, w io.Writer) (*Document, *Metrics, error) {
	v, err := newView(cp, opts, w)
	if err != nil {
		return nil, nil, err
	}
	return v.finish(v.scan(p.snapshot(), key))
}

// StreamAuthorizedView compiles the policy and streams its view to w.
//
// Deprecated: use Policy.Compile and View.
func (p *Protected) StreamAuthorizedView(key Key, policy Policy, opts ViewOptions, w io.Writer) (*Metrics, error) {
	cp, err := policy.Compile()
	if err != nil {
		return nil, err
	}
	_, m, err := p.View(context.Background(), key, cp, opts, w)
	return m, err
}

// StreamAuthorizedViewCompiled streams the view of cp to w.
//
// Deprecated: use View.
func (p *Protected) StreamAuthorizedViewCompiled(key Key, cp *CompiledPolicy, opts ViewOptions, w io.Writer) (*Metrics, error) {
	_, m, err := p.View(context.Background(), key, cp, opts, w)
	return m, err
}

// EvaluateDocument evaluates the policy (and optional query) over a
// plaintext document with the streaming evaluator, without encryption. It is
// the right entry point when the access-control manager runs in a trusted
// environment, and is also the semantics reference of View.
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
	}
	if o.Trace != nil {
		out.Trace = itrace.New(o.Trace, o.TraceID)
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
