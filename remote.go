package xmlac

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"xmlac/internal/remote"
)

// RemoteDocument is a client-side SOE handle to a protected document stored
// as an opaque blob on an untrusted server (an xmlac-serve instance): the
// paper's deployment model. The server holds only ciphertext, encrypted
// digests and public fragment hashes — never the key — and the policy is
// evaluated here, on the client, so the bytes the Skip index prunes are
// never transferred at all.
//
// Evaluations on one RemoteDocument are serialized (they share the wire
// counters and the chunk cache); open one RemoteDocument per concurrent
// client instead.
type RemoteDocument struct {
	src *remote.Source
	key Key

	// mu serializes evaluations so each view's wire delta is attributed to
	// exactly one evaluation.
	mu sync.Mutex
}

// RemoteOptions tunes OpenRemoteOptions. Transfers move in pages of 256
// bytes, the ECB-MHT fragment size and so the natural transfer quantum
// under integrity checking.
type RemoteOptions struct {
	// CacheCapacity is the number of pages kept in the client chunk cache
	// (0 selects the internal default, 2048).
	CacheCapacity int
	// HTTPClient overrides http.DefaultClient.
	HTTPClient *http.Client
}

// OpenRemote connects to a protected document served by an untrusted blob
// server, e.g. OpenRemote("http://host:8080/docs/hospital", key). It fetches
// the manifest and digest table (two round trips); document bytes are then
// pulled lazily, as range requests, while views are evaluated.
func OpenRemote(url string, key Key) (*RemoteDocument, error) {
	return OpenRemoteOptions(url, key, RemoteOptions{})
}

// OpenRemoteOptions is OpenRemote with explicit transfer tuning.
func OpenRemoteOptions(url string, key Key, opts RemoteOptions) (*RemoteDocument, error) {
	src, err := remote.Open(url, remote.Options{
		CacheCapacity: opts.CacheCapacity,
		HTTPClient:    opts.HTTPClient,
	})
	if err != nil {
		return nil, fmt.Errorf("xmlac: opening remote document: %w", err)
	}
	return &RemoteDocument{src: src, key: key}, nil
}

// Size returns the size in bytes of the remote encrypted document (the
// ciphertext the brute-force client would download in full).
func (d *RemoteDocument) Size() int { return int(d.src.Manifest().CiphertextLen) }

// ETag returns the entity tag of the blob this document is bound to.
func (d *RemoteDocument) ETag() string { return d.src.ETag() }

// Version returns the document version this client is currently bound to.
func (d *RemoteDocument) Version() uint64 { return d.src.Manifest().Version }

// WireStats returns the cumulative bytes-on-wire and round-trip counts since
// the document was opened (the per-view deltas are in Metrics).
func (d *RemoteDocument) WireStats() (bytesOnWire, roundTrips int64) {
	st := d.src.Stats()
	return st.BytesOnWire, st.RoundTrips
}

// Revalidate checks cheaply (a conditional 1-byte range request answered
// with 304 Not Modified when nothing changed) that the server still holds
// the blob this document was opened against, flushing and reloading the
// client caches if it was replaced. It reports whether the document changed.
func (d *RemoteDocument) Revalidate() (changed bool, err error) {
	// Serialized with evaluations: a cache flush mid-view would yank the
	// manifest from under the reader, and the conditional request's traffic
	// would be charged to the in-flight view's wire delta.
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.src.Revalidate()
}

// AuthorizedView evaluates the policy (and optional query) over the remote
// document: the SOE pipeline runs locally, ciphertext is pulled through HTTP
// range requests, and prohibited subtrees are skipped over the wire. The
// returned Metrics carry BytesOnWire and RoundTrips for this evaluation on
// top of the usual SOE cost counters.
//
// If the server's document was updated since this client last synchronized,
// the evaluation re-syncs transparently: the client fetches the update delta
// for its cached version, evicts only the chunks the delta names (keeping
// every untouched page resident — Metrics.ChunksReused counts the chunks
// that survived) and retries once on the new version.
func (d *RemoteDocument) AuthorizedView(policy Policy, opts ViewOptions) (*Document, *Metrics, error) {
	compiled, err := policy.Compile()
	if err != nil {
		return nil, nil, err
	}
	return d.AuthorizedViewCompiled(compiled, opts)
}

// AuthorizedViewCompiled is AuthorizedView for a pre-compiled policy.
func (d *RemoteDocument) AuthorizedViewCompiled(cp *CompiledPolicy, opts ViewOptions) (*Document, *Metrics, error) {
	return d.view(cp, opts, nil)
}

// view runs one view over the remote document under the one retry rule:
// when the blob moved under the evaluation (remote.ErrChanged) and no byte
// has reached the caller's writer yet, re-sync (delta-aware) and retry once
// on the new version. After the first delivered byte the change surfaces as
// the error, since a retried stream would duplicate output; a materialized
// view always restarts cleanly. The returned Metrics, partial ones next to
// an error included, carry this evaluation's wire counters, so the work
// performed can be accounted for exactly once by aggregators.
func (d *RemoteDocument) view(cp *CompiledPolicy, opts ViewOptions, w io.Writer) (*Document, *Metrics, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	before := d.src.Stats()
	doc, metrics, err := runView(d.src, d.key, cp, opts, w)
	if errors.Is(err, remote.ErrChanged) && (metrics == nil || metrics.TimeToFirstByte == 0) {
		if err = d.src.Resync(); err == nil {
			doc, metrics, err = runView(d.src, d.key, cp, opts, w)
		}
	}
	if metrics != nil {
		after := d.src.Stats()
		metrics.BytesOnWire = after.BytesOnWire - before.BytesOnWire
		metrics.RoundTrips = after.RoundTrips - before.RoundTrips
		metrics.ChunksReused = after.ChunksReused - before.ChunksReused
	}
	return doc, metrics, err
}
