package xmlac

import (
	"context"
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
// the blob this document was opened against. If it changed, the client
// loads the new version's digest table and evicts only the cached chunks
// whose encrypted digest or bounds changed. A PATCH that overtakes the
// re-sync fails it with remote.ErrChanged and leaves the cache as it was,
// for a retry. It reports whether the document changed.
func (d *RemoteDocument) Revalidate() (changed bool, err error) {
	// Serialized with evaluations: a cache flush mid-view would yank the
	// manifest from under the reader, and the conditional request's traffic
	// would be charged to the in-flight view's wire delta.
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.src.Revalidate()
}

// View evaluates the compiled policy over the remote document in this
// process's SOE: ciphertext is pulled through HTTP range requests and the
// subtrees the Skip index skips never cross the network. The view is
// streamed to w as it is produced, or materialized into the returned
// Document when w is nil. The returned Metrics carry BytesOnWire,
// RoundTrips and ChunksReused for this view on top of the usual SOE cost
// counters; a scan failure returns them, partial, with the error.
//
// Canceling ctx closes the view's in-flight HTTP requests, the re-sync's
// included, so an abandoned view stops consuming the wire mid-request; the
// view then fails with the transport's context error. A context that can
// never be canceled (context.Background) binds nothing to the requests.
//
// If the server's document was updated since this client last synchronized
// and no byte has reached w yet, the view re-syncs transparently: the client
// fetches the new version's encrypted digest table, evicts only the chunks
// whose digest or bounds changed (Metrics.ChunksReused counts the chunks
// that kept their pages) and scans once more on the new version. After the
// first delivered byte the change surfaces as the error, since a retried
// stream would duplicate output; a materialized view always restarts
// cleanly. The retry
// belongs to the same view: one Duration covers both scans and the re-sync,
// a traced view records one root span with the remote.resync span under it,
// and the SOE counters are those of the scan that delivered the view.
func (d *RemoteDocument) View(ctx context.Context, cp *CompiledPolicy, opts ViewOptions, w io.Writer) (*Document, *Metrics, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	v, err := newView(cp, opts, w)
	if err != nil {
		return nil, nil, err
	}
	d.src.SetContext(ctx)
	d.src.SetTrace(v.opts.Trace)
	defer func() {
		d.src.SetContext(nil)
		d.src.SetTrace(nil)
	}()
	before := d.src.Stats()
	res, costs, err := v.scan(d.src, d.key)
	if errors.Is(err, remote.ErrChanged) && !v.delivered() {
		if err = d.src.Resync(); err == nil {
			res, costs, err = v.scan(d.src, d.key)
		}
	}
	doc, metrics, err := v.finish(res, costs, err)
	if metrics != nil {
		after := d.src.Stats()
		metrics.BytesOnWire = after.BytesOnWire - before.BytesOnWire
		metrics.RoundTrips = after.RoundTrips - before.RoundTrips
		metrics.ChunksReused = after.ChunksReused - before.ChunksReused
	}
	return doc, metrics, err
}

// StreamAuthorizedViewCompiled streams the view of cp to w.
//
// Deprecated: use View.
func (d *RemoteDocument) StreamAuthorizedViewCompiled(cp *CompiledPolicy, opts ViewOptions, w io.Writer) (*Metrics, error) {
	_, m, err := d.View(context.Background(), cp, opts, w)
	return m, err
}
