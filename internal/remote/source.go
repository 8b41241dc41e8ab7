// Package remote implements the client half of the paper's deployment
// model: the protected document lives as an opaque blob on an untrusted
// server (internal/server's /docs/{id}/blob surface) and the SOE runs on the
// client, pulling ciphertext through HTTP range requests. The Source type
// implements secure.ChunkSource, so the secure reader, Skip-index decoder
// and streaming evaluator run unchanged on top of it — and every byte the
// Skip index avoids is a byte that never crosses the network.
//
// Transfer-conscious access machinery:
//
//   - a bounded cache of fixed-size ciphertext pages, so the reader's many
//     small overlapping reads hit memory, not the network. A full cache
//     evicts a page at random: views are forward scans, and LRU keeps
//     nothing of a repeated scan whose working set exceeds the cache;
//   - one request shape: every body the client reads past the manifest (the
//     container prefix, a run of leaf records, a run of ciphertext pages) is
//     one byte range asked for under If-Match with the entity tag the source
//     holds, and only a 206 naming exactly those bytes and holding exactly
//     that many is read. A read fetches its pages from the first missing one
//     to the last in one request, resident pages between them included;
//   - version-aware invalidation: when the document changes, a re-sync
//     fetches the new version's encrypted digest table and evicts only the
//     cached chunks whose digest or bounds changed (secure.ChangedChunks),
//     so the store keeps no update history for its clients;
//   - leaf records by the run: a chunk whose ECB-MHT fragment hashes the
//     source lacks fetches the records of the chunks after it too, up to
//     the first it holds, in one range request for the version's leaf
//     table, so a cold scan costs one /hashes request rather than one per
//     chunk;
//   - wire accounting: BytesOnWire counts the HTTP payload actually read
//     (range bodies, digest tables, fragment hashes) and RoundTrips counts
//     requests, surfaced through xmlac.Metrics.
package remote

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"

	"xmlac/internal/secure"
	"xmlac/internal/trace"
)

// ErrChanged is returned when the server's blob no longer matches the entity
// tag this source was opened against (the document was re-registered); the
// caller must reopen or Revalidate.
var ErrChanged = errors.New("remote: document changed on server (etag mismatch)")

// Options tunes a Source.
type Options struct {
	// CacheCapacity is the number of pages kept in the chunk cache (0
	// selects DefaultCacheCapacity). A full cache evicts a page at random,
	// so a repeated view whose working set exceeds the cache still hits on
	// most of it.
	CacheCapacity int
	// HTTPClient overrides http.DefaultClient.
	HTTPClient *http.Client
}

const (
	// PageSize is the granularity of the chunk cache and of range fetches
	// in bytes. It matches the default ECB-MHT fragment size: integrity
	// verification pulls whole fragments through the source anyway, so
	// larger pages only round skip boundaries up and waste wire, while
	// smaller pages cannot reduce transfer further.
	PageSize = 256
	// DefaultCacheCapacity is the page count of the chunk cache (random
	// replacement) when Options.CacheCapacity is zero.
	DefaultCacheCapacity = 2048
)

// Bounds on what the client reads of a response whose length the request
// does not fix. Every other body is bounded by the bytes it asked for.
const (
	// maxManifestBody bounds the manifest JSON: an ETag, the document id
	// and a dozen numbers.
	maxManifestBody = 64 << 10
	// maxErrorBody is how much of an error response is read for its
	// diagnostic (errorDetail shows the first 200 bytes).
	maxErrorBody = 512
)

// maxReserve is the most a read reserves before its bytes arrive. The
// length a read asks for comes from the container layout the store
// declares, so a longer body is read into a buffer that grows with what
// has arrived. 1 MiB holds the leaf table of 13 MiB of
// ciphertext under the default layout.
const maxReserve = 1 << 20

func (o Options) withDefaults() Options {
	if o.CacheCapacity <= 0 {
		o.CacheCapacity = DefaultCacheCapacity
	}
	if o.HTTPClient == nil {
		o.HTTPClient = http.DefaultClient
	}
	return o
}

// WireStats counts what actually crossed the network.
type WireStats struct {
	// BytesOnWire is the HTTP payload read from the server: range bodies,
	// the manifest, the digest table and fragment hashes. Request/response
	// headers are not counted.
	BytesOnWire int64
	// RoundTrips is the number of HTTP requests issued.
	RoundTrips int64
	// ChunksReused counts the integrity chunks whose cached pages survived a
	// document update because the two versions' encrypted digest tables
	// showed them unchanged — the payoff of version-aware invalidation over
	// flushing the whole cache.
	ChunksReused int64
}

// Source is an HTTP-backed secure.ChunkSource over an untrusted blob server.
// It is safe for concurrent use; wire counters are shared across callers.
type Source struct {
	client      *http.Client
	manifestURL string
	blobURL     string
	hashesURL   string

	mu       sync.Mutex
	man      secure.Manifest
	digests  [][]byte
	etag     string
	ctOffset int64
	cache    *pageCache
	// leaves[c] is chunk c's leaf records, nil until fetched: a
	// capacity-clipped slice of the buffer of the run that brought them.
	leaves [][]byte
	stats  WireStats

	// trace, when non-nil, charges wire transfer and resync time to the
	// current evaluation's phase timers, records fetch spans and stamps the
	// propagation headers on outgoing requests. Guarded by mu like every
	// other operation on the source.
	trace *trace.Context

	// ctx, when non-nil, bounds every outgoing request of the current
	// evaluation: canceling it closes in-flight range fetches, so an
	// aborted client view stops consuming the wire immediately instead of
	// draining responses nobody will read. Guarded by mu.
	ctx context.Context
}

// SetTrace attaches (or detaches, with nil) the tracing context charged for
// wire transfers. Callers serialize evaluations on one Source, so attaching
// a per-evaluation context around each evaluation is race-free.
func (s *Source) SetTrace(t *trace.Context) {
	s.mu.Lock()
	s.trace = t
	s.mu.Unlock()
}

// SetContext attaches (or detaches, with nil) the request context bounding
// this source's outgoing fetches. Like SetTrace it is attached around one
// evaluation at a time. A context that can never be canceled (its Done
// channel is nil, as for context.Background) binds nothing, so requests
// skip the per-request copy that binding one costs.
func (s *Source) SetContext(ctx context.Context) {
	if ctx != nil && ctx.Done() == nil {
		ctx = nil
	}
	s.mu.Lock()
	s.ctx = ctx
	s.mu.Unlock()
}

// Open connects to a document's blob surface. baseURL is the document URL on
// an xmlac-serve instance, e.g. "http://host:8080/docs/hospital"; Open
// fetches the manifest and the container prefix (header and encrypted digest
// table) so that later reads translate directly into ciphertext ranges.
func Open(baseURL string, opts Options) (*Source, error) {
	base := strings.TrimRight(baseURL, "/")
	opts = opts.withDefaults()
	s := &Source{
		client:      opts.HTTPClient,
		manifestURL: base + "/manifest",
		blobURL:     base + "/blob",
		hashesURL:   base + "/hashes",
		cache:       newPageCache(opts.CacheCapacity),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.load(); err != nil {
		return nil, err
	}
	return s, nil
}

// manifestPayload is the JSON body of GET /docs/{id}/manifest.
type manifestPayload struct {
	ETag     string `json:"etag"`
	Manifest struct {
		CiphertextOffset int64  `json:"ciphertext_offset"`
		BlobSize         int64  `json:"blob_size"`
		Version          uint64 `json:"version"`
	} `json:"manifest"`
}

// fetchManifest retrieves and validates the manifest JSON. A manifest that
// names no entity tag is refused: every later request is conditional on it.
// Callers hold s.mu.
func (s *Source) fetchManifest() (manifestPayload, error) {
	var payload manifestPayload
	resp, err := s.do("GET", s.manifestURL, nil)
	if err != nil {
		return payload, err
	}
	if resp.StatusCode != http.StatusOK {
		return payload, fmt.Errorf("remote: manifest: %s", s.errorDetail(resp))
	}
	body, err := s.readAll(resp, maxManifestBody)
	if err != nil {
		return payload, err
	}
	if err := json.Unmarshal(body, &payload); err != nil {
		return payload, fmt.Errorf("remote: decoding manifest: %w", err)
	}
	if payload.ETag == "" {
		return payload, fmt.Errorf("remote: the manifest names no entity tag")
	}
	if off := payload.Manifest.CiphertextOffset; off <= 0 || off > payload.Manifest.BlobSize {
		return payload, fmt.Errorf("remote: implausible ciphertext offset %d in manifest", off)
	}
	return payload, nil
}

// loadPrefix pulls and parses the container prefix (header plus encrypted
// digest table) described by a manifest payload and installs it. Digests are
// tiny and every integrity-checked read needs one, so prefetching the table
// costs one round trip total. The request is conditional on the tag the
// manifest was served with: a blob that moved on since (a PATCH landed
// between the two requests) answers 412, reported as ErrChanged, instead of
// a prefix of the next version that the manifest does not describe. Callers
// hold s.mu.
func (s *Source) loadPrefix(payload manifestPayload) error {
	ctOff := payload.Manifest.CiphertextOffset
	prefix, err := s.getRange(s.blobURL, payload.ETag, 0, ctOff)
	if err != nil {
		return err
	}
	man, digests, parsedOff, err := secure.UnmarshalManifest(prefix)
	if err != nil {
		return err
	}
	if parsedOff != ctOff {
		return fmt.Errorf("remote: manifest ciphertext offset %d disagrees with container (%d)", ctOff, parsedOff)
	}
	if ctOff+man.CiphertextLen != payload.Manifest.BlobSize {
		return fmt.Errorf("remote: blob size %d disagrees with container layout (%d+%d)",
			payload.Manifest.BlobSize, ctOff, man.CiphertextLen)
	}
	s.man = man
	s.digests = digests
	s.etag = payload.ETag
	s.ctOffset = ctOff
	return nil
}

// load fetches the manifest and the container prefix. Callers hold s.mu.
func (s *Source) load() error {
	payload, err := s.fetchManifest()
	if err != nil {
		return err
	}
	return s.loadPrefix(payload)
}

// Manifest implements secure.ChunkSource.
func (s *Source) Manifest() secure.Manifest {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.man
}

// ETag returns the entity tag of the blob this source is bound to.
func (s *Source) ETag() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.etag
}

// Stats returns the cumulative wire counters.
func (s *Source) Stats() WireStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// CachedPages reports the number of resident chunk-cache pages (tests and
// diagnostics).
func (s *Source) CachedPages() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache.len()
}

// ChunkDigest implements secure.ChunkSource from the prefetched digest
// table.
func (s *Source) ChunkDigest(i int) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i < 0 || i >= len(s.digests) {
		return nil, fmt.Errorf("remote: chunk digest %d out of range (%d digests)", i, len(s.digests))
	}
	return s.digests[i], nil
}

// FragmentHashes implements secure.ChunkSource: the fragment leaf hashes of
// one chunk in their wire form (DigestSize bytes per fragment, bounded by
// the document layout). A miss fetches the records of a run of chunks from
// i on in one range request for the leaf table, up to the first chunk whose
// records the source holds or the end of the layout: a cold view reads the
// table in one request, and each run of chunks a re-sync found changed
// comes back in one. The records stay for the session, until a re-sync
// finds their chunk changed.
func (s *Source) FragmentHashes(i int) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Only ECB-MHT has a leaf table. Under it the digest table, read whole
	// at open, bounds the chunk count and so the slice of records.
	if s.man.Scheme != secure.SchemeECBMHT {
		return nil, fmt.Errorf("remote: a %v document has no fragment hash table", s.man.Scheme)
	}
	n := s.man.NumChunks()
	if i < 0 || i >= n {
		return nil, fmt.Errorf("remote: chunk %d out of range (%d chunks)", i, n)
	}
	if len(s.leaves) < n {
		s.leaves = slices.Grow(s.leaves, n-len(s.leaves))[:n]
	}
	if h := s.leaves[i]; h != nil {
		return h, nil
	}
	j := i + 1
	for j < n && s.leaves[j] == nil {
		j++
	}
	if err := s.fetchLeaves(i, j); err != nil {
		return nil, err
	}
	return s.leaves[i], nil
}

// fetchLeaves fetches the leaf records of chunks [i, j), none of which the
// source holds, in one range request and keeps each chunk's records as a
// capacity-clipped slice of the one buffer. Callers hold s.mu.
func (s *Source) fetchLeaves(i, j int) error {
	start, end := s.man.LeafBounds(i, j)
	fetchStart := s.trace.Now()
	wireBefore := s.stats.BytesOnWire
	body, err := s.getRange(s.hashesURL, s.etag, start, end)
	if err != nil {
		return err
	}
	s.trace.Record("remote.hash-fetch", fetchStart, s.stats.BytesOnWire-wireBefore, int64(j-i), "")
	for c := i; c < j; c++ {
		a, b := s.man.LeafBounds(c, c+1)
		s.leaves[c] = body[a-start : b-start : b-start]
	}
	return nil
}

// CiphertextRange implements secure.ChunkSource: it serves [off, off+n) from
// the page cache, fetching its pages from the first missing one to the last
// in one range request; the resident pages between them come again. A read
// inside one page returns a capacity-clipped slice of that page; a longer
// read is copied out of its pages.
func (s *Source) CiphertextRange(off, n int64) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if off < 0 || n < 0 || off+n > s.man.CiphertextLen {
		return nil, fmt.Errorf("remote: ciphertext range [%d, %d) out of bounds (len %d)", off, off+n, s.man.CiphertextLen)
	}
	if n == 0 {
		return nil, nil
	}
	first := off / PageSize
	last := (off + n - 1) / PageSize
	// The run [lo, hi] of pages to fetch; empty (lo = hi+1) when every page
	// is resident.
	lo, hi := first, last
	for lo <= hi && s.cache.contains(lo) {
		lo++
	}
	for hi > lo && s.cache.contains(hi) {
		hi--
	}
	s.trace.CountPageHits(last - first - (hi - lo))
	s.trace.CountPageMisses(hi - lo + 1)
	var run []byte
	if lo <= hi {
		fetchStart := s.trace.Now()
		wireBefore := s.stats.BytesOnWire
		end := min((hi+1)*PageSize, s.man.CiphertextLen)
		var err error
		run, err = s.getRange(s.blobURL, s.etag, s.ctOffset+lo*PageSize, s.ctOffset+end)
		if err != nil {
			return nil, err
		}
		s.trace.Record("remote.fetch", fetchStart, s.stats.BytesOnWire-wireBefore, hi-lo+1, "")
	}
	// Serve the read before caching what it fetched: a put may evict any
	// resident page, one this read needs included.
	var out []byte
	if first != last {
		out = make([]byte, n)
	}
	for p := first; p <= last; p++ {
		var data []byte
		if lo <= p && p <= hi {
			data = runPage(run, lo, p)
		} else {
			data, _ = s.cache.get(p) // resident: the loops above stopped at it
		}
		pageStart := p * PageSize
		a := max(off, pageStart)
		b := min(off+n, pageStart+int64(len(data)))
		if b < off+n && p == last {
			return nil, fmt.Errorf("remote: page %d shorter than requested range", p)
		}
		if first == last {
			out = data[a-pageStart : b-pageStart : b-pageStart]
		} else {
			copy(out[a-off:b-off], data[a-pageStart:b-pageStart])
		}
	}
	// In page order, so that evictions depend on the reads alone.
	for p := lo; p <= hi; p++ {
		s.cache.put(p, runPage(run, lo, p))
	}
	return out, nil
}

// runPage returns page p of a run of pages fetched from page lo on: a
// capacity-clipped slice of the run, shorter than a page only at the end of
// the ciphertext.
func runPage(run []byte, lo, p int64) []byte {
	a := (p - lo) * PageSize
	b := min(a+PageSize, int64(len(run)))
	return run[a:b:b]
}

// Revalidate asks the server whether the blob still matches this source's
// entity tag (a 1-byte conditional range request). If it changed, the
// client re-synchronizes: it loads the new version's digest table and
// evicts only the chunks whose encrypted digest or bounds changed
// (secure.ChangedChunks); clean chunks stay resident and count into
// WireStats.ChunksReused. Revalidate reports whether the document changed.
func (s *Source) Revalidate() (changed bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	req, err := http.NewRequest("GET", s.blobURL, nil)
	if err != nil {
		return false, err
	}
	req.Header.Set("Range", "bytes=0-0")
	req.Header.Set("If-None-Match", s.etag)
	resp, err := s.doReq(req)
	if err != nil {
		return false, err
	}
	// Only the status matters.
	switch resp.StatusCode {
	case http.StatusPartialContent, http.StatusNotModified:
		if _, err := s.readAll(resp, 1); err != nil {
			return false, err
		}
	default:
		return false, fmt.Errorf("remote: revalidate: %s", s.errorDetail(resp))
	}
	if resp.StatusCode == http.StatusNotModified {
		return false, nil
	}
	return true, s.resyncLocked()
}

// Resync re-binds the source to the server's current document version:
// Revalidate without the conditional probe, for callers that already know
// the blob changed (ErrChanged from a range fetch). Chunks whose digest and
// bounds are unchanged stay cached.
func (s *Source) Resync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resyncLocked()
}

// resyncLocked synchronizes manifest, digest table, leaf records and page
// cache with the server's current version. It keeps every cached page and
// leaf record of a chunk the two versions' digest tables show unchanged
// and evicts the rest: pages and records of changed chunks, pages past the
// new end of ciphertext and records of dropped chunks. A prefix fetch that
// fails (ErrChanged when a PATCH lands between the manifest and the prefix)
// changes nothing, so the cache stays valid for the next attempt. Callers
// hold s.mu.
func (s *Source) resyncLocked() error {
	defer s.trace.Enter(s.trace.Enter(trace.PhaseResync))
	start := s.trace.Now()
	wireBefore := s.stats.BytesOnWire
	defer func() {
		s.trace.Record("remote.resync", start, s.stats.BytesOnWire-wireBefore, 0, "")
	}()
	payload, err := s.fetchManifest()
	if err != nil {
		return err
	}
	if payload.ETag == s.etag {
		return nil // raced with a concurrent reload; already current
	}
	oldMan, oldDigests := s.man, s.digests
	if err := s.loadPrefix(payload); err != nil {
		return err
	}
	man := s.man
	if man.NumDigests == 0 {
		// ECB has no digest table, so every chunk counts as changed. Empty
		// the cache instead of listing every chunk the store claims: the
		// loops below are bounded by the digest table.
		s.cache.reset()
		s.leaves = nil
		return nil
	}
	changed := secure.ChangedChunks(oldMan, man, oldDigests, s.digests)
	dirty := make(map[int]bool, len(changed))
	chunkSize := int64(man.ChunkSize)
	for _, c := range changed {
		dirty[c] = true
		start := int64(c) * chunkSize
		for p := start / PageSize; p*PageSize < start+chunkSize; p++ {
			s.cache.remove(p)
		}
		if c < len(s.leaves) {
			s.leaves[c] = nil
		}
	}
	s.cache.removeAbove((man.CiphertextLen - 1) / PageSize)
	if n := man.NumChunks(); n < len(s.leaves) {
		clear(s.leaves[n:])
		s.leaves = s.leaves[:n]
	}
	// Count the payoff after evicting, so a clean chunk whose only resident
	// page straddled a dirty neighbour (page size not dividing the chunk
	// size) is not claimed as reused: reused = clean chunks that actually
	// kept at least one page.
	for c := 0; c < man.NumChunks(); c++ {
		if dirty[c] {
			continue
		}
		start, end := man.ChunkBounds(c)
		for p := start / PageSize; p*PageSize < end; p++ {
			if s.cache.contains(p) {
				s.stats.ChunksReused++
				break
			}
		}
	}
	return nil
}

// do issues a simple request through the counting path. Callers hold s.mu.
func (s *Source) do(method, url string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return nil, err
	}
	return s.doReq(req)
}

// doReq issues a request, counting the round trip, binding it to the
// attached evaluation context and stamping the trace-propagation headers.
// Callers hold s.mu.
func (s *Source) doReq(req *http.Request) (*http.Response, error) {
	if s.ctx != nil {
		req = req.WithContext(s.ctx)
	}
	if id := s.trace.ID(); id != "" {
		req.Header.Set(trace.RequestIDHeader, id)
		req.Header.Set(trace.SpanIDHeader, s.trace.SpanID())
	}
	s.stats.RoundTrips++
	resp, err := s.send(req)
	if err != nil {
		return nil, fmt.Errorf("remote: %s %s: %w", req.Method, req.URL, err)
	}
	return resp, nil
}

// send runs one round trip on the client, charged to PhaseFetch.
func (s *Source) send(req *http.Request) (*http.Response, error) {
	defer s.trace.Enter(s.trace.Enter(trace.PhaseFetch))
	return s.client.Do(req)
}

// getRange reads bytes [start, end) of the resource at url, the blob or
// the leaf table, of the version whose entity tag is etag. It is the one
// reader of range bodies: it sends one Range under If-Match and accepts only
// a 206 for that version whose Content-Range names exactly those bytes and
// whose body holds exactly that many. A 412 is ErrChanged; any other status
// is refused after reading at most maxErrorBody of its body. Callers hold
// s.mu.
func (s *Source) getRange(url, etag string, start, end int64) ([]byte, error) {
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", start, end-1))
	req.Header.Set("If-Match", etag)
	resp, err := s.doReq(req)
	if err != nil {
		return nil, err
	}
	switch {
	case resp.StatusCode == http.StatusPreconditionFailed:
		return nil, fmt.Errorf("%w: %s moved on from %s: %s", ErrChanged, url, etag, s.errorDetail(resp))
	case resp.StatusCode != http.StatusPartialContent:
		return nil, fmt.Errorf("remote: bytes %d-%d of %s: %s", start, end-1, url, s.errorDetail(resp))
	}
	defer resp.Body.Close()
	// Bytes of another version would fail verification as tampering: name
	// the benign cause, a store that served past the precondition.
	if got := resp.Header.Get("ETag"); got != "" && got != etag {
		return nil, fmt.Errorf("%w: bytes %d-%d of %s are of %s, the client holds %s", ErrChanged, start, end-1, url, got, etag)
	}
	if a, b, err := parseContentRange(resp.Header.Get("Content-Range")); err != nil || a != start || b != end-1 {
		return nil, fmt.Errorf("remote: asked %s for bytes %d-%d, the answer names %q", url, start, end-1, resp.Header.Get("Content-Range"))
	}
	defer s.trace.Enter(s.trace.Enter(trace.PhaseFetch))
	body, err := readFull(s.bodyReader(resp.Body, end-start), end-start)
	if err != nil {
		return nil, fmt.Errorf("remote: reading bytes %d-%d of %s: %w", start, end-1, url, err)
	}
	return body, nil
}

// readAll drains and closes a response body through the wire counter. The
// body may hold at most limit bytes, what the request asked for: a longer
// one fails with ErrIntegrity one byte past the limit.
func (s *Source) readAll(resp *http.Response, limit int64) ([]byte, error) {
	return s.drain(resp, s.bodyReader(resp.Body, limit))
}

// readHead reads at most n bytes of a response body through the wire
// counter and closes it, leaving the rest unread.
func (s *Source) readHead(resp *http.Response, n int64) ([]byte, error) {
	return s.drain(resp, io.LimitReader(s.bodyReader(resp.Body, n), n))
}

// readFull reads r, a response body that bodyReader bounds to n bytes and
// that must hold exactly n, into a buffer that grows with what arrives: it
// starts at maxReserve bytes at most and doubles only once full, so a store
// that claims more than it sends makes the client hold at most maxReserve
// or twice what arrived, whichever is larger. A shorter body fails, and so
// does a longer one, when the bounded reader meets its byte n+1.
func readFull(r io.Reader, n int64) ([]byte, error) {
	buf := make([]byte, min(n, maxReserve))
	got, err := io.ReadFull(r, buf)
	for err == nil && int64(got) < n {
		grown := make([]byte, int64(got)+min(n-int64(got), int64(got)))
		copy(grown, buf)
		buf = grown
		var m int
		m, err = io.ReadFull(r, buf[got:])
		got += m
	}
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return nil, fmt.Errorf("got %d bytes, want %d", got, n)
	}
	if err != nil {
		return nil, err
	}
	if _, err := io.Copy(io.Discard, r); err != nil {
		return nil, err
	}
	return buf, nil
}

// drain reads r, a counted view of resp's body, to its end and closes the
// body.
func (s *Source) drain(resp *http.Response, r io.Reader) ([]byte, error) {
	defer resp.Body.Close()
	defer s.trace.Enter(s.trace.Enter(trace.PhaseFetch))
	body, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("remote: reading response body: %w", err)
	}
	return body, nil
}

// bodyReader wraps a response body so every byte read is charged to
// BytesOnWire, and a body longer than limit bytes fails the read that
// passes the limit. A negative limit admits no byte. Callers hold s.mu for
// the duration of the reads.
func (s *Source) bodyReader(r io.Reader, limit int64) io.Reader {
	limit = max(limit, 0)
	return &boundedReader{r: r, n: &s.stats.BytesOnWire, left: limit, limit: limit}
}

type boundedReader struct {
	r           io.Reader
	n           *int64
	left, limit int64
}

func (b *boundedReader) Read(p []byte) (int, error) {
	// Compared without b.left+1, which overflows at a limit of MaxInt64.
	if int64(len(p))-1 > b.left {
		p = p[:b.left+1]
	}
	n, err := b.r.Read(p)
	*b.n += int64(n)
	if int64(n) > b.left {
		return 0, fmt.Errorf("%w: remote: response body longer than the %d bytes requested", secure.ErrIntegrity, b.limit)
	}
	b.left -= int64(n)
	return n, err
}

// parseContentRange extracts the [start, end] byte positions of a
// "bytes a-b/total" Content-Range header.
func parseContentRange(h string) (start, end int64, err error) {
	rest, ok := strings.CutPrefix(h, "bytes ")
	if !ok {
		return 0, 0, fmt.Errorf("remote: malformed Content-Range %q", h)
	}
	span, _, ok := strings.Cut(rest, "/")
	if !ok {
		return 0, 0, fmt.Errorf("remote: malformed Content-Range %q", h)
	}
	a, b, ok := strings.Cut(span, "-")
	if !ok {
		return 0, 0, fmt.Errorf("remote: malformed Content-Range %q", h)
	}
	if start, err = strconv.ParseInt(a, 10, 64); err != nil {
		return 0, 0, fmt.Errorf("remote: malformed Content-Range %q", h)
	}
	if end, err = strconv.ParseInt(b, 10, 64); err != nil {
		return 0, 0, fmt.Errorf("remote: malformed Content-Range %q", h)
	}
	return start, end, nil
}

// errorDetail summarizes an error response for diagnostics, from the head
// of its body.
func (s *Source) errorDetail(resp *http.Response) string {
	body, _ := s.readHead(resp, maxErrorBody)
	detail := strings.TrimSpace(string(body))
	if len(detail) > 200 {
		detail = detail[:200] + "..."
	}
	if detail == "" {
		return resp.Status
	}
	return resp.Status + ": " + detail
}
