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
//   - range coalescing: cache misses closer than a gap threshold are merged
//     into one span (fetching the cheap gap beats another round trip or
//     another multipart part), and distinct spans ride in a single
//     multi-range request;
//   - version-aware invalidation: when the document changes, a re-sync
//     fetches the new version's encrypted digest table and evicts only the
//     cached chunks whose digest or bounds changed (secure.ChangedChunks),
//     so the store keeps no update history for its clients;
//   - wire accounting: BytesOnWire counts the HTTP payload actually read
//     (range bodies, multipart framing, digest tables, fragment hashes) and
//     RoundTrips counts requests, surfaced through xmlac.Metrics.
package remote

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"mime/multipart"
	"net/http"
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
	// GapThreshold merges two cache-miss spans whose gap is at most this
	// many bytes into one range (the gap bytes are fetched and cached too):
	// one page, cheaper to fetch than another multipart part.
	GapThreshold = PageSize
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
	// partFraming bounds the delimiter and headers of one multipart part.
	partFraming = 512
)

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
	// BytesOnWire is the HTTP payload read from the server: range bodies
	// (multipart framing included), the manifest, the digest table and
	// fragment hashes. Request/response headers are not counted.
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

	mu         sync.Mutex
	man        secure.Manifest
	digests    [][]byte
	etag       string
	ctOffset   int64
	cache      *pageCache
	fragHashes map[int][]byte
	stats      WireStats

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
		fragHashes:  map[int][]byte{},
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

// fetchManifest retrieves and validates the manifest JSON. Callers hold s.mu.
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
	if off := payload.Manifest.CiphertextOffset; off <= 0 || off > payload.Manifest.BlobSize {
		return payload, fmt.Errorf("remote: implausible ciphertext offset %d in manifest", off)
	}
	return payload, nil
}

// loadPrefix pulls and parses the container prefix (header plus encrypted
// digest table) described by a manifest payload and installs it. Digests are
// tiny and every integrity-checked read needs one, so prefetching the table
// costs one round trip total. A document updated since the manifest was
// served fails with ErrChanged. Callers hold s.mu.
func (s *Source) loadPrefix(payload manifestPayload) error {
	ctOff := payload.Manifest.CiphertextOffset
	prefix, etag, err := s.fetchPrefix(ctOff, payload.ETag)
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
	s.etag = etag
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

// fetchPrefix retrieves blob[0, ctOff) and returns it with the blob's entity
// tag. The request is conditional on manifestETag, the tag the manifest was
// served with: a blob that moved on since (a PATCH landed between the two
// requests) answers 412, reported as ErrChanged, instead of a prefix of the
// next version that the manifest does not describe. Callers hold s.mu.
func (s *Source) fetchPrefix(ctOff int64, manifestETag string) ([]byte, string, error) {
	req, err := http.NewRequest("GET", s.blobURL, nil)
	if err != nil {
		return nil, "", err
	}
	req.Header.Set("Range", fmt.Sprintf("bytes=0-%d", ctOff-1))
	if manifestETag != "" {
		req.Header.Set("If-Match", manifestETag)
	}
	resp, err := s.doReq(req)
	if err != nil {
		return nil, "", err
	}
	var body []byte
	switch resp.StatusCode {
	case http.StatusPartialContent:
		body, err = s.readAll(resp, ctOff)
	case http.StatusOK:
		// Server ignored the range; read only the prefix of the full body.
		body, err = s.readHead(resp, ctOff)
	case http.StatusPreconditionFailed:
		resp.Body.Close()
		return nil, "", fmt.Errorf("%w: the blob moved on from %s after its manifest was served", ErrChanged, manifestETag)
	default:
		return nil, "", fmt.Errorf("remote: blob prefix: %s", s.errorDetail(resp))
	}
	if err != nil {
		return nil, "", err
	}
	if int64(len(body)) < ctOff {
		return nil, "", fmt.Errorf("remote: blob shorter (%d) than ciphertext offset %d", len(body), ctOff)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" {
		etag = manifestETag
	}
	return body, etag, nil
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
// one chunk, fetched from the hashes endpoint on first use and kept in their
// wire form (DigestSize bytes per fragment, bounded by the document
// layout).
func (s *Source) FragmentHashes(i int) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if h, ok := s.fragHashes[i]; ok {
		return h, nil
	}
	if i < 0 || i >= s.man.NumChunks() {
		return nil, fmt.Errorf("remote: chunk %d out of range (%d chunks)", i, s.man.NumChunks())
	}
	resp, err := s.do("GET", s.hashesURL+"?chunk="+strconv.Itoa(i), nil)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("remote: fragment hashes for chunk %d: %s", i, s.errorDetail(resp))
	}
	// Hashes of a different blob version would fail Merkle verification as
	// tampering; detect the benign cause (the document moved on) and let the
	// re-sync retry handle it instead.
	if etag := resp.Header.Get("ETag"); etag != "" && s.etag != "" && etag != s.etag {
		resp.Body.Close()
		return nil, fmt.Errorf("%w: fragment hashes are for %s, client holds %s", ErrChanged, etag, s.etag)
	}
	// The records stay for the session: read them into a buffer of exactly
	// their length.
	want := s.man.NumFragments(i)
	n := int64(want) * secure.DigestSize
	body, got, err := s.readSized(resp, n, n)
	if err != nil {
		return nil, err
	}
	if got != n {
		return nil, fmt.Errorf("remote: fragment hashes for chunk %d: got %d bytes, want %d fragments x %d",
			i, got, want, secure.DigestSize)
	}
	s.fragHashes[i] = body
	return body, nil
}

// CiphertextRange implements secure.ChunkSource: it serves [off, off+n) from
// the page cache, fetching missing pages (coalesced) in at most one HTTP
// request. A read inside one page returns a capacity-clipped slice of that
// page; a longer read is copied out of its pages.
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
	var missing []int64
	for p := first; p <= last; p++ {
		if !s.cache.contains(p) {
			missing = append(missing, p)
		}
	}
	s.trace.CountPageHits(last - first + 1 - int64(len(missing)))
	s.trace.CountPageMisses(int64(len(missing)))
	var fetched map[int64][]byte
	if len(missing) > 0 {
		var err error
		fetchStart := s.trace.Now()
		wireBefore := s.stats.BytesOnWire
		fetched, err = s.fetchPages(missing)
		if err != nil {
			return nil, err
		}
		s.trace.Record("remote.fetch", fetchStart, s.stats.BytesOnWire-wireBefore, int64(len(missing)), "")
	}
	// Serve the read before caching what it fetched: a put may evict any
	// resident page, one this read needs included.
	out, err := s.assemble(off, n, fetched)
	if err != nil {
		return nil, err
	}
	// In page order, so that evictions depend on the reads alone.
	for _, p := range missing {
		s.cache.put(p, fetched[p])
	}
	return out, nil
}

// assemble returns ciphertext [off, off+n) out of its pages, taking each
// from fetched or else from the cache. Callers hold s.mu.
func (s *Source) assemble(off, n int64, fetched map[int64][]byte) ([]byte, error) {
	first := off / PageSize
	last := (off + n - 1) / PageSize
	var out []byte
	if first != last {
		out = make([]byte, n)
	}
	for p := first; p <= last; p++ {
		data, ok := fetched[p]
		if !ok {
			data, ok = s.cache.get(p)
		}
		if !ok {
			return nil, fmt.Errorf("remote: page %d missing after fetch", p)
		}
		pageStart := p * PageSize
		lo := max(off, pageStart)
		hi := min(off+n, pageStart+int64(len(data)))
		if hi < off+n && p == last {
			return nil, fmt.Errorf("remote: page %d shorter than requested range", p)
		}
		if first == last {
			return data[lo-pageStart : hi-pageStart : hi-pageStart], nil
		}
		copy(out[lo-off:hi-off], data[lo-pageStart:hi-pageStart])
	}
	return out, nil
}

// coalesce turns an ascending list of missing pages into byte spans
// [start, end) over the ciphertext, merging spans whose gap is at most the
// gap threshold: the bytes in between are fetched (and cached) instead of
// paying another multipart part or round trip for the split.
func (s *Source) coalesce(pages []int64) [][2]int64 {
	var spans [][2]int64
	for _, p := range pages {
		start := p * PageSize
		end := start + PageSize
		if end > s.man.CiphertextLen {
			end = s.man.CiphertextLen
		}
		if len(spans) > 0 && start-spans[len(spans)-1][1] <= GapThreshold {
			if end > spans[len(spans)-1][1] {
				spans[len(spans)-1][1] = end
			}
		} else {
			spans = append(spans, [2]int64{start, end})
		}
	}
	return spans
}

// fetchPages retrieves the given pages in one HTTP request (single range or
// multi-range) and returns page index -> page bytes. Callers hold s.mu.
func (s *Source) fetchPages(pages []int64) (map[int64][]byte, error) {
	spans := s.coalesce(pages)
	ranges := make([]string, 0, len(spans))
	for _, sp := range spans {
		ranges = append(ranges, fmt.Sprintf("%d-%d", sp[0]+s.ctOffset, sp[1]+s.ctOffset-1))
	}
	req, err := http.NewRequest("GET", s.blobURL, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Range", "bytes="+strings.Join(ranges, ","))
	if s.etag != "" {
		// If the blob was replaced since open, the server falls back to a
		// 200 full response whose ETag no longer matches: detected below.
		req.Header.Set("If-Range", s.etag)
	}
	resp, err := s.doReq(req)
	if err != nil {
		return nil, err
	}
	out := map[int64][]byte{}
	switch resp.StatusCode {
	case http.StatusPartialContent:
		mediaType, params, _ := mime.ParseMediaType(resp.Header.Get("Content-Type"))
		if strings.HasPrefix(mediaType, "multipart/") {
			if err := s.readMultipart(resp, params["boundary"], spans, out); err != nil {
				return nil, err
			}
		} else {
			start, end, err := parseContentRange(resp.Header.Get("Content-Range"))
			if err != nil {
				resp.Body.Close()
				return nil, err
			}
			// One part answers every span requested: at most the extent
			// from the first span's start to the last span's end. Its pages
			// are cut out of the one buffer it is read into.
			body, got, err := s.readSized(resp, end-start+1, spans[len(spans)-1][1]-spans[0][0])
			if err != nil {
				return nil, err
			}
			if err := s.checkRange(start, end, got); err != nil {
				return nil, err
			}
			s.runToPages(start-s.ctOffset, body, out)
		}
	case http.StatusOK:
		if etag := resp.Header.Get("ETag"); etag != "" && etag != s.etag {
			resp.Body.Close()
			return nil, fmt.Errorf("%w: had %s, server now has %s", ErrChanged, s.etag, etag)
		}
		body, err := s.readAll(resp, s.ctOffset+s.man.CiphertextLen)
		if err != nil {
			return nil, err
		}
		// Server ignored the ranges: copy the spans out of the full blob, so
		// that no resident page keeps the whole blob alive.
		for _, sp := range spans {
			a, b := sp[0]+s.ctOffset, sp[1]+s.ctOffset
			if b > int64(len(body)) {
				return nil, fmt.Errorf("remote: full blob response shorter (%d) than span end %d", len(body), b)
			}
			s.runToPages(sp[0], append(make([]byte, 0, b-a), body[a:b]...), out)
		}
	default:
		return nil, fmt.Errorf("remote: range fetch: %s", s.errorDetail(resp))
	}
	// Every requested page must have arrived.
	for _, p := range pages {
		if _, ok := out[p]; !ok {
			return nil, fmt.Errorf("remote: server response missing page %d", p)
		}
	}
	return out, nil
}

// readMultipart consumes a multipart/byteranges body, filling out with the
// pages covered by each part. The parts together carry at most the spans
// requested, and each adds at most partFraming bytes of delimiter and
// headers.
func (s *Source) readMultipart(resp *http.Response, boundary string, spans [][2]int64, out map[int64][]byte) error {
	defer resp.Body.Close()
	s.trace.Begin(trace.PhaseFetch)
	defer s.trace.End()
	if boundary == "" {
		return fmt.Errorf("remote: multipart response without boundary")
	}
	var want int64
	for _, sp := range spans {
		want += sp[1] - sp[0]
	}
	mr := multipart.NewReader(s.bodyReader(resp.Body, want+int64(len(spans)+1)*partFraming), boundary)
	for {
		part, err := mr.NextPart()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("remote: reading multipart range: %w", err)
		}
		start, end, err := parseContentRange(part.Header.Get("Content-Range"))
		if err != nil {
			return err
		}
		data, got, err := readFull(part, end-start+1, want)
		if err != nil {
			return fmt.Errorf("remote: reading range part: %w", err)
		}
		if got > want {
			return fmt.Errorf("%w: remote: range parts longer than the %d bytes requested", secure.ErrIntegrity, want)
		}
		want -= got
		if err := s.checkRange(start, end, got); err != nil {
			return err
		}
		s.runToPages(start-s.ctOffset, data, out)
	}
}

// checkRange rejects a range response the untrusted server got wrong: the
// blob positions [start, end] its Content-Range names must lie inside the
// ciphertext, and the body must hold exactly their end-start+1 bytes.
// Callers hold s.mu.
func (s *Source) checkRange(start, end, n int64) error {
	if start < s.ctOffset || end < start || end >= s.ctOffset+s.man.CiphertextLen || end-start+1 != n {
		return fmt.Errorf("remote: range response names bytes %d-%d with a %d-byte body; the ciphertext is bytes %d-%d",
			start, end, n, s.ctOffset, s.ctOffset+s.man.CiphertextLen-1)
	}
	return nil
}

// runToPages splits a contiguous ciphertext run (start in ciphertext
// coordinates, the run inside the ciphertext: checkRange) into whole pages,
// each a capacity-clipped slice of data, which the caller hands over. Runs
// are page-aligned by construction; a trailing partial page is kept only
// when it ends at EOF.
func (s *Source) runToPages(start int64, data []byte, out map[int64][]byte) {
	end := start + int64(len(data))
	for off := start; off < end; {
		p := off / PageSize
		pageStart := p * PageSize
		pageEnd := pageStart + PageSize
		if pageEnd > s.man.CiphertextLen {
			pageEnd = s.man.CiphertextLen
		}
		if off != pageStart || pageEnd > end {
			// Misaligned or truncated page: drop it rather than cache a
			// partial page that would be served as authoritative.
			off = pageEnd
			continue
		}
		out[p] = data[off-start : pageEnd-start : pageEnd-start]
		off = pageEnd
	}
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
	if s.etag != "" {
		req.Header.Set("If-None-Match", s.etag)
	}
	resp, err := s.doReq(req)
	if err != nil {
		return false, err
	}
	// Only the status matters. A store that ignored the range answered 200
	// with a whole blob, of which nothing is read.
	switch resp.StatusCode {
	case http.StatusOK:
		resp.Body.Close()
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

// resyncLocked synchronizes manifest, digest table, fragment hashes and page
// cache with the server's current version. It keeps every cached page and
// fragment hash of a chunk the two versions' digest tables show unchanged
// and evicts the rest: pages and hashes of changed chunks, pages past the
// new end of ciphertext and hashes of dropped chunks. A prefix fetch that
// fails (ErrChanged when a PATCH lands between the manifest and the prefix)
// changes nothing, so the cache stays valid for the next attempt. Callers
// hold s.mu.
func (s *Source) resyncLocked() error {
	s.trace.Begin(trace.PhaseResync)
	defer s.trace.End()
	start := s.trace.Now()
	wireBefore := s.stats.BytesOnWire
	defer func() {
		s.trace.Record("remote.resync", start, s.stats.BytesOnWire-wireBefore, 0, "")
	}()
	payload, err := s.fetchManifest()
	if err != nil {
		return err
	}
	if payload.ETag != "" && payload.ETag == s.etag {
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
		clear(s.fragHashes)
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
		delete(s.fragHashes, c)
	}
	s.cache.removeAbove((man.CiphertextLen - 1) / PageSize)
	for c := range s.fragHashes {
		if c >= man.NumChunks() {
			delete(s.fragHashes, c)
		}
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
	s.trace.Begin(trace.PhaseFetch)
	resp, err := s.client.Do(req)
	s.trace.End()
	if err != nil {
		return nil, fmt.Errorf("remote: %s %s: %w", req.Method, req.URL, err)
	}
	return resp, nil
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

// readSized reads a response body that should hold n bytes, and may hold
// at most limit, through the wire counter into a buffer of exactly that
// length (n clipped to [0, limit]), then drains the body to its end and
// closes it. It returns the buffer, cut short when the body is, and the
// body's length. A body longer than limit fails with ErrIntegrity.
func (s *Source) readSized(resp *http.Response, n, limit int64) ([]byte, int64, error) {
	defer resp.Body.Close()
	s.trace.Begin(trace.PhaseFetch)
	defer s.trace.End()
	body, got, err := readFull(s.bodyReader(resp.Body, limit), n, limit)
	if err != nil {
		return nil, 0, fmt.Errorf("remote: reading response body: %w", err)
	}
	return body, got, nil
}

// readFull reads the first n bytes of r, n clipped to [0, limit], into a
// buffer of exactly that length, then reads r to its end, at most limit+1
// bytes in all. It returns the buffer, cut short when r is, and the length
// of r: more than limit when r holds more.
func readFull(r io.Reader, n, limit int64) ([]byte, int64, error) {
	buf := make([]byte, min(max(n, 0), limit))
	got, err := io.ReadFull(r, buf)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return buf[:got], int64(got), nil
	}
	if err != nil {
		return nil, 0, err
	}
	rest, err := io.Copy(io.Discard, io.LimitReader(r, limit-int64(got)+1))
	if err != nil {
		return nil, 0, err
	}
	return buf, int64(got) + rest, nil
}

// drain reads r, a counted view of resp's body, to its end and closes the
// body.
func (s *Source) drain(resp *http.Response, r io.Reader) ([]byte, error) {
	defer resp.Body.Close()
	s.trace.Begin(trace.PhaseFetch)
	defer s.trace.End()
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
