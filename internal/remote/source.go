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
//   - a bounded LRU cache of fixed-size ciphertext pages, so the reader's
//     many small overlapping reads hit memory, not the network;
//   - range coalescing: cache misses closer than a gap threshold are merged
//     into one span (fetching the cheap gap beats another round trip or
//     another multipart part), and distinct spans ride in a single
//     multi-range request;
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

// Trace-propagation headers stamped on every outgoing request while a
// tracing context is attached: the trace ID rides the server's existing
// X-Request-Id plumbing (so server-side spans and access-log lines carry
// it), and the client evaluation's root span ID lets the server record its
// request spans as children of the evaluation that caused them.
const (
	traceIDHeader = "X-Request-Id"
	spanIDHeader  = "X-Xmlac-Span-Id"
)

// ErrChanged is returned when the server's blob no longer matches the entity
// tag this source was opened against (the document was re-registered); the
// caller must reopen or Revalidate.
var ErrChanged = errors.New("remote: document changed on server (etag mismatch)")

// Options tunes a Source.
type Options struct {
	// PageSize is the granularity of the chunk cache and of range fetches in
	// bytes (0 selects DefaultPageSize).
	PageSize int
	// GapThreshold merges two cache-miss spans whose gap is at most this
	// many bytes into one range (the gap bytes are fetched and cached too).
	// 0 selects the page size; negative merges only adjacent spans.
	GapThreshold int
	// CacheCapacity is the number of pages kept in the LRU chunk cache
	// (0 selects DefaultCacheCapacity).
	CacheCapacity int
	// HTTPClient overrides http.DefaultClient.
	HTTPClient *http.Client
}

// Defaults for Options fields left zero. The page size matches the default
// ECB-MHT fragment size: integrity verification pulls whole fragments
// through the source anyway, so larger pages only round skip boundaries up
// and waste wire, while smaller pages cannot reduce transfer further.
const (
	DefaultPageSize      = 256
	DefaultCacheCapacity = 2048
)

func (o Options) withDefaults() Options {
	if o.PageSize <= 0 {
		o.PageSize = DefaultPageSize
	}
	if o.GapThreshold == 0 {
		o.GapThreshold = o.PageSize
	} else if o.GapThreshold < 0 {
		o.GapThreshold = 0
	}
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
	// document update because the server's delta proved them unchanged — the
	// payoff of version-aware invalidation over flushing the whole cache.
	ChunksReused int64
}

// Source is an HTTP-backed secure.ChunkSource over an untrusted blob server.
// It is safe for concurrent use; wire counters are shared across callers.
type Source struct {
	client      *http.Client
	manifestURL string
	blobURL     string
	hashesURL   string
	deltaURL    string
	opts        Options

	mu         sync.Mutex
	man        secure.Manifest
	digests    [][]byte
	etag       string
	ctOffset   int64
	cache      *pageLRU
	fragHashes map[int][][secure.DigestSize]byte
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
// evaluation at a time.
func (s *Source) SetContext(ctx context.Context) {
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
	s := &Source{
		client:      opts.withDefaults().HTTPClient,
		manifestURL: base + "/manifest",
		blobURL:     base + "/blob",
		hashesURL:   base + "/hashes",
		deltaURL:    base + "/delta",
		opts:        opts.withDefaults(),
		fragHashes:  map[int][][secure.DigestSize]byte{},
	}
	s.cache = newPageLRU(s.opts.CacheCapacity)
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
	body, err := s.readAll(resp)
	if err != nil {
		return payload, err
	}
	if resp.StatusCode != http.StatusOK {
		return payload, fmt.Errorf("remote: manifest: %s", httpErrorDetail(resp, body))
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
// costs one round trip total. Callers hold s.mu.
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
// tag. Callers hold s.mu.
func (s *Source) fetchPrefix(ctOff int64, fallbackETag string) ([]byte, string, error) {
	req, err := http.NewRequest("GET", s.blobURL, nil)
	if err != nil {
		return nil, "", err
	}
	req.Header.Set("Range", fmt.Sprintf("bytes=0-%d", ctOff-1))
	resp, err := s.doReq(req)
	if err != nil {
		return nil, "", err
	}
	body, err := s.readAll(resp)
	if err != nil {
		return nil, "", err
	}
	switch resp.StatusCode {
	case http.StatusPartialContent:
	case http.StatusOK:
		// Server ignored the range; keep the prefix of the full body.
		if int64(len(body)) < ctOff {
			return nil, "", fmt.Errorf("remote: blob shorter (%d) than ciphertext offset %d", len(body), ctOff)
		}
		body = body[:ctOff]
	default:
		return nil, "", fmt.Errorf("remote: blob prefix: %s", httpErrorDetail(resp, body))
	}
	etag := resp.Header.Get("ETag")
	if etag == "" {
		etag = fallbackETag
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
// one chunk, fetched from the hashes endpoint on first use and kept (they
// are DigestSize bytes per fragment, bounded by the document layout).
func (s *Source) FragmentHashes(i int) ([][secure.DigestSize]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if h, ok := s.fragHashes[i]; ok {
		return h, nil
	}
	resp, err := s.do("GET", s.hashesURL+"?chunk="+strconv.Itoa(i), nil)
	if err != nil {
		return nil, err
	}
	body, err := s.readAll(resp)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("remote: fragment hashes for chunk %d: %s", i, httpErrorDetail(resp, body))
	}
	// Hashes of a different blob version would fail Merkle verification as
	// tampering; detect the benign cause (the document moved on) and let the
	// re-sync retry handle it instead.
	if etag := resp.Header.Get("ETag"); etag != "" && s.etag != "" && etag != s.etag {
		return nil, fmt.Errorf("%w: fragment hashes are for %s, client holds %s", ErrChanged, etag, s.etag)
	}
	want := s.man.NumFragments(i)
	if len(body) != want*secure.DigestSize {
		return nil, fmt.Errorf("remote: fragment hashes for chunk %d: got %d bytes, want %d fragments x %d",
			i, len(body), want, secure.DigestSize)
	}
	hashes := make([][secure.DigestSize]byte, want)
	for f := 0; f < want; f++ {
		copy(hashes[f][:], body[f*secure.DigestSize:])
	}
	s.fragHashes[i] = hashes
	return hashes, nil
}

// CiphertextRange implements secure.ChunkSource: it serves [off, off+n) from
// the page cache, fetching missing pages (coalesced) in at most one HTTP
// request.
func (s *Source) CiphertextRange(off, n int64) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if off < 0 || n < 0 || off+n > s.man.CiphertextLen {
		return nil, fmt.Errorf("remote: ciphertext range [%d, %d) out of bounds (len %d)", off, off+n, s.man.CiphertextLen)
	}
	if n == 0 {
		return nil, nil
	}
	pageSize := int64(s.opts.PageSize)
	first := off / pageSize
	last := (off + n - 1) / pageSize
	var missing []int64
	for p := first; p <= last; p++ {
		if !s.cache.contains(p) {
			missing = append(missing, p)
		}
	}
	s.trace.CountPageHits(last - first + 1 - int64(len(missing)))
	s.trace.CountPageMisses(int64(len(missing)))
	fetched := map[int64][]byte{}
	if len(missing) > 0 {
		var err error
		fetchStart := s.trace.Now()
		wireBefore := s.stats.BytesOnWire
		fetched, err = s.fetchPages(missing)
		if err != nil {
			return nil, err
		}
		s.trace.Record("remote.fetch", fetchStart, s.stats.BytesOnWire-wireBefore, int64(len(missing)), "")
		for p, data := range fetched {
			s.cache.put(p, data)
		}
	}
	// Assemble the requested bytes, preferring this call's fetch results so
	// correctness does not depend on them surviving cache eviction.
	out := make([]byte, n)
	for p := first; p <= last; p++ {
		data, ok := fetched[p]
		if !ok {
			data, ok = s.cache.get(p)
		}
		if !ok {
			return nil, fmt.Errorf("remote: page %d missing after fetch", p)
		}
		pageStart := p * pageSize
		lo := off
		if pageStart > lo {
			lo = pageStart
		}
		hi := off + n
		if end := pageStart + int64(len(data)); end < hi {
			hi = end
		}
		if hi < off+n && p == last {
			return nil, fmt.Errorf("remote: page %d shorter than requested range", p)
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
	pageSize := int64(s.opts.PageSize)
	gap := int64(s.opts.GapThreshold)
	var spans [][2]int64
	for _, p := range pages {
		start := p * pageSize
		end := start + pageSize
		if end > s.man.CiphertextLen {
			end = s.man.CiphertextLen
		}
		if len(spans) > 0 && start-spans[len(spans)-1][1] <= gap {
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
			if err := s.readMultipart(resp, params["boundary"], out); err != nil {
				return nil, err
			}
		} else {
			start, _, err := parseContentRange(resp.Header.Get("Content-Range"))
			if err != nil {
				return nil, err
			}
			body, err := s.readAll(resp)
			if err != nil {
				return nil, err
			}
			s.runToPages(start-s.ctOffset, body, out)
		}
	case http.StatusOK:
		body, err := s.readAll(resp)
		if err != nil {
			return nil, err
		}
		if etag := resp.Header.Get("ETag"); etag != "" && etag != s.etag {
			return nil, fmt.Errorf("%w: had %s, server now has %s", ErrChanged, s.etag, etag)
		}
		// Server ignored the ranges: slice the spans out of the full blob.
		for _, sp := range spans {
			a, b := sp[0]+s.ctOffset, sp[1]+s.ctOffset
			if b > int64(len(body)) {
				return nil, fmt.Errorf("remote: full blob response shorter (%d) than span end %d", len(body), b)
			}
			s.runToPages(sp[0], body[a:b], out)
		}
	default:
		body, _ := s.readAll(resp)
		return nil, fmt.Errorf("remote: range fetch: %s", httpErrorDetail(resp, body))
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
// pages covered by each part.
func (s *Source) readMultipart(resp *http.Response, boundary string, out map[int64][]byte) error {
	defer resp.Body.Close()
	s.trace.Begin(trace.PhaseFetch)
	defer s.trace.End()
	if boundary == "" {
		return fmt.Errorf("remote: multipart response without boundary")
	}
	mr := multipart.NewReader(s.countReader(resp.Body), boundary)
	for {
		part, err := mr.NextPart()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("remote: reading multipart range: %w", err)
		}
		start, _, err := parseContentRange(part.Header.Get("Content-Range"))
		if err != nil {
			return err
		}
		data, err := io.ReadAll(part)
		if err != nil {
			return fmt.Errorf("remote: reading range part: %w", err)
		}
		s.runToPages(start-s.ctOffset, data, out)
	}
}

// runToPages splits a contiguous ciphertext run (start in ciphertext
// coordinates) into whole pages. Runs are page-aligned by construction; a
// trailing partial page is kept only when it ends at EOF.
func (s *Source) runToPages(start int64, data []byte, out map[int64][]byte) {
	pageSize := int64(s.opts.PageSize)
	end := start + int64(len(data))
	for off := start; off < end; {
		p := off / pageSize
		pageStart := p * pageSize
		pageEnd := pageStart + pageSize
		if pageEnd > s.man.CiphertextLen {
			pageEnd = s.man.CiphertextLen
		}
		if off != pageStart || pageEnd > end {
			// Misaligned or truncated page: drop it rather than cache a
			// partial page that would be served as authoritative.
			off = pageEnd
			continue
		}
		out[p] = append([]byte(nil), data[off-start:pageEnd-start]...)
		off = pageEnd
	}
}

// Revalidate asks the server whether the blob still matches this source's
// entity tag (a 1-byte conditional range request). If it changed, the
// client re-synchronizes: when the server can serve an update delta from
// this source's version, only the chunks the delta names are evicted from
// the page cache (clean chunks stay resident and count into
// WireStats.ChunksReused); otherwise everything is flushed and reloaded.
// Revalidate reports whether the document changed.
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
	if _, err := s.readAll(resp); err != nil {
		return false, err
	}
	if resp.StatusCode == http.StatusNotModified {
		return false, nil
	}
	return true, s.resyncLocked()
}

// Resync re-binds the source to the server's current document version:
// the delta-aware path of Revalidate without the conditional probe, for
// callers that already know the blob changed (ErrChanged from a range
// fetch). Chunks the delta proves unchanged stay cached.
func (s *Source) Resync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resyncLocked()
}

// resyncLocked synchronizes manifest, digest table, fragment hashes and page
// cache with the server's current version. Callers hold s.mu.
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
	if delta := s.fetchDelta(payload); delta != nil {
		if err := s.applyDelta(payload, delta); err == nil {
			return nil
		}
		// A delta that fails to apply (layout drift, another concurrent
		// update) degrades to the full flush below — correctness never
		// depends on the fast path.
	}
	s.cache.reset()
	clear(s.fragHashes)
	return s.loadPrefix(payload)
}

// fetchDelta asks the server for the merged update delta from this source's
// version to its current one. nil means "no usable delta" (server predates
// the endpoint, version fell out of the retention window, or the response
// does not line up with the manifest): the caller falls back to a flush.
func (s *Source) fetchDelta(payload manifestPayload) *secure.Delta {
	from := s.man.Version
	if from == 0 || payload.Manifest.Version <= from {
		return nil
	}
	resp, err := s.do("GET", s.deltaURL+"?from="+strconv.FormatUint(from, 10), nil)
	if err != nil {
		return nil
	}
	body, err := s.readAll(resp)
	if err != nil || resp.StatusCode != http.StatusOK {
		return nil
	}
	delta, err := secure.UnmarshalDelta(body)
	if err != nil {
		return nil
	}
	if delta.FromVersion != from || delta.ToVersion != payload.Manifest.Version {
		return nil
	}
	return delta
}

// applyDelta installs the new version while keeping every cached page of a
// chunk the delta proves unchanged. The digest table and header are
// re-fetched (one round trip — they are tiny and the delta's dirty chunks
// have fresh digests anyway); pages of dirty chunks, pages past the new end
// of ciphertext and fragment hashes of dirty or dropped chunks are evicted.
// Callers hold s.mu.
func (s *Source) applyDelta(payload manifestPayload, delta *secure.Delta) error {
	oldMan := s.man
	if err := s.loadPrefix(payload); err != nil {
		return err
	}
	man := s.man
	// The delta must describe exactly the transition the prefix confirms;
	// chunk geometry never changes across updates.
	if man.Version != delta.ToVersion || man.CiphertextLen != delta.NewCiphertextLen ||
		man.NumChunks() != delta.NumChunks ||
		man.ChunkSize != oldMan.ChunkSize || man.FragmentSize != oldMan.FragmentSize {
		return fmt.Errorf("remote: delta does not match the server's current layout")
	}
	if payload.ETag != "" && s.etag != payload.ETag {
		return fmt.Errorf("remote: blob changed while re-syncing")
	}
	pageSize := int64(s.opts.PageSize)
	chunkSize := int64(man.ChunkSize)
	dirty := make(map[int]bool, len(delta.DirtyChunks))
	for _, c := range delta.DirtyChunks {
		dirty[c] = true
	}
	for _, c := range delta.DirtyChunks {
		start := int64(c) * chunkSize
		for p := start / pageSize; p*pageSize < start+chunkSize; p++ {
			s.cache.remove(p)
		}
		delete(s.fragHashes, c)
	}
	if man.CiphertextLen > 0 {
		s.cache.removeAbove((man.CiphertextLen - 1) / pageSize)
	}
	for c := range s.fragHashes {
		if c >= delta.NumChunks {
			delete(s.fragHashes, c)
		}
	}
	// Count the payoff after evicting, so a clean chunk whose only resident
	// page straddled a dirty neighbour (page size not dividing the chunk
	// size) is not claimed as reused: reused = clean chunks that actually
	// kept at least one page.
	reused := int64(0)
	for c := 0; c < delta.NumChunks; c++ {
		if dirty[c] {
			continue
		}
		start, end := man.ChunkBounds(c)
		for p := start / pageSize; p*pageSize < end; p++ {
			if s.cache.contains(p) {
				reused++
				break
			}
		}
	}
	s.stats.ChunksReused += reused
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
		req.Header.Set(traceIDHeader, id)
		req.Header.Set(spanIDHeader, s.trace.SpanID())
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

// readAll drains and closes a response body through the wire counter.
func (s *Source) readAll(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	s.trace.Begin(trace.PhaseFetch)
	defer s.trace.End()
	body, err := io.ReadAll(s.countReader(resp.Body))
	if err != nil {
		return nil, fmt.Errorf("remote: reading response body: %w", err)
	}
	return body, nil
}

// countReader wraps a response body so every byte read is charged to
// BytesOnWire. Callers hold s.mu for the duration of the reads.
func (s *Source) countReader(r io.Reader) io.Reader {
	return &countingReader{r: r, n: &s.stats.BytesOnWire}
}

type countingReader struct {
	r io.Reader
	n *int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	*c.n += int64(n)
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

// httpErrorDetail summarizes an error response for diagnostics.
func httpErrorDetail(resp *http.Response, body []byte) string {
	detail := strings.TrimSpace(string(body))
	if len(detail) > 200 {
		detail = detail[:200] + "..."
	}
	if detail == "" {
		return resp.Status
	}
	return resp.Status + ": " + detail
}
