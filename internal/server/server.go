// Package server is the multi-tenant document server built on the xmlac
// library: a concurrency-safe store of protected documents and per-subject
// policies (each compiled once, when it is installed), one accounting ledger
// holding every exported counter, and the HTTP handler set served by
// cmd/xmlac-serve.
//
// The paper's architecture keeps the publisher untrusted and pushes policy
// evaluation into each client's Secure Operating Environment. This server
// plays the complementary role for deployments where the operator is
// trusted: it hosts the protected documents and simulates one SOE per
// request, so that many tenants (documents) and many subjects are served
// concurrently from the same process while the per-request cost model
// (bytes transferred, decrypted, skipped) stays observable through
// /metrics.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	httppprof "net/http/pprof"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"xmlac"
	"xmlac/internal/storage"
)

// Options tunes a Server.
type Options struct {
	// SessionIdle is the idle duration after which a session is dropped
	// (<= 0 selects DefaultSessionIdle).
	SessionIdle time.Duration
	// DefaultScheme protects documents registered without an explicit
	// scheme; empty selects SchemeECBMHT (the paper's scheme).
	DefaultScheme xmlac.Scheme
	// MaxDocumentBytes bounds the accepted XML body size (<= 0 selects
	// 64 MiB).
	MaxDocumentBytes int64
	// ViewParallelism, when >= 2, lets view scans run the region-parallel
	// evaluation (ViewOptions.Parallelism) with up to this many workers per
	// scan. It is both the default and the cap: a request may lower it with
	// ?parallel=N (N=0/1 forces the serial scan) but never raise it, so the
	// operator bounds the per-request core budget. 0 (the default) keeps
	// every scan serial.
	ViewParallelism int

	// DataDir enables the durable storage engine rooted at this directory:
	// every registration, policy installation, PATCH and delete is written
	// ahead to a fsynced log before the request is acknowledged, and Open
	// recovers the full store (documents, policies, retained deltas, ETags)
	// by replaying the log: its snapshot prefix, then its tail. Empty keeps
	// the store in-memory (the default, and what tests use). Requires the
	// Open constructor.
	DataDir string
	// CheckpointWALBytes is the size of the log tail (the bytes appended
	// since the last checkpoint) that triggers a checkpoint: the log is
	// rewritten as a snapshot of the store and atomically renamed into
	// place (<= 0 selects DefaultCheckpointWALBytes).
	CheckpointWALBytes int64
	// StorageNoSync disables the storage engine's per-commit fsyncs. For
	// benchmarks isolating the fsync cost only: it voids the durability
	// guarantee.
	StorageNoSync bool

	// Logger receives the structured access log (one line per request with
	// the trace ID) and lifecycle events. nil discards everything — quiet by
	// default for embedding and tests; cmd/xmlac-serve wires a real handler.
	Logger *slog.Logger
	// EnablePprof exposes net/http/pprof under /debug/pprof/. Off by
	// default: the profiles reveal internals that do not belong on an
	// unauthenticated surface.
	EnablePprof bool
	// TraceBufferSize bounds the span ring behind /debug/trace (<= 0 selects
	// the xmlac.NewTrace default of a few hundred spans).
	TraceBufferSize int
	// DisableTracing turns off the per-request tracing contexts entirely:
	// views run the untraced fast path, /debug/trace answers 404, and
	// Metrics.PhaseBreakdown stays zero.
	DisableTracing bool

	// clock overrides the wall clock for session expiry, store timestamps
	// and access-log timing; tests inject a fake to drive time
	// deterministically. nil selects the real clock.
	clock clock
}

// Server is the multi-tenant document server: protected documents and
// per-subject compiled policies live in the Store, and every view counter
// the server exports lives in its accounting ledger. Every method on the
// HTTP surface is safe for arbitrary concurrency.
type Server struct {
	store    *Store
	ledger   *ledger
	requests atomic.Int64 // HTTP requests, outside the ledger's lock
	updates  updateTally
	opts     Options
	started  time.Time
	logger   *slog.Logger
	trace    *xmlac.Trace // nil when tracing is disabled
	persist  *persister   // nil when Options.DataDir is empty
}

// New builds an in-memory server. Persistence (Options.DataDir) requires the
// Open constructor, whose recovery path can fail; New panics if asked for it.
func New(opts Options) *Server {
	if opts.DataDir != "" {
		panic("server: Options.DataDir requires the Open constructor")
	}
	s, err := Open(opts)
	if err != nil {
		// Unreachable: without DataDir nothing in Open can fail.
		panic("server: " + err.Error())
	}
	return s
}

// Open builds a server, attaching the durable storage engine and recovering
// the store from it when Options.DataDir is set. The caller owns the result:
// Close releases the data directory lock.
func Open(opts Options) (*Server, error) {
	if opts.DefaultScheme == "" {
		opts.DefaultScheme = xmlac.SchemeECBMHT
	}
	if opts.MaxDocumentBytes <= 0 {
		opts.MaxDocumentBytes = 64 << 20
	}
	if opts.CheckpointWALBytes <= 0 {
		opts.CheckpointWALBytes = DefaultCheckpointWALBytes
	}
	if opts.clock == nil {
		opts.clock = realClock{}
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.New(discardHandler{})
	}
	s := &Server{
		store:   newStoreWithClock(opts.clock),
		ledger:  newLedger(opts.SessionIdle, opts.clock),
		opts:    opts,
		started: time.Now(),
		logger:  logger,
	}
	if !opts.DisableTracing {
		s.trace = xmlac.NewTrace(opts.TraceBufferSize)
	}
	if opts.DataDir != "" {
		eng, err := storage.Open(opts.DataDir, storage.Options{NoSync: opts.StorageNoSync})
		if err != nil {
			return nil, err
		}
		s.persist = &persister{engine: eng, store: s.store, logger: logger, threshold: opts.CheckpointWALBytes}
		replayed, err := s.recoverPersisted(eng)
		if err != nil {
			eng.Close()
			return nil, fmt.Errorf("server: recovering %s: %w", opts.DataDir, err)
		}
		logger.Info("store recovered",
			slog.String("data_dir", opts.DataDir),
			slog.Int("documents", s.store.Len()),
			slog.Int("records_replayed", replayed),
			slog.Int64("wal_tail_bytes_dropped", eng.Stats().TailBytesDropped))
	}
	return s, nil
}

// Close releases the durable storage engine (log file, directory lock). A
// no-op for in-memory servers.
func (s *Server) Close() error {
	if s.persist == nil {
		return nil
	}
	return s.persist.close()
}

// discardHandler is a slog.Handler that drops everything (slog.DiscardHandler
// arrives in go 1.24; this module targets 1.22).
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }

// Store exposes the document store (used by cmd/xmlac-serve to preload demo
// content and by tests).
func (s *Server) Store() *Store { return s.store }

// RegisterDocument registers (or replaces) a document through the full
// server pipeline: session invalidation, store install and the durable
// registration record when persistence is enabled. An empty scheme selects
// the server default. PUT /docs/{id} and the demo preload go through here so
// both are durable.
func (s *Server) RegisterDocument(id, xmlText, passphrase string, scheme xmlac.Scheme) (*DocumentEntry, error) {
	if scheme == "" {
		scheme = s.opts.DefaultScheme
	}
	defer s.persist.hold()()
	// Drop sessions before installing so session state created for the new
	// document by concurrent requests is never dropped.
	s.ledger.dropDocument(id)
	return s.store.registerXML(id, xmlText, passphrase, scheme, func(entry *DocumentEntry) error {
		if err := s.persist.logRegister(entry); err != nil {
			return fmt.Errorf("%w: registration of %q: %w", errDurability, id, err)
		}
		return nil
	})
}

// InstallPolicy compiles and installs one subject's policy over a document,
// writing the durable policy record when persistence is enabled.
func (s *Server) InstallPolicy(docID, subject string, policy xmlac.Policy) (string, error) {
	entry, err := s.store.Entry(docID)
	if err != nil {
		return "", err
	}
	defer s.persist.hold()()
	return entry.SetPolicy(subject, policy, s.opts.clock.Now(), func(rec PolicyRecord) error {
		if err := s.persist.logPolicy(entry.ID, subject, rec); err != nil {
			return fmt.Errorf("%w: policy %q/%q: %w", errDurability, docID, subject, err)
		}
		return nil
	})
}

// Handler returns the HTTP handler serving the API:
//
//	PUT    /docs/{id}                      register a document (body: XML)
//	PATCH  /docs/{id}                      apply subtree edits as the next version (body: JSON edits)
//	GET    /docs                           list documents
//	GET    /docs/{id}                      document info
//	DELETE /docs/{id}                      delete a document
//	PUT    /docs/{id}/policies/{subject}   install a subject's policy (body: JSON)
//	GET    /docs/{id}/policies/{subject}   policy info
//	GET    /docs/{id}/view?subject=S       stream the subject's authorized view
//	GET    /docs/{id}/manifest             public layout (scheme, chunking, sizes, version)
//	GET    /docs/{id}/blob                 encrypted container (Range, per-version ETag)
//	GET    /docs/{id}/hashes?chunk=N       fragment hashes of one chunk (ECB-MHT)
//	GET    /docs/{id}/delta?from=V         merged update delta since version V (binary)
//	GET    /metrics                        every counter, as JSON
//	GET    /metrics.prom                   the same snapshot, Prometheus text format
//	GET    /debug/costs                    ranked per-(subject, policy) costs
//	GET    /healthz                        liveness
//
// The last three form the untrusted-blob surface of the paper's client-based
// deployment: the server never sees the key; a remote SOE (xmlac.OpenRemote)
// pulls ciphertext ranges, digests and Merkle hashes and evaluates the
// policy on the client, so skipped bytes never cross the wire.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("PUT /docs/{id}", s.handlePutDoc)
	mux.HandleFunc("PATCH /docs/{id}", s.handlePatchDoc)
	mux.HandleFunc("GET /docs", s.handleListDocs)
	mux.HandleFunc("GET /docs/{id}", s.handleGetDoc)
	mux.HandleFunc("DELETE /docs/{id}", s.handleDeleteDoc)
	mux.HandleFunc("PUT /docs/{id}/policies/{subject}", s.handlePutPolicy)
	mux.HandleFunc("GET /docs/{id}/policies/{subject}", s.handleGetPolicy)
	mux.HandleFunc("GET /docs/{id}/view", s.handleView)
	mux.HandleFunc("GET /docs/{id}/manifest", s.handleManifest)
	mux.HandleFunc("GET /docs/{id}/blob", s.handleBlob)
	mux.HandleFunc("GET /docs/{id}/hashes", s.handleFragmentHashes)
	mux.HandleFunc("GET /docs/{id}/delta", s.handleDelta)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /metrics.prom", s.handleMetricsProm)
	mux.HandleFunc("GET /debug/trace", s.handleDebugTrace)
	mux.HandleFunc("GET /debug/costs", s.handleDebugCosts)
	if s.opts.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", httppprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", httppprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", httppprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", httppprof.Trace)
	}
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n")
	})
	return s.observe(mux)
}

// httpError writes a JSON error body with the right status.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// statusOf maps a failed mutation to its HTTP status; fallback covers the
// errors no sentinel names.
func statusOf(err error, fallback int) int {
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrRetired):
		return http.StatusConflict
	case errors.Is(err, errDurability):
		return http.StatusInternalServerError
	case errors.Is(err, xmlac.ErrInvalidEdit):
		return http.StatusUnprocessableEntity
	}
	return fallback
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *Server) handlePutDoc(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	body, err := io.ReadAll(io.LimitReader(r.Body, s.opts.MaxDocumentBytes+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	if int64(len(body)) > s.opts.MaxDocumentBytes {
		httpError(w, http.StatusRequestEntityTooLarge, "document exceeds %d bytes", s.opts.MaxDocumentBytes)
		return
	}
	scheme := s.opts.DefaultScheme
	if raw := r.URL.Query().Get("scheme"); raw != "" {
		scheme, err = xmlac.ParseScheme(raw)
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	passphrase := r.Header.Get("X-Xmlac-Passphrase")
	entry, err := s.RegisterDocument(id, string(body), passphrase, scheme)
	if err != nil {
		httpError(w, statusOf(err, http.StatusBadRequest), "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, entry.Info())
}

// errDurability marks a mutation that applied in memory but could not be
// written durably; handlers answer it with a 500 rather than a client error.
var errDurability = errors.New("server: durability failure")

// patchPayload is the JSON body of PATCH /docs/{id}.
type patchPayload struct {
	Edits []struct {
		Op   string `json:"op"`
		Path string `json:"path"`
		XML  string `json:"xml"`
		Text string `json:"text"`
	} `json:"edits"`
}

// handlePatchDoc applies subtree edits as the document's next version:
// chunk-granular re-encryption, a fresh per-version ETag and the step delta
// retained for remote chunk caches. The whole batch applies atomically or
// not at all; a PATCH that lost a race against a PUT or DELETE of the
// document applies nothing and answers 409.
func (s *Server) handlePatchDoc(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	entry, err := s.store.Entry(id)
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	var payload patchPayload
	if err := json.NewDecoder(io.LimitReader(r.Body, 8<<20)).Decode(&payload); err != nil {
		httpError(w, http.StatusBadRequest, "decoding edits JSON: %v", err)
		return
	}
	if len(payload.Edits) == 0 {
		httpError(w, http.StatusBadRequest, "PATCH body carries no edits")
		return
	}
	edits := make([]xmlac.Edit, len(payload.Edits))
	for i, e := range payload.Edits {
		edits[i] = xmlac.Edit{Op: xmlac.EditOp(e.Op), Path: e.Path, XML: e.XML, Text: e.Text}
	}
	release := s.persist.hold()
	version, delta, err := entry.Update(edits, func(delta *xmlac.UpdateDelta) error {
		if err := s.persist.logPatch(entry, delta); err != nil {
			return fmt.Errorf("persisting update: %w", err)
		}
		return nil
	})
	release()
	if err != nil {
		s.updates.record(nil)
		httpError(w, statusOf(err, http.StatusInternalServerError), "%v", err)
		return
	}
	s.updates.record(delta)
	_, etag := entry.Blob()
	w.Header().Set("ETag", etag)
	writeJSON(w, http.StatusOK, map[string]any{
		"document": id,
		"version":  version,
		"delta":    delta,
	})
}

// handleDelta serves the merged binary update delta from ?from=V to the
// current version: what a remote chunk cache needs to evict only changed
// chunks. 204 when the client is already current, 410 when V fell out of
// the retained history (full re-sync required).
func (s *Server) handleDelta(w http.ResponseWriter, r *http.Request) {
	entry, err := s.store.Entry(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, "missing or invalid %q query parameter", "from")
		return
	}
	delta, current, err := entry.DeltaSince(from)
	h := w.Header()
	h.Set("X-Xmlac-Version", strconv.FormatUint(current, 10))
	if err != nil {
		if errors.Is(err, ErrDeltaUnavailable) {
			httpError(w, http.StatusGone, "%v", err)
			return
		}
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if delta == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	_, etag := entry.Blob()
	h.Set("ETag", etag)
	h.Set("Content-Type", "application/octet-stream")
	s.updates.deltasServed.Add(1)
	w.WriteHeader(http.StatusOK)
	w.Write(delta.Marshal())
}

func (s *Server) handleListDocs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"documents": s.store.List()})
}

func (s *Server) handleGetDoc(w http.ResponseWriter, r *http.Request) {
	entry, err := s.store.Entry(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	info := entry.Info()
	writeJSON(w, http.StatusOK, map[string]any{
		"document": info,
		"subjects": entry.Subjects(),
	})
}

func (s *Server) handleDeleteDoc(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	defer s.persist.hold()()
	err := s.store.Remove(id, func() error {
		s.ledger.dropDocument(id)
		if err := s.persist.logDelete(id); err != nil {
			return fmt.Errorf("persisting delete: %w", err)
		}
		return nil
	})
	if err != nil {
		httpError(w, statusOf(err, http.StatusInternalServerError), "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// policyPayload is the JSON body of PUT /docs/{id}/policies/{subject}.
type policyPayload struct {
	Rules []struct {
		ID     string `json:"id"`
		Sign   string `json:"sign"`
		Object string `json:"object"`
	} `json:"rules"`
}

func (s *Server) handlePutPolicy(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	subject := r.PathValue("subject")
	var payload policyPayload
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&payload); err != nil {
		httpError(w, http.StatusBadRequest, "decoding policy JSON: %v", err)
		return
	}
	policy := xmlac.Policy{Subject: subject}
	for _, rule := range payload.Rules {
		policy.Rules = append(policy.Rules, xmlac.Rule{ID: rule.ID, Sign: rule.Sign, Object: rule.Object})
	}
	// A policy that does not compile is the client's error.
	hash, err := s.InstallPolicy(id, subject, policy)
	if err != nil {
		httpError(w, statusOf(err, http.StatusBadRequest), "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{
		"document": id,
		"subject":  subject,
		"rules":    len(policy.Rules),
		"hash":     hash,
	})
}

func (s *Server) handleGetPolicy(w http.ResponseWriter, r *http.Request) {
	entry, err := s.store.Entry(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	subject := r.PathValue("subject")
	rec, err := entry.PolicyFor(subject)
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	rules := make([]map[string]string, 0, len(rec.Policy.Rules))
	for _, rule := range rec.Policy.Rules {
		rules = append(rules, map[string]string{"id": rule.ID, "sign": rule.Sign, "object": rule.Object})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"document":   entry.ID,
		"subject":    subject,
		"hash":       rec.Hash,
		"updated_at": rec.UpdatedAt,
		"rules":      rules,
	})
}

// viewFlushThreshold is how many body bytes may accumulate before the
// response is flushed onto the wire mid-stream.
const viewFlushThreshold = 16 << 10

// Trailer names carrying the evaluation metrics of GET /view responses. The
// view is streamed straight out of the evaluator, so the counters do not
// exist yet when the headers go out; they travel as HTTP trailers instead.
const (
	trailerBytesTransferred = "X-Xmlac-Bytes-Transferred"
	trailerBytesSkipped     = "X-Xmlac-Bytes-Skipped"
	trailerNodesPermitted   = "X-Xmlac-Nodes-Permitted"
	trailerTTFBMicros       = "X-Xmlac-Ttfb-Micros"
)

// viewWriter adapts the http.ResponseWriter for streaming delivery: it stops
// accepting bytes once the request context is done (a disconnected or
// timed-out client aborts the evaluation mid-document), flushes the first
// write immediately (committing the 200 and putting the first byte on the
// wire) and then every viewFlushThreshold bytes. The status line is NOT
// written until the first authorized byte arrives, so an evaluation that
// fails before producing any output can still be answered with a clean
// error status.
type viewWriter struct {
	ctx       context.Context
	w         http.ResponseWriter
	flusher   http.Flusher
	unflushed int
	written   int64
}

func (vw *viewWriter) Write(p []byte) (int, error) {
	if err := vw.ctx.Err(); err != nil {
		return 0, err
	}
	first := vw.written == 0
	n, err := vw.w.Write(p)
	vw.written += int64(n)
	vw.unflushed += n
	if err == nil && vw.flusher != nil && (first || vw.unflushed >= viewFlushThreshold) {
		vw.flusher.Flush()
		vw.unflushed = 0
	}
	return n, err
}

// viewParallelism resolves the effective ViewOptions.Parallelism of one
// request: the server-wide Options.ViewParallelism is the default and the
// cap, and a well-formed ?parallel=N may only lower it (N<=1 selects the
// serial scan). Malformed values fall back to the server default rather than
// erroring — parallelism is an execution strategy, never a semantics change,
// so it does not merit a 400.
func (s *Server) viewParallelism(param string) int {
	p := s.opts.ViewParallelism
	if param == "" {
		return p
	}
	if n, err := strconv.Atoi(param); err == nil && n >= 0 && n < p {
		return n
	}
	return p
}

func (s *Server) handleView(w http.ResponseWriter, r *http.Request) {
	entry, err := s.store.Entry(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	q := r.URL.Query()
	subject := q.Get("subject")
	if subject == "" {
		httpError(w, http.StatusBadRequest, "missing required query parameter %q", "subject")
		return
	}
	rec, err := entry.PolicyFor(subject)
	if err != nil {
		httpError(w, http.StatusForbidden, "%v", err)
		return
	}
	opts := xmlac.ViewOptions{
		Query:            q.Get("query"),
		DummyDeniedNames: q.Get("dummy") == "1" || q.Get("dummy") == "true",
		Indent:           q.Get("indent") == "1" || q.Get("indent") == "true",
		Parallelism:      s.viewParallelism(q.Get("parallel")),
		// Evaluations record into the server's span ring under the request's
		// trace ID, so /debug/trace spans correlate with access-log lines.
		Trace:   s.trace,
		TraceID: requestID(r.Context()),
	}
	if opts.Query != "" {
		// Reject bad queries with a 400 before the scan starts.
		if err := xmlac.ValidateXPath(opts.Query); err != nil {
			httpError(w, http.StatusBadRequest, "invalid query: %v", err)
			return
		}
	}

	// The view is streamed from the evaluator into the chunked response as
	// it is produced: the server never materializes the XML (nor a document
	// tree), so a thousand concurrent views cost a thousand evaluator
	// working sets, not a thousand DOM trees. The price of streaming is that
	// the first authorized byte commits the 200; a failure after that can
	// only abort the connection (the missing declared trailers let the
	// client detect the truncation), and the metric counters travel as
	// trailers since they are not known when the headers go out.
	h := w.Header()
	h.Set("Content-Type", "application/xml; charset=utf-8")
	h.Set("X-Xmlac-Subject", subject)
	h.Set("X-Xmlac-Policy-Hash", rec.Hash)
	h.Set("Trailer", strings.Join([]string{
		trailerBytesTransferred, trailerBytesSkipped, trailerNodesPermitted, trailerTTFBMicros,
	}, ", "))
	flusher, _ := w.(http.Flusher)
	vw := &viewWriter{ctx: r.Context(), w: w, flusher: flusher}
	// The policy was compiled when it was installed: the view is one scan of
	// the entry with it.
	metrics, err := entry.StreamView(rec.Compiled, opts, vw)
	// The body is complete (or abandoned): fold the view into the ledger
	// once, before the handler returns and the client sees the end of the
	// response. Wire bytes are the HTTP body bytes this request put on the
	// wire.
	s.ledger.recordView(viewOutcome{doc: entry.ID, subject: subject, policy: rec.Hash,
		wireBytes: vw.written, metrics: metrics, err: err})
	if err != nil {
		if vw.written == 0 {
			// Nothing was committed yet (reader setup failed, integrity
			// check rejected the document, client canceled before the first
			// byte): a clean error status is still possible.
			h.Del("Trailer")
			h.Del("Content-Type")
			httpError(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	if vw.written == 0 {
		w.WriteHeader(http.StatusOK)
	}
	// The headers are committed (first body byte or the line above), so
	// these land in the trailer section.
	h.Set(trailerBytesTransferred, strconv.FormatInt(metrics.BytesTransferred, 10))
	h.Set(trailerBytesSkipped, strconv.FormatInt(metrics.BytesSkipped, 10))
	h.Set(trailerNodesPermitted, strconv.FormatInt(metrics.NodesPermitted, 10))
	h.Set(trailerTTFBMicros, strconv.FormatInt(metrics.TimeToFirstByte.Microseconds(), 10))
	if flusher != nil {
		flusher.Flush()
	}
	// An empty authorized view is a legitimate outcome of the closed policy:
	// the body is empty and the metrics still reach the client.
}

// handleManifest publishes the document layout a remote SOE needs before it
// can issue range requests: scheme, chunking, sizes, the ciphertext offset
// inside the blob and the blob's entity tag.
func (s *Server) handleManifest(w http.ResponseWriter, r *http.Request) {
	entry, err := s.store.Entry(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	_, etag := entry.Blob()
	w.Header().Set("ETag", etag)
	writeJSON(w, http.StatusOK, map[string]any{
		"document": entry.ID,
		"etag":     etag,
		"manifest": entry.Manifest(),
	})
}

// handleBlob range-serves the encrypted container. http.ServeContent
// provides single- and multi-range responses (206 / multipart/byteranges),
// If-None-Match revalidation (304 against the ETag set below) and If-Range
// guards, so a remote chunk cache revalidates for free. The per-version ETag
// is the only validator: HTTP dates have one-second resolution and several
// PATCHes can land within a second, so a modification date would let
// If-Modified-Since or a date If-Range serve stale or torn bytes. The zero
// time sends no Last-Modified and makes ServeContent ignore both date
// preconditions.
func (s *Server) handleBlob(w http.ResponseWriter, r *http.Request) {
	entry, err := s.store.Entry(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	blob, etag := entry.Blob()
	w.Header().Set("ETag", etag)
	w.Header().Set("Content-Type", "application/octet-stream")
	http.ServeContent(w, r, "", time.Time{}, bytes.NewReader(blob))
}

// handleFragmentHashes serves the ciphertext fragment hashes of one chunk
// (?chunk=N) as DigestSize-byte records: the untrusted-terminal half of the
// ECB-MHT Merkle protocol. The hashes are over public ciphertext; the SOE
// verifies them against the decrypted chunk digest.
func (s *Server) handleFragmentHashes(w http.ResponseWriter, r *http.Request) {
	entry, err := s.store.Entry(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	chunk, err := strconv.Atoi(r.URL.Query().Get("chunk"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "missing or invalid %q query parameter", "chunk")
		return
	}
	hashes, err := entry.FragmentHashes(chunk)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	_, etag := entry.Blob()
	h := w.Header()
	h.Set("ETag", etag)
	h.Set("Content-Type", "application/octet-stream")
	h.Set("X-Xmlac-Fragment-Count", strconv.Itoa(len(hashes)))
	w.WriteHeader(http.StatusOK)
	for _, hash := range hashes {
		if _, err := w.Write(hash); err != nil {
			return // client went away
		}
	}
}

// buildInfoSummary condenses runtime/debug.ReadBuildInfo for GET /metrics:
// module path, main-module version and the VCS stamps go 1.22 embeds.
func buildInfoSummary() map[string]string {
	out := map[string]string{}
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return out
	}
	out["path"] = info.Path
	if info.Main.Version != "" {
		out["version"] = info.Main.Version
	}
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision", "vcs.time", "vcs.modified", "GOOS", "GOARCH":
			out[s.Key] = s.Value
		}
	}
	return out
}

// snapshot reads every exported counter at once: the ledger's state plus the
// gauges of the store and the storage engine. k ranks the cost buckets (<= 0
// selects defaultCostTopK).
func (s *Server) snapshot(k int) *metricsSnapshot {
	snap := s.ledger.snapshot(k)
	snap.Requests = s.requests.Load()
	snap.Updates = s.updates.load()
	snap.UptimeSeconds = time.Since(s.started).Seconds()
	snap.GoVersion = runtime.Version()
	snap.Build = buildInfoSummary()
	snap.Documents = s.store.Len()
	if s.persist != nil {
		snap.Storage.Enabled = true
		snap.Storage.Stats = s.persist.engine.Stats()
	}
	return snap
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.snapshot(defaultCostTopK))
}

// handleDebugCosts serves the ranked cost accounting as JSON: the top ?k=
// (subject, policy fingerprint) buckets by views (default 20, capped at 200)
// plus an "other" rollup of everything beyond the rank cutoff or the
// ledger's key cap.
func (s *Server) handleDebugCosts(w http.ResponseWriter, r *http.Request) {
	k := defaultCostTopK
	if raw := r.URL.Query().Get("k"); raw != "" {
		parsed, err := strconv.Atoi(raw)
		if err != nil || parsed <= 0 {
			httpError(w, http.StatusBadRequest, "invalid %q query parameter: %q", "k", raw)
			return
		}
		k = min(parsed, maxCostTopK)
	}
	writeJSON(w, http.StatusOK, s.snapshot(k).Costs)
}
