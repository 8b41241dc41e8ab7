// Package server is the paper's untrusted store: a concurrency-safe store of
// protected documents, the HTTP handler set served by cmd/xmlac-serve and
// one ledger of store counters.
//
// The server holds only protected containers. It range-serves each
// container and its ECB-MHT leaf table under a per-version ETag, publishes
// its manifest, and logs every mutation durably when Options.DataDir is
// set. It keeps no update history: a remote chunk cache learns which chunks
// changed by comparing the encrypted digest tables of two versions. It
// never evaluates a policy: every view runs in a client SOE
// (xmlac.OpenRemote), which pulls only the ciphertext its policy needs.
//
// One trusted-mode exception remains: the plaintext write path. PUT
// /docs/{id} takes XML and a passphrase, and PATCH takes plaintext edits;
// the server derives the key and protects or re-encrypts the document
// itself, and the registration record logs the passphrase so recovery can
// derive the key again.
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
	"sync/atomic"
	"time"

	"xmlac"
	"xmlac/internal/storage"
)

// maxDocumentBytes bounds the accepted XML body of PUT /docs/{id}.
const maxDocumentBytes = 64 << 20

// Options tunes a Server.
type Options struct {
	// DefaultScheme protects documents registered without an explicit
	// scheme; empty selects SchemeECBMHT (the paper's scheme).
	DefaultScheme xmlac.Scheme

	// DataDir enables the durable storage engine rooted at this directory:
	// every registration, PATCH and delete is written ahead to a fsynced
	// log before the request is acknowledged, and Open recovers the full
	// store (documents, versions, ETags) by replaying the log: its
	// snapshot prefix, then its tail. Empty keeps the store in-memory (the
	// default, and what tests use). Requires the Open constructor.
	DataDir string

	// Logger receives the structured access log (one line per request with
	// the trace ID) and lifecycle events. nil discards everything — quiet by
	// default for embedding and tests; cmd/xmlac-serve wires a real handler.
	Logger *slog.Logger
	// EnablePprof exposes net/http/pprof under /debug/pprof/. Off by
	// default: the profiles reveal internals that do not belong on an
	// unauthenticated surface.
	EnablePprof bool
	// TraceBufferSize bounds the span ring behind /debug/trace (0 selects
	// the xmlac.NewTrace default of a few hundred spans). A negative size
	// turns off the request spans entirely: /debug/trace answers 404.
	TraceBufferSize int

	// clock overrides the wall clock for store timestamps and access-log
	// timing; tests inject a fake to drive time deterministically. nil
	// selects the real clock.
	clock clock
	// checkpointWALBytes is the size of the log tail (the bytes appended
	// since the last checkpoint) that triggers a checkpoint: the log is
	// rewritten as a snapshot of the store and atomically renamed into
	// place. Tests shrink it to force checkpoints; <= 0 selects
	// defaultCheckpointWALBytes.
	checkpointWALBytes int64
}

// Server is the untrusted document store behind the HTTP surface: protected
// documents live in the Store, and the counters it exports in the request
// and update tallies. Every method on the HTTP surface is safe for
// arbitrary concurrency.
type Server struct {
	store    *Store
	requests atomic.Int64
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
	if opts.checkpointWALBytes <= 0 {
		opts.checkpointWALBytes = defaultCheckpointWALBytes
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
		opts:    opts,
		started: time.Now(),
		logger:  logger,
	}
	if opts.TraceBufferSize >= 0 {
		s.trace = xmlac.NewTrace(opts.TraceBufferSize)
	}
	if opts.DataDir != "" {
		eng, err := storage.Open(opts.DataDir)
		if err != nil {
			return nil, err
		}
		s.persist = &persister{engine: eng, store: s.store, logger: logger, threshold: opts.checkpointWALBytes}
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
// server pipeline: store install and the durable registration record when
// persistence is enabled. An empty scheme selects the server default.
// PUT /docs/{id} and the demo preload go through here so both are durable.
func (s *Server) RegisterDocument(id, xmlText, passphrase string, scheme xmlac.Scheme) (*DocumentEntry, error) {
	if scheme == "" {
		scheme = s.opts.DefaultScheme
	}
	defer s.persist.hold()()
	return s.store.registerXML(id, xmlText, passphrase, scheme, func(entry *DocumentEntry) error {
		if err := s.persist.logRegister(entry); err != nil {
			return fmt.Errorf("%w: registration of %q: %w", errDurability, id, err)
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
//	GET    /docs/{id}/manifest             public layout (scheme, chunking, sizes, version)
//	GET    /docs/{id}/blob                 encrypted container (Range, per-version ETag)
//	GET    /docs/{id}/hashes               fragment leaf table (Range, ECB-MHT)
//	GET    /metrics                        every counter, as JSON
//	GET    /metrics.prom                   the same snapshot, Prometheus text format
//	GET    /debug/trace                    retained request spans, as JSONL
//	GET    /healthz                        liveness; 503 once storage has failed
//
// The manifest, blob and hashes routes are what a remote SOE
// (xmlac.OpenRemote) reads: it pulls ciphertext ranges, digests and runs
// of Merkle leaf records and evaluates the policy on the client, so skipped
// bytes never cross the wire.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("PUT /docs/{id}", s.handlePutDoc)
	mux.HandleFunc("PATCH /docs/{id}", s.handlePatchDoc)
	mux.HandleFunc("GET /docs", s.handleListDocs)
	mux.HandleFunc("GET /docs/{id}", s.handleGetDoc)
	mux.HandleFunc("DELETE /docs/{id}", s.handleDeleteDoc)
	mux.HandleFunc("GET /docs/{id}/manifest", s.handleManifest)
	mux.HandleFunc("GET /docs/{id}/blob", s.handleBlob)
	mux.HandleFunc("GET /docs/{id}/hashes", s.handleFragmentHashes)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /metrics.prom", s.handleMetricsProm)
	mux.HandleFunc("GET /debug/trace", s.handleDebugTrace)
	if s.opts.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", httppprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", httppprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", httppprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", httppprof.Trace)
	}
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s.observe(mux)
}

// handleHealthz answers 200 while the store takes writes, and 503 with the
// storage engine's error once an I/O error has poisoned it: from then on
// every write answers 500 until a restart reopens the log.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.persist != nil {
		if err := s.persist.engine.Err(); err != nil {
			httpError(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
	}
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ok\n")
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
	body, err := io.ReadAll(io.LimitReader(r.Body, maxDocumentBytes+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	if len(body) > maxDocumentBytes {
		httpError(w, http.StatusRequestEntityTooLarge, "document exceeds %d bytes", maxDocumentBytes)
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
// chunk-granular re-encryption and a fresh per-version ETag; the reply
// carries the step delta. The whole batch applies atomically or not at all;
// a PATCH that lost a race against a PUT or DELETE of the document applies
// nothing and answers 409.
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

func (s *Server) handleListDocs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"documents": s.store.List()})
}

func (s *Server) handleGetDoc(w http.ResponseWriter, r *http.Request) {
	entry, err := s.store.Entry(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"document": entry.Info()})
}

func (s *Server) handleDeleteDoc(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	defer s.persist.hold()()
	err := s.store.Remove(id, func() error {
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

// handleManifest publishes the document layout a remote SOE needs before it
// can issue range requests: scheme, chunking, sizes, the ciphertext offset
// inside the blob and the blob's entity tag, all of one version.
func (s *Server) handleManifest(w http.ResponseWriter, r *http.Request) {
	entry, err := s.store.Entry(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	sf := entry.current()
	w.Header().Set("ETag", sf.etag)
	writeJSON(w, http.StatusOK, map[string]any{
		"document": entry.ID,
		"etag":     sf.etag,
		"manifest": sf.manifest,
	})
}

// handleBlob range-serves the encrypted container. http.ServeContent
// provides single- and multi-range responses (206 / multipart/byteranges),
// If-Match and If-None-Match preconditions (412 and 304 against the ETag set
// below) and If-Range guards, so a remote chunk cache revalidates for free.
// A remote client (internal/remote) sends one range per request under
// If-Match, answered 206 or, once the document moved on, 412, and probes
// with If-None-Match on a 1-byte range to revalidate. The per-version ETag
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

// handleFragmentHashes range-serves the current version's leaf table, as
// handleBlob serves its container: the SHA-1 of every ciphertext fragment
// as DigestSize-byte records, chunk after chunk, under the entity tag of
// the version they hash. It is the untrusted-terminal half of the ECB-MHT
// Merkle protocol: a client fetches the records of a run of chunks in one
// range request and the SOE verifies them against the decrypted chunk
// digest. http.ServeContent answers a stale If-Match with 412 and a range
// past the table with 416. Only ECB-MHT documents have a table; the others
// answer 400.
func (s *Server) handleFragmentHashes(w http.ResponseWriter, r *http.Request) {
	entry, err := s.store.Entry(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	sf := entry.current()
	if sf.leaves == nil {
		httpError(w, http.StatusBadRequest, "a %s document has no fragment leaf table", sf.manifest.Scheme)
		return
	}
	w.Header().Set("ETag", sf.etag)
	w.Header().Set("Content-Type", "application/octet-stream")
	http.ServeContent(w, r, "", time.Time{}, bytes.NewReader(sf.leaves))
}
