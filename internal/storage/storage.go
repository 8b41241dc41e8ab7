// Package storage is the durable half of the untrusted store: a write-ahead
// log of opaque mutation records plus a page-backed checkpoint read through
// an LRU page cache. The paper's server is a dumb, durable blob host — this
// package supplies the durable part without ever interpreting a payload
// (containers, deltas and policies pass through as bytes; keys never enter).
//
// Durability contract:
//
//   - Append returns only after an fsync covers the record (group commit:
//     concurrent appenders share one fsync).
//   - Recovery replays the WAL prefix up to the first torn or corrupt frame
//     and truncates the rest; an acknowledged append is always in the prefix.
//   - Checkpoint atomically replaces the page file (write tmp, fsync, rename,
//     fsync dir) and only then truncates the WAL, so a crash anywhere leaves
//     either the old state or the new.
package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"syscall"
)

// Options tunes an engine. The zero value is usable: default page size and
// cache, fsync on every commit.
type Options struct {
	// PageSize is the checkpoint page granularity (DefaultPageSize when 0).
	PageSize int
	// CachePages bounds the LRU page cache (DefaultCachePages when 0).
	CachePages int
	// NoSync skips fsyncs (for benchmarks measuring the fsync cost, never
	// for production use: it voids the durability contract).
	NoSync bool
}

// Stats is a snapshot of the engine's counters, surfaced on /metrics and
// /metrics.prom so cache and log behaviour is tuning input rather than a
// black box.
type Stats struct {
	WALRecords       int64 `json:"wal_records"`        // records in the live log
	WALBytes         int64 `json:"wal_bytes"`          // live log size in bytes
	WALAppends       int64 `json:"wal_appends"`        // appends since open
	Fsyncs           int64 `json:"fsyncs"`             // fsyncs issued since open
	GroupCommits     int64 `json:"group_commits"`      // appends that piggybacked on another fsync
	Checkpoints      int64 `json:"checkpoints"`        // checkpoints taken since open
	TailBytesDropped int64 `json:"tail_bytes_dropped"` // torn-tail bytes truncated during recovery
	PageCacheHits    int64 `json:"page_cache_hits"`
	PageCacheMisses  int64 `json:"page_cache_misses"`
	PageCacheEvicts  int64 `json:"page_cache_evictions"`
}

// Engine is one open data directory: LOCK file, checkpoint.db, wal.log.
type Engine struct {
	dir   string
	opts  Options
	lock  *os.File
	cache *pageCache

	wal *wal

	// mu guards the checkpoint swap (pages + recovered state).
	mu          sync.Mutex
	pages       *pageFile
	gen         uint64
	checkpoints int64

	recoveredDocs []CheckpointDoc
	recoveredWAL  []Record
	tailDropped   int64
}

// Open acquires the data directory (creating it if needed), loads the
// checkpoint, scans the WAL and truncates any torn tail. The recovered state
// is available through CheckpointDocs/ReadBlob/WALRecords until the next
// Checkpoint. A second concurrent Open of the same directory fails: the lock
// is an OS advisory lock, released automatically if the process dies.
func Open(dir string, opts Options) (*Engine, error) {
	if opts.PageSize <= 0 {
		opts.PageSize = DefaultPageSize
	}
	if opts.CachePages <= 0 {
		opts.CachePages = DefaultCachePages
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	lock, err := os.OpenFile(filepath.Join(dir, "LOCK"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(lock.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		lock.Close()
		return nil, fmt.Errorf("storage: data directory %s is locked by another process: %w", dir, err)
	}
	// The pid in the lock file is diagnostic only; the flock is the lock.
	lock.Truncate(0)
	fmt.Fprintf(lock, "%d\n", os.Getpid())

	cache := newPageCache(opts.CachePages)
	pages, docs, err := openCheckpoint(filepath.Join(dir, checkpointName), cache)
	if err != nil {
		lock.Close()
		return nil, err
	}
	w, recs, dropped, err := openWAL(filepath.Join(dir, "wal.log"), opts.NoSync)
	if err != nil {
		if pages != nil {
			pages.f.Close()
		}
		lock.Close()
		return nil, err
	}
	e := &Engine{
		dir:           dir,
		opts:          opts,
		lock:          lock,
		cache:         cache,
		wal:           w,
		pages:         pages,
		recoveredDocs: docs,
		tailDropped:   dropped,
	}
	if pages != nil {
		e.gen = pages.gen
	}
	e.recoveredWAL = make([]Record, len(recs))
	for i, r := range recs {
		e.recoveredWAL[i] = r.Record
	}
	return e, nil
}

// CheckpointDocs returns the documents recovered from the checkpoint at Open
// (directory order, blobs still on disk — fetch them with ReadBlob).
func (e *Engine) CheckpointDocs() []CheckpointDoc {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.recoveredDocs
}

// ReadBlob reads one recovered document's container bytes through the page
// cache.
func (e *Engine) ReadBlob(d CheckpointDoc) ([]byte, error) {
	e.mu.Lock()
	pages := e.pages
	e.mu.Unlock()
	if pages == nil {
		return nil, fmt.Errorf("storage: no checkpoint to read %q from", d.Doc)
	}
	return pages.readRun(d.firstPage, d.blobLen)
}

// WALRecords returns the durable log records recovered at Open, in append
// order; the server replays them on top of the checkpoint.
func (e *Engine) WALRecords() []Record {
	return e.recoveredWAL
}

// Append logs one record durably. On return the record has been fsynced
// (unless NoSync) and will survive a crash.
func (e *Engine) Append(rec Record) error {
	return e.wal.append(rec)
}

// Checkpoint writes the full store state as a new page file generation,
// atomically installs it and truncates the WAL. docs must be the complete
// state: recovery after this point starts from exactly these snapshots.
func (e *Engine) Checkpoint(docs []DocSnapshot) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	gen := e.gen + 1
	tmp := filepath.Join(e.dir, "checkpoint.tmp")
	if err := writeCheckpoint(tmp, gen, e.opts.PageSize, docs); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := replaceCheckpoint(e.dir, tmp); err != nil {
		os.Remove(tmp)
		return err
	}
	f, err := os.Open(filepath.Join(e.dir, checkpointName))
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	// From here the new checkpoint is the durable truth; compact the log.
	// (A crash before reset replays WAL records the checkpoint already
	// contains — version-aware replay on the server side skips them.)
	if err := e.wal.reset(); err != nil {
		f.Close()
		return err
	}
	if e.pages != nil {
		e.pages.f.Close()
	}
	dirPages := pagesFor(checkpointDirBytes(docs), e.opts.PageSize)
	e.pages = &pageFile{
		f:        f,
		gen:      gen,
		pageSize: e.opts.PageSize,
		dataOff:  dirPages * int64(e.opts.PageSize),
		numPages: pagesFor(st.Size(), e.opts.PageSize) - dirPages,
		cache:    e.cache,
	}
	e.gen = gen
	e.checkpoints++
	// Recovery state from Open is superseded; rebuild the directory view so
	// ReadBlob keeps working against the new generation.
	e.recoveredDocs = e.recoveredDocs[:0]
	nextPage := int64(0)
	for _, d := range docs {
		e.recoveredDocs = append(e.recoveredDocs, CheckpointDoc{
			Doc:       d.Doc,
			Meta:      append([]byte(nil), d.Meta...),
			blobLen:   int64(len(d.Blob)),
			firstPage: nextPage,
		})
		nextPage += pagesFor(int64(len(d.Blob)), e.opts.PageSize)
	}
	e.recoveredWAL = nil
	return nil
}

// checkpointDirBytes is dirSize for the write-side snapshot type.
func checkpointDirBytes(docs []DocSnapshot) int64 {
	n := int64(len(checkpointMagic) + 4 + 8 + 4)
	for _, d := range docs {
		n += 2 + int64(len(d.Doc)) + 4 + int64(len(d.Meta)) + 8 + 8
	}
	return n + 4
}

// WALSize returns the live log's byte size (the server's checkpoint trigger
// watches this).
func (e *Engine) WALSize() int64 {
	return e.wal.walSize()
}

// Stats snapshots the engine counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	checkpoints := e.checkpoints
	dropped := e.tailDropped
	e.mu.Unlock()
	return Stats{
		WALRecords:       e.wal.records.Load(),
		WALBytes:         e.wal.bytes.Load(),
		WALAppends:       e.wal.appends.Load(),
		Fsyncs:           e.wal.fsyncs.Load(),
		GroupCommits:     e.wal.piggyback.Load(),
		Checkpoints:      checkpoints,
		TailBytesDropped: dropped,
		PageCacheHits:    e.cache.hits.Load(),
		PageCacheMisses:  e.cache.misses.Load(),
		PageCacheEvicts:  e.cache.evictions.Load(),
	}
}

// Close releases the WAL, page file and directory lock. The engine is not
// usable afterwards.
func (e *Engine) Close() error {
	err := e.wal.close()
	e.mu.Lock()
	if e.pages != nil {
		e.pages.f.Close()
		e.pages = nil
	}
	e.mu.Unlock()
	if e.lock != nil {
		// Closing the descriptor drops the flock.
		e.lock.Close()
		e.lock = nil
	}
	return err
}
