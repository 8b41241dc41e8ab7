// Package storage is the durable half of the untrusted store: one log file
// of opaque mutation records whose prefix is the snapshot of the last
// checkpoint. The paper's server is a dumb, durable blob host — this package
// supplies the durable part without ever interpreting a payload (containers,
// deltas and policies pass through as bytes; keys never enter).
//
// A data directory holds LOCK and wal.log, plus wal.tmp while a checkpoint
// runs. Durability contract:
//
//   - Append returns only after an fsync covers the record (group commit:
//     concurrent appenders share one fsync).
//   - Recovery reads every snapshot frame, failing on any damage there, then
//     the tail up to the first torn or corrupt frame, and truncates the
//     rest; an acknowledged append is always in the prefix.
//   - Checkpoint writes the store's state as records into wal.tmp, fsyncs
//     it, renames it over wal.log and fsyncs the directory. The rename is
//     the one commit point: a crash leaves either the old log or the new
//     one, and Open removes a leftover wal.tmp.
//
// The log format is in wal.go.
package storage

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
)

// File names inside a data directory.
const (
	logName = "wal.log"
	tmpName = "wal.tmp"
	// oldCheckpointName is the page file of the earlier format; Open refuses
	// a directory holding one rather than ignore the state inside it.
	oldCheckpointName = "checkpoint.db"
)

// Options tunes an engine. The zero value fsyncs on every commit.
type Options struct {
	// NoSync skips fsyncs (for benchmarks measuring the fsync cost, never
	// for production use: it voids the durability contract).
	NoSync bool
}

// Stats is a snapshot of the engine's counters, surfaced on /metrics and
// /metrics.prom. The WAL figures count the tail appended since the last
// checkpoint, never the snapshot prefix.
type Stats struct {
	WALRecords       int64 `json:"wal_records"`        // records in the tail
	WALBytes         int64 `json:"wal_bytes"`          // tail size in bytes
	WALAppends       int64 `json:"wal_appends"`        // appends since open
	Fsyncs           int64 `json:"fsyncs"`             // fsyncs issued since open
	GroupCommits     int64 `json:"group_commits"`      // appends that piggybacked on another fsync
	Checkpoints      int64 `json:"checkpoints"`        // checkpoints taken since open
	TailBytesDropped int64 `json:"tail_bytes_dropped"` // torn-tail bytes truncated during recovery
}

// Engine is one open data directory.
type Engine struct {
	dir    string
	noSync bool
	lock   *os.File

	// mu serializes frame writes and checkpoints, and guards the file, its
	// offsets, the recovered records and the append-side counters.
	mu          sync.Mutex
	f           *os.File
	size        int64  // file size
	tailStart   int64  // offset of the first tail frame (0 before the header)
	appended    uint64 // frames written (not necessarily synced)
	records     int64  // frames in the tail
	appends     int64
	checkpoints int64
	recovered   []Record
	tailDropped int64

	fsyncs    atomic.Int64
	piggyback atomic.Int64

	// syncMu admits one group-commit leader at a time; synced is the highest
	// frame sequence covered by a completed fsync.
	syncMu sync.Mutex
	synced atomic.Uint64
}

// Open acquires the data directory (creating it if needed), scans the log
// and truncates any torn tail; WALRecords hands over the recovered records.
// A second concurrent Open of the same directory fails: the lock is an OS
// advisory lock, released automatically if the process dies.
func Open(dir string, opts Options) (*Engine, error) {
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

	e := &Engine{dir: dir, noSync: opts.NoSync, lock: lock}
	if err := e.recover(); err != nil {
		lock.Close()
		return nil, err
	}
	return e, nil
}

// recover opens wal.log, reads its records and truncates its torn tail.
func (e *Engine) recover() error {
	old := filepath.Join(e.dir, oldCheckpointName)
	if _, err := os.Lstat(old); err == nil {
		return fmt.Errorf("storage: %s is a page-file checkpoint of an earlier format; this engine keeps all state in %s and cannot read it", old, logName)
	}
	// A leftover wal.tmp is a checkpoint that never reached its rename:
	// wal.log is still the whole truth.
	if err := os.Remove(filepath.Join(e.dir, tmpName)); err != nil && !os.IsNotExist(err) {
		return err
	}
	path := filepath.Join(e.dir, logName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err == nil {
		err = e.load(f, size)
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("storage: %s: %w", path, err)
	}
	return nil
}

// load installs the scanned log f as the engine's file.
func (e *Engine) load(f *os.File, size int64) error {
	s, err := scanLog(f, size)
	if err != nil {
		return err
	}
	if dropped := size - s.good; dropped > 0 {
		if err := f.Truncate(s.good); err != nil {
			return fmt.Errorf("truncating torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			return err
		}
		e.tailDropped = dropped
	}
	if _, err := f.Seek(s.good, io.SeekStart); err != nil {
		return err
	}
	e.f, e.size, e.tailStart = f, s.good, s.snapEnd
	e.appended = uint64(len(s.recs))
	e.synced.Store(e.appended)
	e.recovered = make([]Record, len(s.recs))
	for i, r := range s.recs {
		e.recovered[i] = r.Record
		if !r.Snapshot {
			e.records++
		}
	}
	return nil
}

// WALRecords hands over the records recovered at Open: the snapshot's, then
// the tail's, in log order. The server replays them all through one loop.
// The engine drops its reference, so the recovered containers live only as
// long as the caller keeps them, and a second call returns nil.
func (e *Engine) WALRecords() []Record {
	e.mu.Lock()
	defer e.mu.Unlock()
	recs := e.recovered
	e.recovered = nil
	return recs
}

// errClosed reaches appenders racing a Close.
var errClosed = errors.New("storage: engine is closed")

// Append logs one record durably. It frames the record into the tail and
// waits until a completed fsync covers it (group commit: the fsync is
// usually someone else's). On return the record has been fsynced (unless
// NoSync) and will survive a crash.
func (e *Engine) Append(rec Record) error {
	frame, err := encodeFrame(rec)
	if err != nil {
		return err
	}
	e.mu.Lock()
	if e.f == nil {
		e.mu.Unlock()
		return errClosed
	}
	if e.size == 0 {
		if _, err := e.f.Write(logHeader(0)); err != nil {
			e.mu.Unlock()
			return err
		}
		e.size, e.tailStart = headerSize, headerSize
	}
	if _, err := e.f.Write(frame); err != nil {
		// A torn frame write is exactly what recovery truncates; leave the
		// tail to the next open rather than trying to repair in place.
		e.mu.Unlock()
		return err
	}
	e.size += int64(len(frame))
	e.appended++
	seq := e.appended
	e.records++
	e.appends++
	e.mu.Unlock()
	return e.syncTo(seq)
}

// syncTo blocks until an fsync covering frame sequence seq has completed.
// The first caller into the sync section becomes the group leader: it syncs
// once for everything appended so far, and every waiter whose frame that
// fsync covered returns without issuing its own.
func (e *Engine) syncTo(seq uint64) error {
	if e.noSync {
		return nil
	}
	if e.synced.Load() >= seq {
		e.piggyback.Add(1)
		return nil
	}
	e.syncMu.Lock()
	defer e.syncMu.Unlock()
	if e.synced.Load() >= seq {
		// A leader that ran while this goroutine waited covered the frame.
		e.piggyback.Add(1)
		return nil
	}
	e.mu.Lock()
	f, cover := e.f, e.appended
	e.mu.Unlock()
	if f == nil {
		return errClosed
	}
	if err := f.Sync(); err != nil {
		return err
	}
	e.fsyncs.Add(1)
	e.synced.Store(cover)
	return nil
}

// Checkpoint rewrites the log with recs as its snapshot and an empty tail.
// recs must be the complete state, and no Append may run concurrently:
// recovery after this point starts from exactly these records. The new log
// is written to wal.tmp and fsynced, then renamed over wal.log; appends
// continue on the new file.
func (e *Engine) Checkpoint(recs []Record) error {
	e.syncMu.Lock()
	defer e.syncMu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.f == nil {
		return errClosed
	}
	tmp := filepath.Join(e.dir, tmpName)
	f, size, err := writeSnapshot(tmp, recs, e.noSync)
	if err == nil {
		err = os.Rename(tmp, filepath.Join(e.dir, logName))
		if err != nil {
			f.Close()
		}
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	// The rename committed the checkpoint and unlinked the old log, so
	// appends move to the new file whatever happens next.
	e.f.Close()
	e.f, e.size, e.tailStart = f, size, size
	e.synced.Store(e.appended)
	e.records = 0
	e.checkpoints++
	if e.noSync {
		return nil
	}
	e.fsyncs.Add(2) // wal.tmp's, in writeSnapshot, and the directory's
	return syncDir(e.dir)
}

// syncDir fsyncs a directory so a rename inside it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// WALSize returns the byte size of the tail appended since the last
// checkpoint (the server's checkpoint trigger watches this).
func (e *Engine) WALSize() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.size - e.tailStart
}

// Stats snapshots the engine counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return Stats{
		WALRecords:       e.records,
		WALBytes:         e.size - e.tailStart,
		WALAppends:       e.appends,
		Fsyncs:           e.fsyncs.Load(),
		GroupCommits:     e.piggyback.Load(),
		Checkpoints:      e.checkpoints,
		TailBytesDropped: e.tailDropped,
	}
}

// Close releases the log file and the directory lock. The engine is not
// usable afterwards; appends racing a close fail with errClosed.
func (e *Engine) Close() error {
	e.syncMu.Lock()
	defer e.syncMu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	var err error
	if e.f != nil {
		err = e.f.Close()
		e.f = nil
	}
	if e.lock != nil {
		// Closing the descriptor drops the flock.
		e.lock.Close()
		e.lock = nil
	}
	return err
}
