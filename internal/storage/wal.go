package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// The log file. Every store mutation is one CRC-guarded frame, and a
// checkpoint is the same frames again: it writes the store's state as a
// fresh run of records and makes that run the new file's prefix. Layout:
//
//	header:   "XWAL\x02" | snapLen u64 | crc32 u32 (of the 13 bytes before it)
//	snapshot: snapLen bytes of frames, the state at the last checkpoint
//	tail:     frames appended since
//	frame:    crc32 u32 (of the payload) | length u32 | payload (EncodeRecord)
//
// A fresh log has snapLen 0. The two regions obey different rules on
// recovery. The snapshot was fsynced before the rename that installed it,
// so no crash can tear it: any damage there is corruption, and Open fails.
// The tail grows one appended frame at a time, so its end may be torn: Open
// keeps the frames up to the first torn or corrupt one and truncates the
// rest (prefix durability, never a holed history).

// logMagic opens a log file; the trailing byte is the format version.
var logMagic = []byte("XWAL\x02")

// logMagicV1 is the earlier format (a headerless snapshot-free log beside a
// page-file checkpoint), which this engine refuses rather than misreads.
var logMagicV1 = []byte("XWAL\x01")

// headerSize is the fixed size of the log header.
const headerSize = 5 + 8 + 4

// frameHeaderSize is the per-record framing overhead: crc32 u32 | length u32.
const frameHeaderSize = 8

// maxFrameLen bounds a frame's declared payload length during recovery so a
// corrupt length field reads as a torn tail, not a giant allocation.
const maxFrameLen = maxBlobLen + maxMetaLen + 2*maxNameLen + 64

// logHeader renders the header of a log whose snapshot is snapLen bytes.
func logHeader(snapLen int64) []byte {
	h := binary.LittleEndian.AppendUint64(append([]byte(nil), logMagic...), uint64(snapLen))
	return binary.LittleEndian.AppendUint32(h, crc32.ChecksumIEEE(h))
}

// encodeFrame encodes one record and frames it with its length and CRC.
func encodeFrame(rec Record) ([]byte, error) {
	payload, err := EncodeRecord(rec)
	if err != nil {
		return nil, err
	}
	frame := make([]byte, frameHeaderSize, frameHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint32(frame[4:8], uint32(len(payload)))
	return append(frame, payload...), nil
}

// logScan is what one pass of the frame scanner found in a log file.
type logScan struct {
	recs    []WALRecordPos // snapshot records first, then the tail's
	snapEnd int64          // offset where the tail starts (0: no header yet)
	good    int64          // end of the last intact frame: the durable prefix
}

// errFrame marks bytes that are not an intact frame, as opposed to a failed
// read: the tail ends at the first such frame.
var errFrame = errors.New("torn or corrupt frame")

// scanLog reads a log file of the given size: the header (written lazily by
// the first append, so an empty file is a valid empty log and a file shorter
// than the header is a torn header write), every snapshot frame, then tail
// frames until EOF or the first torn or corrupt one. It fails on a bad or
// outdated header and on any damage inside the snapshot. Every allocation is
// bounded by the bytes actually present.
func scanLog(r io.ReaderAt, size int64) (logScan, error) {
	var s logScan
	head := make([]byte, min(size, headerSize))
	if _, err := r.ReadAt(head, 0); err != nil && err != io.EOF {
		return s, err
	}
	if n := min(len(head), len(logMagic)); !bytes.Equal(head[:n], logMagic[:n]) {
		if bytes.HasPrefix(head, logMagicV1) {
			return s, errors.New("log has the v1 format of a page-file checkpoint engine; this engine cannot read it")
		}
		return s, errors.New("not a log file (bad magic)")
	}
	if size < headerSize {
		return s, nil
	}
	if crc32.ChecksumIEEE(head[:headerSize-4]) != binary.LittleEndian.Uint32(head[headerSize-4:]) {
		return s, errors.New("log header CRC mismatch")
	}
	snapLen := binary.LittleEndian.Uint64(head[len(logMagic):])
	if snapLen > uint64(size-headerSize) {
		return s, fmt.Errorf("snapshot of %d bytes runs past the end of the %d-byte file", snapLen, size)
	}
	s.snapEnd = headerSize + int64(snapLen)
	off := int64(headerSize)
	for off < s.snapEnd {
		rec, end, err := readFrame(r, off, s.snapEnd)
		if err != nil {
			return s, fmt.Errorf("snapshot frame at offset %d: %w", off, err)
		}
		s.recs = append(s.recs, WALRecordPos{Record: rec, Start: off, End: end, Snapshot: true})
		off = end
	}
	for off < size {
		rec, end, err := readFrame(r, off, size)
		if errors.Is(err, errFrame) {
			break
		}
		if err != nil {
			return s, err
		}
		s.recs = append(s.recs, WALRecordPos{Record: rec, Start: off, End: end})
		off = end
	}
	s.good = off
	return s, nil
}

// readFrame decodes the frame at off, which must end by limit. It returns
// the record and the offset of the next frame.
func readFrame(r io.ReaderAt, off, limit int64) (Record, int64, error) {
	var head [frameHeaderSize]byte
	if limit-off < frameHeaderSize {
		return Record{}, 0, fmt.Errorf("%w: short frame header", errFrame)
	}
	if _, err := r.ReadAt(head[:], off); err != nil {
		return Record{}, 0, err
	}
	n := int64(binary.LittleEndian.Uint32(head[4:8]))
	if n > maxFrameLen || n > limit-off-frameHeaderSize {
		return Record{}, 0, fmt.Errorf("%w: payload of %d bytes overruns the region", errFrame, n)
	}
	payload := make([]byte, n)
	if _, err := r.ReadAt(payload, off+frameHeaderSize); err != nil {
		return Record{}, 0, err
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(head[0:4]) {
		return Record{}, 0, fmt.Errorf("%w: CRC mismatch", errFrame)
	}
	rec, err := DecodeRecord(payload)
	if err != nil {
		// CRC-clean but undecodable: corruption all the same.
		return Record{}, 0, fmt.Errorf("%w: %w", errFrame, err)
	}
	return rec, off + frameHeaderSize + n, nil
}

// writeSnapshot writes recs as the snapshot of a fresh log at path and
// returns the file (positioned at its end, ready for appends) and its size.
// The header goes in last, once the snapshot length is known; the file is
// fsynced unless noSync, and not yet renamed into place.
func writeSnapshot(path string, recs []Record, noSync bool) (*os.File, int64, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, 0, err
	}
	fail := func(err error) (*os.File, int64, error) {
		f.Close()
		return nil, 0, err
	}
	size := int64(headerSize)
	if _, err := f.Seek(size, io.SeekStart); err != nil {
		return fail(err)
	}
	for _, rec := range recs {
		frame, err := encodeFrame(rec)
		if err != nil {
			return fail(err)
		}
		if _, err := f.Write(frame); err != nil {
			return fail(err)
		}
		size += int64(len(frame))
	}
	if _, err := f.WriteAt(logHeader(size-headerSize), 0); err != nil {
		return fail(err)
	}
	if !noSync {
		if err := f.Sync(); err != nil {
			return fail(err)
		}
	}
	return f, size, nil
}

// ReadWALFile scans a log file offline and returns its durable records with
// their frame extents, snapshot first. Diagnostic surface for tests and
// tooling (the crash torture harness uses the extents to cut and corrupt
// exact frames); the file is not modified.
func ReadWALFile(path string) ([]WALRecordPos, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	s, err := scanLog(f, st.Size())
	if err != nil {
		return nil, fmt.Errorf("storage: %s: %w", path, err)
	}
	return s.recs, nil
}

// WALRecordPos is one record with its byte extent in the log file.
type WALRecordPos struct {
	Record Record
	// Start and End are the frame's byte offsets in the file (End is the
	// offset of the next frame): the torture harness truncates at these
	// boundaries to simulate crashes between and inside commits.
	Start, End int64
	// Snapshot marks the records of the checkpoint prefix, where any damage
	// fails Open instead of truncating the log.
	Snapshot bool
}
