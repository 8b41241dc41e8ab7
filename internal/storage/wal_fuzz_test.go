package storage

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// FuzzLogFile drives the scanner Open runs on wal.log with arbitrary file
// bytes. Whatever a crash or a disk leaves behind, the scanner must return
// an error or a record list: never panic, never allocate a frame past
// maxFrameLen, and every frame it accepts must be intact and re-encode
// byte-identically. The committed corpus (go run ./internal/storage/gencorpus)
// holds an empty file, a fresh log, a compacted log and a torn tail.
func FuzzLogFile(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := scanLog(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		if s.good > int64(len(data)) || s.good < s.snapEnd {
			t.Fatalf("durable prefix ends at %d, outside [%d, %d]", s.good, s.snapEnd, len(data))
		}
		off := s.snapEnd
		if len(s.recs) > 0 {
			off = headerSize
		}
		for i, r := range s.recs {
			if r.Start != off || r.End-r.Start > frameHeaderSize+maxFrameLen {
				t.Fatalf("record %d spans [%d, %d), want a frame starting at %d", i, r.Start, r.End, off)
			}
			if r.Snapshot != (r.End <= s.snapEnd) {
				t.Fatalf("record %d [%d, %d) flagged snapshot=%v, snapshot ends at %d", i, r.Start, r.End, r.Snapshot, s.snapEnd)
			}
			payload := data[r.Start+frameHeaderSize : r.End]
			if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[r.Start:]) {
				t.Fatalf("record %d accepted with a bad CRC", i)
			}
			enc, err := EncodeRecord(r.Record)
			if err != nil {
				t.Fatalf("record %d fails to re-encode: %v", i, err)
			}
			if !bytes.Equal(enc, payload) {
				t.Fatalf("record %d not canonical:\n in: %x\nout: %x", i, payload, enc)
			}
			off = r.End
		}
		if len(s.recs) > 0 && off != s.good {
			t.Fatalf("durable prefix ends at %d, last frame at %d", s.good, off)
		}
	})
}
