package storage

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzWALRecord drives the WAL record decoder with arbitrary bytes. The
// decoder sits on the recovery path — it parses whatever survives a crash —
// so it must never panic, never over-allocate past its declared bounds, and
// anything it does accept must re-encode byte-identically (the encoder and
// decoder agree on one canonical form).
func FuzzWALRecord(f *testing.F) {
	seeds := []Record{
		{Type: RecordRegister, Doc: "hospital", Meta: []byte(`{"version":1}`), Blob: []byte("XSEC\x02container bytes")},
		{Type: RecordPatch, Doc: "hospital", Meta: []byte("XDLT delta"), Blob: bytes.Repeat([]byte{7}, 64)},
		{Type: RecordDelete, Doc: "gone"},
		// A document id at its length bound.
		{Type: RecordDelete, Doc: strings.Repeat("d", maxNameLen)},
	}
	for _, r := range seeds {
		enc, err := EncodeRecord(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add([]byte{})
	f.Add([]byte{byte(RecordRegister), 1, 0, 'd', 0, 0, 0xff, 0xff, 0xff, 0x7f})

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeRecord(data)
		if err != nil {
			return
		}
		enc, err := EncodeRecord(rec)
		if err != nil {
			t.Fatalf("decoded record fails to re-encode: %v", err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("decode/encode not canonical:\n in: %x\nout: %x", data, enc)
		}
	})
}
