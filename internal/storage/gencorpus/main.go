// Command gencorpus regenerates the committed seed corpora of FuzzWALRecord
// (canonical encoded records) and FuzzLogFile (whole log files written by the
// engine). Run from the repo root:
//
//	go run ./internal/storage/gencorpus
package main

import (
	"fmt"
	"os"
	"path/filepath"

	"xmlac/internal/storage"
)

const root = "internal/storage/testdata/fuzz"

var (
	register = storage.Record{Type: storage.RecordRegister, Doc: "hospital", Meta: []byte(`{"version":1}`), Blob: []byte("XSEC\x02container bytes")}
	patch    = storage.Record{Type: storage.RecordPatch, Doc: "hospital", Meta: []byte("XDLT delta"), Blob: []byte{7, 7, 7, 7, 7, 7, 7, 7}}
	remove   = storage.Record{Type: storage.RecordDelete, Doc: "gone"}
)

func main() {
	seeds := map[string]storage.Record{
		"seed_register": register,
		"seed_patch":    patch,
		"seed_delete":   remove,
	}
	for name, r := range seeds {
		enc, err := storage.EncodeRecord(r)
		check(err)
		write("FuzzWALRecord", name, enc)
	}
	// A frame with a declared length far past the buffer: the decoder must
	// reject it without allocating.
	write("FuzzWALRecord", "seed_truncated", []byte{1, 1, 0, 'd', 0, 0, 0xff, 0xff, 0xff, 0x7f})

	write("FuzzLogFile", "seed_empty", nil)
	write("FuzzLogFile", "seed_fresh", logFile(false, register, patch))
	compacted := logFile(true, patch, remove)
	write("FuzzLogFile", "seed_compacted", compacted)
	write("FuzzLogFile", "seed_torn", compacted[:len(compacted)-5])
}

// logFile returns the bytes of a log the engine wrote: tail appended after a
// checkpoint of register when compact, on a fresh log otherwise.
func logFile(compact bool, tail ...storage.Record) []byte {
	dir, err := os.MkdirTemp("", "gencorpus")
	check(err)
	defer os.RemoveAll(dir)
	e, err := storage.Open(dir)
	check(err)
	if compact {
		check(e.Checkpoint([]storage.Record{register}))
	}
	for _, r := range tail {
		check(e.Append(r))
	}
	check(e.Close())
	data, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	check(err)
	return data
}

func write(fuzzer, name string, data []byte) {
	dir := filepath.Join(root, fuzzer)
	check(os.MkdirAll(dir, 0o755))
	body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
	check(os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644))
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
