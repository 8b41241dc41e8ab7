package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func testRecord(i int) Record {
	return Record{
		Type: RecordRegister,
		Doc:  fmt.Sprintf("doc-%d", i),
		Meta: []byte(fmt.Sprintf(`{"seq":%d}`, i)),
		Blob: bytes.Repeat([]byte{byte(i)}, 100+i),
	}
}

func recordsEqual(a, b Record) bool {
	return a.Type == b.Type && a.Doc == b.Doc && a.Subject == b.Subject &&
		bytes.Equal(a.Meta, b.Meta) && bytes.Equal(a.Blob, b.Blob)
}

func TestRecordRoundTrip(t *testing.T) {
	recs := []Record{
		{Type: RecordRegister, Doc: "hospital", Meta: []byte("{}"), Blob: []byte{1, 2, 3}},
		{Type: RecordPatch, Doc: "a", Meta: bytes.Repeat([]byte("m"), 1000)},
		{Type: RecordPolicy, Doc: "hospital", Subject: "secretary", Meta: []byte(`{"rules":[]}`)},
		{Type: RecordDelete, Doc: "gone"},
	}
	for _, want := range recs {
		enc, err := EncodeRecord(want)
		if err != nil {
			t.Fatalf("encode %v: %v", want.Type, err)
		}
		got, err := DecodeRecord(enc)
		if err != nil {
			t.Fatalf("decode %v: %v", want.Type, err)
		}
		if !recordsEqual(want, got) {
			t.Fatalf("round trip mismatch: %+v vs %+v", want, got)
		}
	}
}

func TestRecordDecodeRejectsGarbage(t *testing.T) {
	good, err := EncodeRecord(Record{Type: RecordRegister, Doc: "d", Blob: []byte("xyz")})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":         {},
		"unknown type":  append([]byte{99}, good[1:]...),
		"truncated":     good[:len(good)-2],
		"trailing":      append(append([]byte(nil), good...), 0),
		"empty doc id":  {byte(RecordRegister), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		"short doc len": {byte(RecordRegister), 5},
	}
	for name, data := range cases {
		if _, err := DecodeRecord(data); err == nil {
			t.Errorf("%s: decode accepted invalid payload", name)
		}
	}
	// A declared length larger than the buffer must fail cleanly, not allocate.
	huge := []byte{byte(RecordRegister), 1, 0, 'd', 0, 0, 0xff, 0xff, 0xff, 0x7f}
	if _, err := DecodeRecord(huge); err == nil {
		t.Error("oversized declared length accepted")
	}
}

func TestRecordEncodeBounds(t *testing.T) {
	if _, err := EncodeRecord(Record{Type: RecordRegister, Doc: ""}); err == nil {
		t.Error("empty doc id encoded")
	}
	if _, err := EncodeRecord(Record{Type: RecordType(9), Doc: "d"}); err == nil {
		t.Error("unknown type encoded")
	}
	if _, err := EncodeRecord(Record{Type: RecordRegister, Doc: string(bytes.Repeat([]byte("a"), maxNameLen+1))}); err == nil {
		t.Error("oversized doc id encoded")
	}
}

func TestWALAppendReopen(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want []Record
	for i := 0; i < 10; i++ {
		r := testRecord(i)
		want = append(want, r)
		if err := e.Append(r); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	got := e2.WALRecords()
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !recordsEqual(want[i], got[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
	recs, err := ReadWALFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if r.Snapshot {
			t.Fatalf("no checkpoint was taken, yet record %d is in a snapshot", i)
		}
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := e.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	e.Close()

	walPath := filepath.Join(dir, logName)
	recs, err := ReadWALFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("wal holds %d records, want 5", len(recs))
	}
	// Tear the file in the middle of the last frame.
	cut := recs[4].Start + (recs[4].End-recs[4].Start)/2
	if err := os.Truncate(walPath, cut); err != nil {
		t.Fatal(err)
	}

	e2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(e2.WALRecords()); got != 4 {
		t.Fatalf("recovered %d records after torn tail, want 4", got)
	}
	if d := e2.Stats().TailBytesDropped; d != cut-recs[4].Start {
		t.Fatalf("dropped %d tail bytes, want %d", d, cut-recs[4].Start)
	}
	// The truncation is durable: a re-open sees a clean 4-record log.
	e2.Close()
	recs, err = ReadWALFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("log holds %d records after truncation, want 4", len(recs))
	}
}

func TestWALCorruptFrameStopsReplay(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := e.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	e.Close()

	walPath := filepath.Join(dir, logName)
	recs, err := ReadWALFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte inside record 2: CRC fails there, so recovery keeps
	// records 0-1 and drops everything from the corrupt frame on.
	f, err := os.OpenFile(walPath, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff}, recs[2].Start+frameHeaderSize+3); err != nil {
		t.Fatal(err)
	}
	f.Close()

	e2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if got := len(e2.WALRecords()); got != 2 {
		t.Fatalf("recovered %d records after corruption, want 2", got)
	}
}

func TestGroupCommitSharesFsyncs(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// Prime the log so the lazy header write is out of the way.
	if err := e.Append(testRecord(0)); err != nil {
		t.Fatal(err)
	}
	base := e.Stats()

	// Hold the group-commit leader slot while N appends pile up behind it;
	// releasing it lets exactly one leader fsync for the whole group.
	const n = 8
	e.syncMu.Lock()
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 1; i <= n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs <- e.Append(testRecord(i))
		}(i)
	}
	for {
		e.mu.Lock()
		appended := e.appended
		e.mu.Unlock()
		if appended >= uint64(n)+1 {
			break
		}
	}
	e.syncMu.Unlock()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	st := e.Stats()
	if got := st.Fsyncs - base.Fsyncs; got != 1 {
		t.Fatalf("group of %d appends used %d fsyncs, want 1", n, got)
	}
	if got := st.GroupCommits - base.GroupCommits; got != n-1 {
		t.Fatalf("%d appends piggybacked, want %d", got, n-1)
	}
}

func TestCheckpointAndRecovery(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	snaps := []Record{
		{Type: RecordRegister, Doc: "alpha", Meta: []byte(`{"v":3}`), Blob: bytes.Repeat([]byte("A"), 1300)},
		{Type: RecordRegister, Doc: "beta", Meta: []byte(`{"v":1}`), Blob: bytes.Repeat([]byte("B"), 512)},
		{Type: RecordPolicy, Doc: "beta", Subject: "s", Meta: []byte("{}")},
		{Type: RecordRegister, Doc: "gamma", Meta: []byte(`{"v":7}`), Blob: []byte("tiny")},
	}
	for i := 0; i < 3; i++ {
		if err := e.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Checkpoint(snaps); err != nil {
		t.Fatal(err)
	}
	if e.WALSize() != 0 {
		t.Fatalf("wal size %d after checkpoint, want 0", e.WALSize())
	}
	// Post-checkpoint appends land in the tail of the new log.
	extra := Record{Type: RecordPolicy, Doc: "alpha", Subject: "s", Meta: []byte("{}")}
	if err := e.Append(extra); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.WALRecords != 1 || st.WALBytes != e.WALSize() || st.WALBytes == 0 {
		t.Fatalf("tail counters after one append: %+v (WALSize %d)", st, e.WALSize())
	}
	e.Close()
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 2 {
		t.Fatalf("data directory holds %v (%v), want LOCK and %s only", entries, err, logName)
	}

	e2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	got := e2.WALRecords()
	want := append(snaps, extra)
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d snapshot records and the 1 post-checkpoint append", len(got), len(snaps))
	}
	for i := range want {
		if !recordsEqual(got[i], want[i]) {
			t.Fatalf("record %d (%q) differs after recovery", i, want[i].Doc)
		}
	}
	if st := e2.Stats(); st.WALRecords != 1 {
		t.Fatalf("reopened tail holds %d records, want 1", st.WALRecords)
	}
}

func TestCheckpointSupersedesOldGeneration(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint([]Record{{Type: RecordRegister, Doc: "d", Blob: bytes.Repeat([]byte("x"), 600)}}); err != nil {
		t.Fatal(err)
	}
	// The second checkpoint replaces the first snapshot wholesale.
	second := Record{Type: RecordRegister, Doc: "d", Blob: bytes.Repeat([]byte("y"), 700)}
	if err := e.Checkpoint([]Record{second}); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Checkpoints; got != 2 {
		t.Fatalf("Checkpoints = %d, want 2", got)
	}
	e.Close()
	e2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if got := e2.WALRecords(); len(got) != 1 || !recordsEqual(got[0], second) {
		t.Fatalf("recovered %d records, want only the second snapshot", len(got))
	}
}

// compactedLog builds a log with a three-record snapshot and a two-record
// tail, returning its directory and frame extents.
func compactedLog(t *testing.T) (string, []WALRecordPos) {
	t.Helper()
	dir := t.TempDir()
	e, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint([]Record{testRecord(0), testRecord(1), testRecord(2)}); err != nil {
		t.Fatal(err)
	}
	for i := 3; i < 5; i++ {
		if err := e.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	e.Close()
	recs, err := ReadWALFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 || !recs[2].Snapshot || recs[3].Snapshot {
		t.Fatalf("log holds %d records with snapshot flags %v, want 3 snapshot + 2 tail", len(recs), recs)
	}
	return dir, recs
}

// TestSnapshotDamageFailsOpen: a snapshot frame cut short or carrying a
// flipped byte fails Open with an error naming its offset, while damage in
// the tail only shortens the tail.
func TestSnapshotDamageFailsOpen(t *testing.T) {
	for k := 0; k < 3; k++ {
		for _, mode := range []string{"truncate", "flip"} {
			dir, recs := compactedLog(t)
			walPath := filepath.Join(dir, logName)
			mid := recs[k].Start + (recs[k].End-recs[k].Start)/2
			if mode == "truncate" {
				if err := os.Truncate(walPath, mid); err != nil {
					t.Fatal(err)
				}
			} else {
				flipByte(t, walPath, mid)
			}
			e, err := Open(dir, Options{})
			if err == nil {
				e.Close()
				t.Fatalf("%s in snapshot frame %d: Open succeeded", mode, k)
			}
			if want := fmt.Sprintf("offset %d", recs[k].Start); mode == "flip" && !strings.Contains(err.Error(), want) {
				t.Fatalf("%s in snapshot frame %d: error %q does not name %s", mode, k, err, want)
			}
		}
	}
	dir, recs := compactedLog(t)
	flipByte(t, filepath.Join(dir, logName), recs[3].Start+frameHeaderSize)
	e, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("corrupt tail frame: %v", err)
	}
	defer e.Close()
	if got := len(e.WALRecords()); got != 3 {
		t.Fatalf("recovered %d records after a corrupt first tail frame, want the 3 snapshot records", got)
	}
}

// TestLeftoverTmpIgnored: a wal.tmp left by a crash before the checkpoint's
// rename, torn or complete, is removed and recovery reads wal.log alone.
func TestLeftoverTmpIgnored(t *testing.T) {
	for _, torn := range []bool{true, false} {
		dir, recs := compactedLog(t)
		// The unfinished checkpoint holds a different state: if recovery
		// read it, the record count would show.
		tmp := filepath.Join(dir, tmpName)
		f, size, err := writeSnapshot(tmp, []Record{testRecord(9)}, true)
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
		if torn {
			if err := os.Truncate(tmp, size/2); err != nil {
				t.Fatal(err)
			}
		}
		e, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("torn=%v: %v", torn, err)
		}
		if got := len(e.WALRecords()); got != len(recs) {
			t.Fatalf("torn=%v: recovered %d records, want the %d of %s", torn, got, len(recs), logName)
		}
		e.Close()
		if _, err := os.Stat(tmp); !os.IsNotExist(err) {
			t.Fatalf("torn=%v: leftover %s not removed (%v)", torn, tmpName, err)
		}
	}
}

// TestOpenRefusesOldFormats: a page-file checkpoint or a v1 log header is
// refused with an error naming the file, never silently ignored.
func TestOpenRefusesOldFormats(t *testing.T) {
	for name, data := range map[string][]byte{
		oldCheckpointName: []byte("XCKP\x01"),
		logName:           append([]byte("XWAL\x01"), make([]byte, 32)...),
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
		e, err := Open(dir, Options{})
		if err == nil {
			e.Close()
			t.Fatalf("Open accepted a directory holding an old %s", name)
		}
		if !strings.Contains(err.Error(), filepath.Join(dir, name)) {
			t.Fatalf("error %q does not name %s", err, name)
		}
	}
}

// flipByte inverts one byte of a file in place.
func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[off] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestOpenLocksDirectory(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("second Open of a locked directory succeeded")
	}
	e.Close()
	// The lock dies with the descriptor: reopening after Close works.
	e2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after close: %v", err)
	}
	e2.Close()
}

func TestWALRecordExtents(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := e.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	e.Close()
	recs, err := ReadWALFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	off := int64(headerSize)
	for i, r := range recs {
		if r.Start != off {
			t.Fatalf("record %d starts at %d, want %d", i, r.Start, off)
		}
		if r.End <= r.Start+frameHeaderSize {
			t.Fatalf("record %d has empty extent", i)
		}
		off = r.End
	}
	st, err := os.Stat(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	if off != st.Size() {
		t.Fatalf("extents cover %d bytes, file is %d", off, st.Size())
	}
}
