package storage

import (
	"errors"
	"os"
	"testing"
)

var errInjected = errors.New("injected I/O error")

// faultFile is the engine's log file with one fault armed: a short write,
// where only the first short bytes of the next write reach the file, or a
// failed fsync that, as Linux may after a writeback error, drops what was
// written since the last good fsync.
type faultFile struct {
	*os.File
	short    int
	failSync bool
	synced   int64 // file size at the last good fsync
}

func (f *faultFile) Write(p []byte) (int, error) {
	if f.short > 0 {
		n, _ := f.File.Write(p[:f.short])
		f.short = 0
		return n, errInjected
	}
	return f.File.Write(p)
}

func (f *faultFile) Sync() error {
	if f.failSync {
		f.failSync = false
		if err := f.File.Truncate(f.synced); err != nil {
			return err
		}
		return errInjected
	}
	if err := f.File.Sync(); err != nil {
		return err
	}
	st, err := f.File.Stat()
	if err != nil {
		return err
	}
	f.synced = st.Size()
	return nil
}

// TestIOErrorFailsStop: after a write or fsync error, the engine
// acknowledges nothing more and reports the error (Err, and the Failed
// gauge). Record 1 meets the fault; record 2 must fail with the same error,
// and so must a checkpoint. Without that, record 2 lands behind a torn frame
// (or a hole the failed fsync left), is fsynced and acknowledged, and
// recovery truncates it away.
func TestIOErrorFailsStop(t *testing.T) {
	for _, tc := range []struct {
		name string
		arm  func(*faultFile)
	}{
		{"short write", func(f *faultFile) { f.short = 7 }},
		{"failed fsync", func(f *faultFile) { f.failSync = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			e, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Append(testRecord(0)); err != nil {
				t.Fatal(err)
			}
			acked := []Record{testRecord(0)}
			ff := &faultFile{File: e.f.(*os.File)}
			st, err := ff.Stat()
			if err != nil {
				t.Fatal(err)
			}
			ff.synced = st.Size()
			tc.arm(ff)
			e.f = ff
			if e.Err() != nil || e.Stats().Failed != 0 {
				t.Fatalf("healthy engine reports failure: %v, gauge %d", e.Err(), e.Stats().Failed)
			}

			if err := e.Append(testRecord(1)); !errors.Is(err, errInjected) {
				t.Fatalf("append meeting the fault returned %v, want the injected error", err)
			}
			// The poisoned engine says so, for /healthz and /metrics.
			if !errors.Is(e.Err(), errInjected) || e.Stats().Failed != 1 {
				t.Errorf("poisoned engine reports %v, gauge %d", e.Err(), e.Stats().Failed)
			}
			if err := e.Append(testRecord(2)); err == nil {
				acked = append(acked, testRecord(2))
				t.Error("an append after the fault was acknowledged")
			} else if !errors.Is(err, errInjected) {
				t.Errorf("append after the fault returned %v, want the injected error", err)
			} else if err := e.Checkpoint(acked); !errors.Is(err, errInjected) {
				t.Errorf("checkpoint after the fault returned %v, want the injected error", err)
			}
			e.Close()

			e, err = Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			got := e.WALRecords()
			for _, want := range acked {
				found := false
				for _, r := range got {
					found = found || recordsEqual(r, want)
				}
				if !found {
					t.Errorf("acknowledged record %s lost on reopen (%d records recovered)", want.Doc, len(got))
				}
			}
		})
	}
}
