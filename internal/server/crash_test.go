package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xmlac"
	"xmlac/internal/storage"
)

// researcherRulesJSON is the third profile of the torture matrix: a subject
// whose view (the analysis results) is disjoint from the secretary's.
const researcherRulesJSON = `{"rules":[{"id":"R1","sign":"+","object":"//Analysis"}]}`

// crashSnapshot is the externally observable state of the store at one
// durable prefix: per-subject view responses plus the document version.
type crashSnapshot struct {
	label   string
	found   bool
	version uint64
	views   map[string]string // subject -> status-prefixed body
}

// captureCrashState reads the three profiles' views and the version through
// the public surface, exactly as a client would after a crash restart.
func captureCrashState(t *testing.T, srv *Server, ts *httptest.Server, label string, subjects []string) crashSnapshot {
	t.Helper()
	snap := crashSnapshot{label: label, views: map[string]string{}}
	if entry, err := srv.Store().Entry("hospital"); err == nil {
		snap.found = true
		snap.version = entry.Version()
	}
	for _, s := range subjects {
		resp, body := do(t, http.MethodGet, ts.URL+"/docs/hospital/view?subject="+s, "")
		snap.views[s] = fmt.Sprintf("%d\x00%s", resp.StatusCode, body)
	}
	return snap
}

// copyDataDir copies the flat storage directory (LOCK and wal.log) so each
// torture case mutilates its own private copy.
func copyDataDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			t.Fatalf("unexpected subdirectory %s in data dir", e.Name())
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCrashRecoveryTorture builds a reference history of seven mutations
// (register, three profile policies, three PATCHes), records the expected
// observable state after each durable prefix, then — for every WAL record —
// truncates the log at the record boundary, truncates it mid-record, and
// flips a payload byte, reopening the store each time. Recovery must land
// exactly on the state of the longest intact prefix: all three profiles'
// views byte-identical to the reference, never a torn or improvised state.
func TestCrashRecoveryTorture(t *testing.T) {
	subjects := []string{"secretary", "DrA", "researcher"}
	base := t.TempDir()
	srcDir := filepath.Join(base, "reference")

	srv, ts := openDurable(t, srcDir, Options{})
	steps := []struct {
		label string
		run   func()
	}{
		{"register", func() { putDoc(t, ts, "hospital", hospitalXML(4)) }},
		{"policy-secretary", func() { putPolicy(t, ts, "hospital", "secretary", secretaryRulesJSON) }},
		{"policy-doctor", func() { putPolicy(t, ts, "hospital", "DrA", doctorRulesJSON) }},
		{"policy-researcher", func() { putPolicy(t, ts, "hospital", "researcher", researcherRulesJSON) }},
		{"patch-1", func() {
			if status, _, body := patchDoc(t, ts, "hospital",
				`{"op":"set-text","path":"/Hospital/Folder[2]/Admin/Fname","text":"edit-one"}`); status != http.StatusOK {
				t.Fatalf("patch-1: %d %s", status, body)
			}
		}},
		{"patch-2", func() {
			if status, _, body := patchDoc(t, ts, "hospital",
				`{"op":"insert","path":"/Hospital","xml":"<Folder><Admin><Fname>edit-two</Fname></Admin></Folder>"}`); status != http.StatusOK {
				t.Fatalf("patch-2: %d %s", status, body)
			}
		}},
		{"patch-3", func() {
			if status, _, body := patchDoc(t, ts, "hospital",
				`{"op":"set-text","path":"/Hospital/Folder[1]/Admin/Fname","text":"edit-three"}`); status != http.StatusOK {
				t.Fatalf("patch-3: %d %s", status, body)
			}
		}},
	}

	// expected[k] is the observable state after the first k mutations.
	expected := []crashSnapshot{captureCrashState(t, srv, ts, "empty", subjects)}
	for _, step := range steps {
		step.run()
		expected = append(expected, captureCrashState(t, srv, ts, step.label, subjects))
	}
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	walPath := filepath.Join(srcDir, "wal.log")
	positions, err := storage.ReadWALFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(positions) != len(steps) {
		t.Fatalf("reference WAL holds %d records, want one per mutation (%d)", len(positions), len(steps))
	}

	h := &crashHarness{t: t, base: base, subjects: subjects}
	check := func(name string, k int, mutate func(wal string)) {
		t.Helper()
		h.check(name, srcDir, expected[k], mutate)
	}

	// Clean cuts at every record boundary: prefix of exactly k records.
	for k := 0; k <= len(positions); k++ {
		cut := positions[0].Start // k == 0: keep only the file header
		if k > 0 {
			cut = positions[k-1].End
		}
		check(fmt.Sprintf("boundary-%d", k), k, h.truncateTo(cut))
	}
	if testing.Short() {
		return
	}
	for k := 0; k < len(positions); k++ {
		// A tear inside record k's frame drops it and everything after.
		mid := positions[k].Start + (positions[k].End-positions[k].Start)/2
		check(fmt.Sprintf("midrecord-%d", k), k, h.truncateTo(mid))
		// A flipped payload byte in record k fails its CRC: replay stops at k
		// records even though the file continues past the corruption.
		check(fmt.Sprintf("corrupt-%d", k), k, h.flipByteAt(positions[k].Start+frameHeaderOffset))
	}
}

// TestCrashRecoveryCompactedTorture runs the torture matrix over logs with a
// snapshot prefix. The reference history is register → checkpoint → PATCH →
// re-register → three policies → checkpoint → PATCH, with checkpoints forced
// by reopening at a one-byte CheckpointWALBytes for the step before each.
// Every snapshot frame must be intact — a cut or a flipped byte anywhere in
// it, a container byte included, fails recovery — while the tail keeps the
// prefix rule. At each checkpoint's crash point (the triggering record
// appended to the old log, wal.tmp written torn or whole, no rename yet)
// recovery reads the old log, removes wal.tmp and serves byte-identical
// state; a clean reopen does too.
func TestCrashRecoveryCompactedTorture(t *testing.T) {
	subjects := []string{"secretary", "DrA", "researcher"}
	base := t.TempDir()
	ref := filepath.Join(base, "reference")
	// The fake clock stamps every registration and policy with one instant,
	// so replaying a step on a copy writes the reference's bytes again.
	opts := Options{clock: newFakeClock()}
	patch := func(edit string) func(*httptest.Server) {
		return func(ts *httptest.Server) {
			if status, _, body := patchDoc(t, ts, "hospital", edit); status != http.StatusOK {
				t.Fatalf("%s: %d %s", edit, status, body)
			}
		}
	}
	policy := func(subject, rules string) func(*httptest.Server) {
		return func(ts *httptest.Server) { putPolicy(t, ts, "hospital", subject, rules) }
	}
	steps := []struct {
		label      string
		checkpoint bool // compact the log right after this step's record
		run        func(*httptest.Server)
	}{
		{"register", true, func(ts *httptest.Server) { putDoc(t, ts, "hospital", hospitalXML(4)) }},
		{"patch-1", false, patch(`{"op":"set-text","path":"/Hospital/Folder[2]/Admin/Fname","text":"edit-one"}`)},
		{"re-register", false, func(ts *httptest.Server) { putDoc(t, ts, "hospital", hospitalXML(5)) }},
		{"policy-secretary", false, policy("secretary", secretaryRulesJSON)},
		{"policy-doctor", false, policy("DrA", doctorRulesJSON)},
		{"policy-researcher", true, policy("researcher", researcherRulesJSON)},
		{"patch-2", false, patch(`{"op":"insert","path":"/Hospital","xml":"<Folder><Admin><Fname>edit-two</Fname></Admin></Folder>"}`)},
	}
	// runStep opens dir, runs one step and returns the observable state and
	// the full client surface after it.
	runStep := func(dir string, i int, checkpoint bool) (crashSnapshot, string) {
		o := opts
		if checkpoint {
			o.CheckpointWALBytes = 1
		}
		srv, ts := openDurable(t, dir, o)
		steps[i].run(ts)
		if got := srv.persist.engine.Stats().Checkpoints; (got == 1) != checkpoint || got > 1 {
			t.Fatalf("%s: %d checkpoints, want checkpoint=%v", steps[i].label, got, checkpoint)
		}
		state := captureCrashState(t, srv, ts, steps[i].label, subjects)
		surface := captureSurface(t, ts)
		ts.Close()
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		return state, surface
	}

	if err := os.MkdirAll(ref, 0o755); err != nil {
		t.Fatal(err)
	}
	expected := []crashSnapshot{captureEmpty(t, base, subjects)}
	surfaces := []string{""}
	before := make([]string, len(steps)) // the reference directory before step i
	after := make([][]byte, len(steps))  // wal.log right after step i
	for i, step := range steps {
		before[i] = filepath.Join(base, "before-"+step.label)
		copyDataDir(t, ref, before[i])
		state, surface := runStep(ref, i, step.checkpoint)
		expected = append(expected, state)
		surfaces = append(surfaces, surface)
		var err error
		if after[i], err = os.ReadFile(filepath.Join(ref, "wal.log")); err != nil {
			t.Fatal(err)
		}
	}

	h := &crashHarness{t: t, base: base, subjects: subjects}
	checkSurface := func(name, dir string, k int) {
		t.Helper()
		srv, ts := openDurable(t, dir, Options{})
		if got := captureSurface(t, ts); got != surfaces[k] {
			t.Fatalf("%s: blob, ETag, manifest or delta differs from state %q", name, expected[k].label)
		}
		ts.Close()
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// A clean reopen serves the final state byte for byte.
	last := len(steps)
	checkSurface("clean", h.check("clean", ref, expected[last], func(string) {}), last)

	// Checkpoint crash points: the old log already holds the triggering
	// record (replayed on a copy with compaction off), the new one sits
	// complete or torn in wal.tmp.
	for i, step := range steps {
		if !step.checkpoint {
			continue
		}
		pre := filepath.Join(base, "pre-checkpoint-"+step.label)
		copyDataDir(t, before[i], pre)
		runStep(pre, i, false)
		for _, tmp := range [][]byte{after[i], after[i][:len(after[i])/2]} {
			name := fmt.Sprintf("tmp-%s-%d-of-%d", step.label, len(tmp), len(after[i]))
			dir := h.check(name, pre, expected[i+1], func(wal string) {
				if err := os.WriteFile(filepath.Join(filepath.Dir(wal), "wal.tmp"), tmp, 0o644); err != nil {
					t.Fatal(err)
				}
			})
			if _, err := os.Stat(filepath.Join(dir, "wal.tmp")); !os.IsNotExist(err) {
				t.Fatalf("%s: leftover wal.tmp not removed (%v)", name, err)
			}
			checkSurface(name, dir, i+1)
		}
	}

	// Snapshot and tail damage on the log each checkpoint generation grew
	// to: the first snapshot (the first registration) under a tail of
	// PATCH, re-registration and two policies, as it stood before the
	// second checkpoint's step; the second snapshot (the re-registered
	// document and its three policies) under the final PATCH.
	for _, gen := range []struct {
		src  string
		snap int // index in expected of the state the snapshot holds
	}{{before[5], 1}, {ref, 6}} {
		positions, err := storage.ReadWALFile(filepath.Join(gen.src, "wal.log"))
		if err != nil {
			t.Fatal(err)
		}
		tail := 0
		for k, pos := range positions {
			mid := pos.Start + (pos.End-pos.Start)/2
			if pos.Snapshot {
				h.checkFails(fmt.Sprintf("snap%d-cut-%d", gen.snap, k), gen.src, h.truncateTo(mid))
				h.checkFails(fmt.Sprintf("snap%d-flip-%d", gen.snap, k), gen.src, h.flipByteAt(mid))
				continue
			}
			want := expected[gen.snap+tail]
			h.check(fmt.Sprintf("tail%d-boundary-%d", gen.snap, k), gen.src, want, h.truncateTo(pos.Start))
			h.check(fmt.Sprintf("tail%d-mid-%d", gen.snap, k), gen.src, want, h.truncateTo(mid))
			h.check(fmt.Sprintf("tail%d-corrupt-%d", gen.snap, k), gen.src, want, h.flipByteAt(pos.Start+frameHeaderOffset))
			tail++
		}
		if tail == 0 || positions[0].Snapshot != true {
			t.Fatalf("log of generation %d has no snapshot or no tail", gen.snap)
		}
	}
}

// captureSurface reads every byte a remote client resynchronizes from: the
// blob with its ETag, the manifest and the delta from version 1.
func captureSurface(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	var b strings.Builder
	for _, path := range []string{"/blob", "/manifest", "/delta?from=1"} {
		resp, body := do(t, http.MethodGet, ts.URL+"/docs/hospital"+path, "")
		fmt.Fprintf(&b, "%s %d %s %q\n", path, resp.StatusCode, resp.Header.Get("ETag"), body)
	}
	return b.String()
}

// captureEmpty is the observable state of a store with no documents.
func captureEmpty(t *testing.T, base string, subjects []string) crashSnapshot {
	t.Helper()
	srv, ts := openDurable(t, filepath.Join(base, "empty"), Options{})
	defer srv.Close()
	defer ts.Close()
	return captureCrashState(t, srv, ts, "empty", subjects)
}

// frameHeaderOffset is the first payload byte of a WAL frame (after the
// crc32 and length words); flipping it breaks the frame's checksum.
const frameHeaderOffset = 8

// crashHarness reopens mutilated copies of reference data directories and
// compares what a client then observes with the reference states.
type crashHarness struct {
	t        *testing.T
	base     string
	subjects []string
	cases    int
}

// caseDir copies src into a fresh case directory and mutilates its log.
func (h *crashHarness) caseDir(name, src string, mutate func(wal string)) string {
	h.t.Helper()
	h.cases++
	dir := filepath.Join(h.base, fmt.Sprintf("case-%03d-%s", h.cases, name))
	copyDataDir(h.t, src, dir)
	mutate(filepath.Join(dir, "wal.log"))
	return dir
}

// check reopens a mutilated copy of src and demands the state want,
// including a working delta resync when the recovered document has update
// history. It returns the case directory, closed.
func (h *crashHarness) check(name, src string, want crashSnapshot, mutate func(wal string)) string {
	t := h.t
	t.Helper()
	dir := h.caseDir(name, src, mutate)
	srv2, ts2 := openDurable(t, dir, Options{})
	got := captureCrashState(t, srv2, ts2, name, h.subjects)
	if got.found != want.found || got.version != want.version {
		t.Fatalf("%s: recovered found=%v version=%d, want state %q (found=%v version=%d)",
			name, got.found, got.version, want.label, want.found, want.version)
	}
	for _, s := range h.subjects {
		if got.views[s] != want.views[s] {
			t.Fatalf("%s: view for %s differs from durable state %q", name, s, want.label)
		}
	}
	if want.found && want.version > 1 {
		resp, body := do(t, http.MethodGet, ts2.URL+"/docs/hospital/delta?from="+fmt.Sprint(want.version-1), "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: delta resync from=%d: %d", name, want.version-1, resp.StatusCode)
		}
		delta, err := xmlac.UnmarshalUpdateDelta([]byte(body))
		if err != nil {
			t.Fatalf("%s: delta resync: %v", name, err)
		}
		if delta.ToVersion != want.version {
			t.Fatalf("%s: delta resync lands on %d, want %d", name, delta.ToVersion, want.version)
		}
	}
	ts2.Close()
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// checkFails demands that recovery refuses a mutilated copy of src.
func (h *crashHarness) checkFails(name, src string, mutate func(wal string)) {
	h.t.Helper()
	dir := h.caseDir(name, src, mutate)
	srv, err := Open(Options{DataDir: dir})
	if err == nil {
		srv.Close()
		h.t.Fatalf("%s: damaged snapshot opened without an error", name)
	}
}

func (h *crashHarness) truncateTo(n int64) func(string) {
	return func(wal string) {
		if err := os.Truncate(wal, n); err != nil {
			h.t.Fatal(err)
		}
	}
}

func (h *crashHarness) flipByteAt(off int64) func(string) {
	return func(wal string) {
		data, err := os.ReadFile(wal)
		if err != nil {
			h.t.Fatal(err)
		}
		data[off] ^= 0xFF
		if err := os.WriteFile(wal, data, 0o644); err != nil {
			h.t.Fatal(err)
		}
	}
}
