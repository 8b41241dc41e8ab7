package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"xmlac"
)

func TestPercentileNearestRank(t *testing.T) {
	var hundred []float64
	for i := 100; i >= 1; i-- {
		hundred = append(hundred, float64(i))
	}
	for _, tc := range []struct {
		values []float64
		p      float64
		want   float64
	}{
		{hundred, 50, 50},
		{hundred, 90, 90},
		{hundred, 100, 100},
		{hundred, 0.5, 1},
		{[]float64{5, 1, 3}, 50, 3},
		{[]float64{5, 1, 3}, 90, 5},
		{[]float64{7}, 90, 7},
	} {
		if got := percentile(tc.values, tc.p); got != tc.want {
			t.Errorf("percentile(%d values, %g) = %g, want %g", len(tc.values), tc.p, got, tc.want)
		}
	}
	for _, tc := range []struct {
		n    int
		want bool
	}{{99, false}, {100, true}, {108, true}, {0, false}} {
		if got := tailSupported(90, tc.n); got != tc.want {
			t.Errorf("tailSupported(90, %d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	for _, tc := range []struct {
		values     []float64
		q1, q2, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
	} {
		q1, q2, q3 := quartiles(tc.values)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", tc.values, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestInputsAreSeeded(t *testing.T) {
	a := newInputs(20, 7, time.Second, 10*time.Second)
	b := newInputs(20, 7, time.Second, 10*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two calls with one seed gave different inputs")
	}
	c := newInputs(20, 8, time.Second, 10*time.Second)
	if a.xml == c.xml || reflect.DeepEqual(a.edits, c.edits) || reflect.DeepEqual(a.window, c.window) {
		t.Fatal("another seed gave the same inputs")
	}
	for i, sched := range [][]time.Duration{a.window.writer, a.window.reader} {
		if want := int(10 * []float64{writerRate, readerRate}[i]); len(sched) != want {
			t.Errorf("window schedule has %d arrivals, want %d", len(sched), want)
		}
		for i, d := range sched {
			if d < 0 || d >= 10*time.Second || (i > 0 && d < sched[i-1]) {
				t.Fatalf("schedule not sorted within the window at %d: %v", i, d)
			}
		}
	}
	if len(a.edits) != len(a.warm.writer)+len(a.window.writer) {
		t.Errorf("%d edits for %d writes", len(a.edits), len(a.warm.writer)+len(a.window.writer))
	}
}

func TestEditStreamMix(t *testing.T) {
	edits := editStream(rand.New(rand.NewPCG(1, 2)), 5, 100)
	fnames := 0
	last := map[int]int{}
	for _, e := range edits {
		switch e.field {
		case "Fname":
			fnames++
			if len(e.text) == last[e.folder] {
				t.Errorf("first-name edit of folder %d keeps length %d", e.folder, len(e.text))
			}
			last[e.folder] = len(e.text)
		case "Phone":
			if len(e.text) != 10 {
				t.Errorf("phone edit of length %d", len(e.text))
			}
		}
	}
	if fnames != 70 {
		t.Errorf("%d first-name edits in 100, want 70", fnames)
	}
	mix := weightedMix(rand.New(rand.NewPCG(1, 2)), physicianWeights, 32)
	counts := make([]int, len(physicianWeights))
	for _, k := range mix {
		counts[k]++
	}
	for i, w := range physicianWeights {
		if counts[i] != 2*w {
			t.Errorf("physician %d drawn %d times in two blocks, want %d", i, counts[i], 2*w)
		}
	}
}

// fakeClock advances only when the code under test sleeps or an operation
// says how long it took.
type fakeClock struct{ now time.Time }

func (f *fakeClock) Now() time.Time { return f.now }

func (f *fakeClock) SleepUntil(t time.Time) {
	if t.After(f.now) {
		f.now = t
	}
}

func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	start := clk.now
	c := &client{op: func(*sample) { clk.now = clk.now.Add(25 * time.Millisecond) }}
	due := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 100 * time.Millisecond}
	got := openLoop(clk, c, start, due)
	// Each operation takes 25 ms: the second and third wait behind the
	// first, the fourth is sent on time.
	wantLatency := []time.Duration{25, 40, 55, 25}
	wantLag := []time.Duration{0, 15, 30, 0}
	for i, s := range got {
		if s.latency() != wantLatency[i]*time.Millisecond || s.lag() != wantLag[i]*time.Millisecond {
			t.Errorf("op %d: latency %v lag %v, want %v and %v", i, s.latency(), s.lag(),
				wantLatency[i]*time.Millisecond, wantLag[i]*time.Millisecond)
		}
	}

	clk.now = start
	closed := closedLoop(clk, c, start, start.Add(60*time.Millisecond))
	if len(closed) != 3 {
		t.Fatalf("closed loop issued %d operations in 60 ms of 25 ms each, want 3", len(closed))
	}
	for i, s := range closed {
		if s.latency() != 25*time.Millisecond || s.lag() != 0 {
			t.Errorf("closed op %d: latency %v lag %v, want 25ms and 0", i, s.latency(), s.lag())
		}
	}
}

func TestCorruptedViewIsOracleMismatch(t *testing.T) {
	in := newInputs(20, 3, time.Second, time.Second)
	doc, err := xmlac.ParseDocumentString(in.xml)
	if err != nil {
		t.Fatal(err)
	}
	key := xmlac.DeriveKey(passphrase)
	prot, err := xmlac.Protect(doc, key, xmlac.SchemeECBMHT)
	if err != nil {
		t.Fatal(err)
	}
	want, err := expectedView(doc, xmlac.SecretaryPolicy())
	if err != nil {
		t.Fatal(err)
	}
	var view bytes.Buffer
	if _, err := prot.StreamAuthorizedView(key, xmlac.SecretaryPolicy(), xmlac.ViewOptions{}, &view); err != nil {
		t.Fatal(err)
	}
	good := &sample{want: want, got: digestOf(view.String())}
	good.check()
	if good.err != nil {
		t.Fatalf("intact view: %v", good.err)
	}
	corrupted := view.Bytes()
	corrupted[len(corrupted)/2] ^= 1
	bad := &sample{want: want, got: digestOf(string(corrupted))}
	bad.check()
	if !errors.Is(bad.err, errMismatch) || errorClass(bad.err) != "oracle mismatch" {
		t.Fatalf("corrupted view: err %v", bad.err)
	}
}

func TestStoreUpdateViewsCheckedByVersion(t *testing.T) {
	in := newInputs(20, 3, time.Second, time.Second)
	e := &env{in: in, policies: secretary()}
	wr := &writer{e: e, acked: map[uint64]int{2: 0}}
	doc, err := xmlac.ParseDocumentString(in.xml)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := expectedView(doc, xmlac.SecretaryPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if err := doc.ApplyEdits(in.edits[0].xmlacEdit()); err != nil {
		t.Fatal(err)
	}
	v2, err := expectedView(doc, xmlac.SecretaryPolicy())
	if err != nil {
		t.Fatal(err)
	}
	samples := []*sample{
		{version: 1, got: v1},
		{version: 2, got: v2},
		{version: 2, got: v1}, // a stale view labelled with the new version
		{version: 3, got: v2}, // no acknowledged edit leads to version 3
	}
	if err := wr.verify(samples); err != nil {
		t.Fatal(err)
	}
	for i, want := range []error{nil, nil, errMismatch, errUnknownVersion} {
		if (want == nil && samples[i].err != nil) || (want != nil && !errors.Is(samples[i].err, want)) {
			t.Errorf("sample %d: err %v, want %v", i, samples[i].err, want)
		}
	}
}

func TestCompareDecision(t *testing.T) {
	lower := specMetric{Name: "op_p50_ms", Better: "lower", Bound: 0.1}
	parent := []float64{100, 101, 102, 103, 104, 105, 106, 107, 108, 109}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(parent))
		for i, v := range parent {
			out[i] = v * f
		}
		return out
	}
	pairs := func(parent, change []float64) [][2]float64 {
		out := make([][2]float64, len(parent))
		for i := range parent {
			out[i] = [2]float64{parent[i], change[i]}
		}
		return out
	}
	noisy := []float64{60, 80, 90, 100, 105, 110, 120, 130, 150, 170}
	for _, tc := range []struct {
		name           string
		parent, change []float64
		want           string
	}{
		{"faster everywhere", parent, scaled(0.8), verdictBetter},
		{"unchanged", parent, parent, verdictSame},
		{"slower within the bound", parent, scaled(1.05), verdictSame},
		{"slower beyond the bound", parent, scaled(1.3), verdictWorse},
		{"noisy parent", noisy, []float64{70, 85, 95, 104, 110, 118, 125, 135, 160, 175}, verdictUnresolved},
	} {
		got, _ := decide(tc.parent, tc.change, pairs(tc.parent, tc.change), lower)
		if got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
	higher := specMetric{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	if got, wins := decide(parent, scaled(1.2), pairs(parent, scaled(1.2)), higher); got != verdictBetter || wins != 10 {
		t.Errorf("higher is better: %s with %d wins", got, wins)
	}
	// Five pairs are too few to rule on, however clear they look.
	for _, f := range []float64{0.8, 1.3} {
		p, c := parent[:5], scaled(f)[:5]
		if got, _ := decide(p, c, pairs(p, c), lower); got != verdictUnresolved {
			t.Errorf("5 pairs scaled by %g: %s, want %s", f, got, verdictUnresolved)
		}
	}
}

// localDoctorRun is the header of a synthetic local-doctor run.
func localDoctorRun(seed uint64, h host) runHeader {
	var hdr runHeader
	hdr.Run.Workload, hdr.Run.Seed, hdr.Run.Seconds, hdr.Run.Folders, hdr.Host = "local-doctor", seed, 15, 160, h
	return hdr
}

// writeRun saves a synthetic run output the way a run prints it.
func writeRun(t *testing.T, dir string, hdr runHeader, value float64) {
	t.Helper()
	var out bytes.Buffer
	line, _ := json.Marshal(hdr)
	out.Write(append(line, '\n'))
	res := &result{Correct: true, Attempted: 1}
	if err := printMetrics(&out, res, []metric{{"op_p50_ms", "ms", value}}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-%d.txt", hdr.Run.Workload, hdr.Run.Seed)), out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCompareDirs(t *testing.T) {
	root := t.TempDir()
	spec := filepath.Join(root, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end":[{"name":"op_p50_ms","unit":"ms","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	dirs := map[string]string{}
	for _, name := range []string{"parent", "change", "other host", "longer", "larger", "few"} {
		dirs[name] = filepath.Join(root, name)
		if err := os.Mkdir(dirs[name], 0o755); err != nil {
			t.Fatal(err)
		}
	}
	parent, change := dirs["parent"], dirs["change"]
	h := hostFingerprint()
	for seed := uint64(1); seed <= 10; seed++ {
		writeRun(t, parent, localDoctorRun(seed, h), 100+float64(seed))
		writeRun(t, change, localDoctorRun(seed, h), 80+float64(seed))
		elsewhere := h
		elsewhere.CPU = "another processor"
		writeRun(t, dirs["other host"], localDoctorRun(seed, elsewhere), 80+float64(seed))
		longer := localDoctorRun(seed, h)
		longer.Run.Seconds = 30
		writeRun(t, dirs["longer"], longer, 80+float64(seed))
		larger := localDoctorRun(seed, h)
		larger.Run.Folders = 320
		writeRun(t, dirs["larger"], larger, 80+float64(seed))
		if seed <= 5 {
			writeRun(t, dirs["few"], localDoctorRun(seed, h), 80+float64(seed))
		}
	}
	var out bytes.Buffer
	if err := compareDirs(&out, spec, parent, change); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "10/10  better") {
		t.Errorf("comparison output lacks the win:\n%s", out.String())
	}
	if err := compareDirs(&out, spec, change, parent); err == nil {
		t.Error("a regression beyond the bound was not reported")
	}
	if err := compareDirs(&out, spec, parent, dirs["other host"]); err == nil || !strings.Contains(err.Error(), "different hosts") {
		t.Errorf("results from another host were compared: %v", err)
	}
	for _, name := range []string{"longer", "larger"} {
		if err := compareDirs(&out, spec, parent, dirs[name]); err == nil || !strings.Contains(err.Error(), "different settings") {
			t.Errorf("%s runs were compared: %v", name, err)
		}
	}
	out.Reset()
	if err := compareDirs(&out, spec, parent, dirs["few"]); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "5/5  unresolved (5 seed pairs, needs 10)") {
		t.Errorf("five seed pairs were ruled on:\n%s", out.String())
	}
}

func TestRequireCounters(t *testing.T) {
	full := `{"uptime_seconds": 1,
		"updates": {"applied": 1, "bytes_reencrypted": 2, "bytes_reused": 3},
		"storage": {"enabled": true, "wal_bytes": 1, "wal_appends": 1, "fsyncs": 1, "group_commits": 0, "checkpoints": 0}}`
	if err := requireCounters([]byte(full), true); err != nil {
		t.Errorf("complete counters: %v", err)
	}
	inMemory := `{"updates": {"applied": 1, "bytes_reencrypted": 2, "bytes_reused": 3}, "storage": {"enabled": false}}`
	if err := requireCounters([]byte(inMemory), false); err != nil {
		t.Errorf("in-memory server: %v", err)
	}
	for _, tc := range []struct {
		body    string
		durable bool
		missing string
	}{
		{strings.Replace(full, `"fsyncs"`, `"fsync_count"`, 1), true, "storage.fsyncs"},
		{inMemory, true, "storage.wal_bytes"},
		{`{"storage": {"enabled": false}}`, false, `"updates"`},
	} {
		if err := requireCounters([]byte(tc.body), tc.durable); err == nil || !strings.Contains(err.Error(), tc.missing) {
			t.Errorf("want an error naming %s, got %v", tc.missing, err)
		}
	}
}

// benchmarkSpec reads the metric names BENCHMARK.json declares.
func benchmarkSpec(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []specMetric `json:"end_to_end"`
		PerLayer []specMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// layerWork names, per workload, the per-layer metrics that must not read 0
// even on the smoke test's small document: the ones that would fall to 0
// if the public API or the server's counters the benchmark reads changed
// under it.
var layerWork = map[string][]string{
	"local-secretary":  {"skipindex.decode_ms_per_view", "core.nodes_permitted_per_view", "xmlstream.view_kib_per_view", "secure.decrypted_kib_per_view"},
	"local-doctor":     {"skipindex.decode_ms_per_view", "core.nodes_permitted_per_view", "xmlstream.view_kib_per_view", "secure.decrypted_kib_per_view"},
	"remote-secretary": {"skipindex.decode_ms_per_view", "remote.wire_kib_per_view", "remote.round_trips_per_view", "remote.page_hit_frac"},
	"store-update":     {"skipindex.decode_ms_per_view", "remote.round_trips_per_view", "server.busy_share", "secure.reenc_frac", "storage.fsyncs_per_update"},
}

// TestSmoke runs every workload briefly on a small document, traced and
// untraced, and checks that every view was correct, every metric
// BENCHMARK.json declares is printed with its unit, and the layers each
// workload exercises report work.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	t.Setenv("TMPDIR", t.TempDir())
	endToEnd, perLayer := benchmarkSpec(t)
	for _, w := range workloads {
		for trace, want := range []map[string]string{endToEnd, perLayer} {
			var stdout, stderr bytes.Buffer
			cfg := config{workload: w.name, seed: 5, seconds: 0.6, trace: trace == 1, folders: 20}
			if err := runWorkload(cfg, &stdout, &stderr); err != nil {
				t.Fatalf("%s trace=%d: %v: %s", w.name, trace, err, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%d: last line: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d\n%s", w.name, trace, res.Correct, res.Attempted, res.Failed, stdout.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, BENCHMARK.json declares %d", w.name, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				if got, ok := res.Metrics[name]; !ok || got.Unit != unit {
					t.Errorf("%s trace=%d: metric %s = %+v, want unit %s", w.name, trace, name, got, unit)
				}
			}
			if trace == 0 {
				for name := range endToEnd {
					if res.Metrics[name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %g", w.name, name, res.Metrics[name].Value)
					}
				}
				continue
			}
			for _, name := range layerWork[w.name] {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("%s: per-layer metric %s = %g", w.name, name, res.Metrics[name].Value)
				}
			}
		}
	}
}

// TestFlags checks the command line: the flags the benchmark is run with
// parse, and the document size cannot be changed from it.
func TestFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "local-doctor", "--folders", "20"}, &stdout, &stderr); code != 2 {
		t.Errorf("--folders: exit %d, want 2", code)
	}
	if code := run([]string{"--workload", "no-such-workload", "--seed", "1", "--seconds", "1", "--trace", "0"}, &stdout, &stderr); code != 1 ||
		!strings.Contains(stderr.String(), "unknown workload") {
		t.Errorf("unknown workload: exit %d: %s", code, stderr.String())
	}
}
