package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"xmlac"
)

const sampleTrajectory = `{"time":"2026-07-29T14:18:53Z","commit":"09c3078","source":"seed","scale":1,"go":"go1.22","results":[{"name":"StreamingView/secretary/streaming","iters":27,"ns_per_op":54854742,"bytes_per_op":17803313,"allocs_per_op":292884,"mb_per_view":0.139}]}
{"time":"2026-07-29T15:28:24Z","commit":"80a025f","source":"seed","scale":1,"go":"go1.22","results":[{"name":"StreamingView/secretary/streaming","iters":30,"ns_per_op":49854742,"bytes_per_op":17803313,"allocs_per_op":292884,"mb_per_view":0.139},{"name":"Update/inplace","iters":393,"ns_per_op":2835293,"bytes_per_op":4621999,"allocs_per_op":299,"mb_per_view":0,"reenc_frac":0.0009},{"name":"ParallelScan/doctor/workers=1","iters":1,"ns_per_op":4000000000,"bytes_per_op":1,"allocs_per_op":1,"mb_per_view":13.7},{"name":"ParallelScan/doctor/workers=2","iters":1,"ns_per_op":2100000000,"bytes_per_op":1,"allocs_per_op":1,"mb_per_view":13.7},{"name":"ParallelScan/doctor/workers=4","iters":1,"ns_per_op":1250000000,"bytes_per_op":1,"allocs_per_op":1,"mb_per_view":13.7}]}
`

const sampleTrace = `{"trace_id":"t-merged","span_id":"c1c1c1c1c1c1c1c1","parent":"root00000000aaaa","name":"phase:decrypt","start":"2026-08-07T00:00:00Z","dur_ns":12000000}
{"trace_id":"t-merged","span_id":"c2c2c2c2c2c2c2c2","parent":"root00000000aaaa","name":"phase:eval","start":"2026-08-07T00:00:00.012Z","dur_ns":30000000}
{"trace_id":"t-merged","span_id":"c3c3c3c3c3c3c3c3","parent":"root00000000aaaa","name":"phase:resync","start":"2026-08-07T00:00:00.042Z","dur_ns":1000000}
{"trace_id":"t-merged","span_id":"s1s1s1s1s1s1s1s1","parent":"root00000000aaaa","name":"server.fetch","start":"2026-08-07T00:00:00.001Z","dur_ns":8000000,"seq":1}
{"trace_id":"t-merged","span_id":"s2s2s2s2s2s2s2s2","parent":"root00000000aaaa","name":"server.manifest","start":"2026-08-07T00:00:00.000Z","dur_ns":2000000,"seq":2}
`

const sampleCosts = `{"entries":[{"subject":"secretary","policy":"abcdef0123456789","views":2,"errors":0,"wire_bytes":4096,"bytes_decrypted":8192,"phases":{"EvalNs":1000000}}],"other":{"subject":"other","views":1,"wire_bytes":100},"distinct":2,"collapsed":0}`

func writeInputs(t *testing.T) (traj, trace, costs string) {
	t.Helper()
	dir := t.TempDir()
	traj = filepath.Join(dir, "traj.jsonl")
	trace = filepath.Join(dir, "trace.jsonl")
	costs = filepath.Join(dir, "costs.json")
	for path, content := range map[string]string{
		traj: sampleTrajectory, trace: sampleTrace, costs: sampleCosts,
	} {
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return traj, trace, costs
}

// TestReportSelfContained renders a full report and pins the acceptance
// criterion: the HTML references no external asset — no script/img/link
// sources, no CSS imports or url() fetches — so it renders offline.
func TestReportSelfContained(t *testing.T) {
	traj, trace, costs := writeInputs(t)
	out := filepath.Join(t.TempDir(), "report.html")
	if err := run(traj, trace, costs, out, true); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	page := string(raw)

	for _, banned := range []string{"<script", "<link", "<img", "<iframe", "@import", "url(", "src="} {
		if strings.Contains(page, banned) {
			t.Errorf("external-asset marker %q found in report", banned)
		}
	}
	// No URL anywhere outside SVG's xmlns-free inline markup.
	if re := regexp.MustCompile(`https?://`); re.MatchString(page) {
		t.Errorf("network URL found in report: %s", re.FindString(page))
	}

	for _, want := range []string{
		"xmlac performance observatory",
		"StreamingView/secretary/streaming", // trajectory panel
		"Update/inplace",
		"<svg",               // charts are inline SVG
		"client SOE",         // trace lanes
		"untrusted server",   //
		"phase breakdown",    //
		"other (resync",      // beyond-palette phase folded and named in the table
		"secretary",          // costs table
		"abcdef012345…",      // policy fingerprint shortened
		"2 distinct",         // registry shape note
		"var(--s1)",          // series color applied via tokens
		"stroke-width=\"2\"", // 2px line spec
	} {
		if !strings.Contains(page, want) {
			t.Errorf("report misses %q", want)
		}
	}
	// Tooltips ride the marks; values are not gated on them (tables exist).
	if !strings.Contains(page, "<title>80a025f") {
		t.Error("trajectory markers carry no hover tooltip")
	}
	if strings.Count(page, "<table>") < 3 {
		t.Error("every chart needs its table view")
	}
}

// TestReportParallelScaling pins the workers-vs-throughput small multiple:
// one panel per profile from the newest entry's ParallelScan results, x ticks
// at the worker counts, speedup vs the serial arm direct-labeled and tabled.
func TestReportParallelScaling(t *testing.T) {
	traj, _, _ := writeInputs(t)
	out := filepath.Join(t.TempDir(), "report.html")
	if err := run(traj, "", "", out, false); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	page := string(raw)
	for _, want := range []string{
		"Parallel scan — workers vs throughput",
		"ParallelScan/doctor — views/s by workers",
		"4 workers · 0.80 views/s", // tooltip: 1e9/1.25e9 s
		"3.20×",                    // 4.0s serial / 1.25s at 4 workers
		"GOMAXPROCS",               // the honesty note
	} {
		if !strings.Contains(page, want) {
			t.Errorf("report misses %q", want)
		}
	}
	// The section is driven purely by result names: a trajectory without
	// ParallelScan entries renders no scaling section (the first entry here
	// has none, so a single-entry trajectory must omit it).
	single := filepath.Join(t.TempDir(), "single.jsonl")
	firstLine, _, _ := strings.Cut(sampleTrajectory, "\n")
	if err := os.WriteFile(single, []byte(firstLine+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out2 := filepath.Join(t.TempDir(), "report2.html")
	if err := run(single, "", "", out2, false); err != nil {
		t.Fatal(err)
	}
	raw2, err := os.ReadFile(out2)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw2), "workers vs throughput") {
		t.Error("scaling section rendered without ParallelScan results")
	}
}

// TestReportPartialInputs: each input is optional; any subset renders.
func TestReportPartialInputs(t *testing.T) {
	traj, _, _ := writeInputs(t)
	out := filepath.Join(t.TempDir(), "report.html")
	if err := run(traj, "", "", out, false); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "Benchmark trajectory") {
		t.Error("trajectory section missing")
	}
	if strings.Contains(string(raw), "phase breakdown") {
		t.Error("trace section rendered without a trace input")
	}
}

// TestCheckMerged pins the e2e gate: parent linkage between a client eval
// span and a server fetch span under one trace ID, and the failure modes.
func TestCheckMerged(t *testing.T) {
	now := time.Now()
	client := xmlac.TraceSpan{TraceID: "t1", SpanID: "cccc", Parent: "root", Name: "phase:eval", Start: now, Dur: time.Millisecond}
	linked := xmlac.TraceSpan{TraceID: "t1", SpanID: "ssss", Parent: "root", Name: "server.fetch", Start: now, Dur: time.Millisecond}

	if err := checkMerged([]xmlac.TraceSpan{client, linked}); err != nil {
		t.Fatalf("linked merged trace rejected: %v", err)
	}

	// Server span parented to the client span ID directly also links.
	direct := linked
	direct.Parent = "cccc"
	if err := checkMerged([]xmlac.TraceSpan{client, direct}); err != nil {
		t.Fatalf("span-ID-parented trace rejected: %v", err)
	}

	// No server span at all.
	if err := checkMerged([]xmlac.TraceSpan{client}); err == nil {
		t.Fatal("client-only trace accepted")
	}
	// Server span without parent linkage.
	unlinked := linked
	unlinked.Parent = ""
	if err := checkMerged([]xmlac.TraceSpan{client, unlinked}); err == nil {
		t.Fatal("unlinked server span accepted")
	}
	// Different trace IDs never merge.
	foreign := linked
	foreign.TraceID = "t2"
	if err := checkMerged([]xmlac.TraceSpan{client, foreign}); err == nil {
		t.Fatal("cross-trace spans accepted as merged")
	}
}
