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

const sampleTrace = `{"trace_id":"t-merged","span_id":"c1c1c1c1c1c1c1c1","parent":"root00000000aaaa","name":"phase:decrypt","start":"2026-08-07T00:00:00Z","dur_ns":12000000}
{"trace_id":"t-merged","span_id":"c2c2c2c2c2c2c2c2","parent":"root00000000aaaa","name":"phase:eval","start":"2026-08-07T00:00:00.012Z","dur_ns":30000000}
{"trace_id":"t-merged","span_id":"c3c3c3c3c3c3c3c3","parent":"root00000000aaaa","name":"phase:resync","start":"2026-08-07T00:00:00.042Z","dur_ns":1000000}
{"trace_id":"t-merged","span_id":"s1s1s1s1s1s1s1s1","parent":"root00000000aaaa","name":"server.fetch","start":"2026-08-07T00:00:00.001Z","dur_ns":8000000,"seq":1}
{"trace_id":"t-merged","span_id":"s2s2s2s2s2s2s2s2","parent":"root00000000aaaa","name":"server.manifest","start":"2026-08-07T00:00:00.000Z","dur_ns":2000000,"seq":2}
`

func writeInputs(t *testing.T) (trace string) {
	t.Helper()
	trace = filepath.Join(t.TempDir(), "trace.jsonl")
	if err := os.WriteFile(trace, []byte(sampleTrace), 0o644); err != nil {
		t.Fatal(err)
	}
	return trace
}

// TestReportSelfContained renders a full report and pins the acceptance
// criterion: the HTML references no external asset — no script/img/link
// sources, no CSS imports or url() fetches — so it renders offline.
func TestReportSelfContained(t *testing.T) {
	trace := writeInputs(t)
	out := filepath.Join(t.TempDir(), "report.html")
	if err := run(trace, out, true); err != nil {
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
		"xmlac trace report",
		"<svg",             // charts are inline SVG
		"client SOE",       // trace lanes
		"untrusted server", //
		"phase breakdown",  //
		"other (resync",    // beyond-palette phase folded and named in the table
		"var(--s1)",        // series color applied via tokens
	} {
		if !strings.Contains(page, want) {
			t.Errorf("report misses %q", want)
		}
	}
	if strings.Count(page, "<table>") < strings.Count(page, "<svg") {
		t.Error("every chart needs its table view")
	}
}

// TestReportPartialInputs: the trace input is optional; the page renders
// without it.
func TestReportPartialInputs(t *testing.T) {
	out := filepath.Join(t.TempDir(), "report.html")
	if err := run("", out, false); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
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
