package main

import (
	"fmt"
	"html"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"xmlac"
	"xmlac/internal/bench"
)

// The HTML observatory. Everything is rendered server-side into inline
// markup, CSS custom properties and SVG: no scripts, no external stylesheets,
// fonts or images, so the artifact is readable offline. Chart conventions:
// thin marks (2px lines, 20px bars with 4px rounded data-ends), hairline
// solid gridlines, a 2px surface gap between stacked segments and a 2px
// surface ring on markers, text in ink tokens (never the series color), and a
// table view next to every chart so no value is gated behind color or hover.

// reportData is everything the page renders; any section's input may be nil.
type reportData struct {
	Generated      string
	Trajectory     []bench.TrajectoryEntry
	Spans          []xmlac.TraceSpan
	TrajectoryPath string
	TracePath      string
}

// The categorical palette (validated order — see the phase slot list): light
// and dark steps of the same eight hues, swapped by prefers-color-scheme.
const pageCSS = `
:root { color-scheme: light dark; }
body {
  margin: 0; padding: 24px;
  background: #f9f9f7; color: #0b0b0b;
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
}
.report { max-width: 1000px; margin: 0 auto;
  --surface: #fcfcfb; --ink: #0b0b0b; --ink2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7; --border: rgba(11,11,11,0.10);
  --good: #006300; --bad: #d03b3b;
  --s1: #2a78d6; --s2: #eb6834; --s3: #1baf7a; --s4: #eda100;
  --s5: #e87ba4; --s6: #008300; --s7: #4a3aa7; --s8: #e34948;
}
@media (prefers-color-scheme: dark) {
  body { background: #0d0d0d; color: #ffffff; }
  .report {
    --surface: #1a1a19; --ink: #ffffff; --ink2: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --axis: #383835; --border: rgba(255,255,255,0.10);
    --good: #0ca30c; --bad: #d03b3b;
    --s1: #3987e5; --s2: #d95926; --s3: #199e70; --s4: #c98500;
    --s5: #d55181; --s6: #008300; --s7: #9085e9; --s8: #e66767;
  }
}
h1 { font-size: 22px; margin: 0 0 4px; }
h2 { font-size: 16px; margin: 32px 0 12px; }
.sub { color: var(--ink2); margin: 0 0 20px; }
.card { background: var(--surface); border: 1px solid var(--border);
  border-radius: 12px; padding: 16px; }
.tiles { display: grid; grid-template-columns: repeat(auto-fit, minmax(220px, 1fr));
  gap: 12px; }
.tile .label { color: var(--ink2); font-size: 12px; }
.tile .value { font-size: 28px; font-weight: 600; margin: 2px 0; }
.tile .delta { font-size: 12px; color: var(--ink2); }
.tile .delta .pct { font-weight: 600; }
.tile .delta.good .pct { color: var(--good); }
.tile .delta.bad .pct { color: var(--bad); }
.panels { display: grid; grid-template-columns: repeat(auto-fill, minmax(320px, 1fr));
  gap: 12px; }
.panel .name { font-size: 12px; color: var(--ink2); margin-bottom: 4px;
  overflow-wrap: anywhere; }
svg { max-width: 100%; height: auto; }
svg text { font: 10px system-ui, -apple-system, "Segoe UI", sans-serif;
  font-variant-numeric: tabular-nums; fill: var(--muted); }
svg text.val { font-size: 11px; font-weight: 600; fill: var(--ink2); }
svg .mark:hover { opacity: 0.8; }
.legend { display: flex; flex-wrap: wrap; gap: 4px 16px; margin: 8px 0;
  font-size: 12px; color: var(--ink2); }
.legend .key { display: inline-flex; align-items: center; gap: 6px; }
.legend .sw { width: 12px; height: 12px; border-radius: 3px; display: inline-block; }
table { border-collapse: collapse; width: 100%; font-size: 13px; }
th { text-align: left; color: var(--ink2); font-weight: 600; }
th, td { padding: 6px 10px; border-bottom: 1px solid var(--grid); }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
tr:last-child td { border-bottom: none; }
.note { color: var(--muted); font-size: 12px; margin-top: 8px; }
footer { color: var(--muted); font-size: 12px; margin-top: 32px; }
`

// phaseSlots is the fixed categorical assignment: phase identity -> palette
// slot, the same on every report (color follows the entity, never its rank).
// Phases beyond the eight slots fold into a gray "other" segment — hues are
// never generated past the validated palette.
var phaseSlots = []string{"decrypt", "verify", "decode", "skip", "eval", "emit", "fetch", "server.fetch"}

func slotOf(phase string) int {
	for i, p := range phaseSlots {
		if p == phase {
			return i + 1
		}
	}
	return 0 // other
}

func esc(s string) string { return html.EscapeString(s) }

// fmtNs renders a duration given in nanoseconds at glanceable precision.
func fmtNs(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2f s", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.1f ms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1f µs", ns/1e3)
	default:
		return fmt.Sprintf("%.0f ns", ns)
	}
}

// niceCeil rounds up to a clean 1/2/5 step for axis maxima.
func niceCeil(v float64) float64 {
	if v <= 0 {
		return 1
	}
	mag := 1.0
	for mag*10 <= v {
		mag *= 10
	}
	for _, m := range []float64{1, 2, 5, 10} {
		if v <= m*mag {
			return m * mag
		}
	}
	return 10 * mag
}

func renderHTML(w io.Writer, d *reportData) error {
	var b strings.Builder
	b.WriteString("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n")
	b.WriteString("<meta name=\"viewport\" content=\"width=device-width, initial-scale=1\">\n")
	b.WriteString("<title>xmlac performance observatory</title>\n<style>")
	b.WriteString(pageCSS)
	b.WriteString("</style>\n</head>\n<body>\n<div class=\"report\">\n")
	b.WriteString("<h1>xmlac performance observatory</h1>\n")
	fmt.Fprintf(&b, "<p class=\"sub\">Generated %s.</p>\n", esc(d.Generated))

	if len(d.Trajectory) > 0 {
		writeTiles(&b, d.Trajectory)
		writeTrajectory(&b, d.Trajectory)
		writeParallelScaling(&b, d.Trajectory)
	}
	if len(d.Spans) > 0 {
		writeTraceSection(&b, d.Spans)
	}

	b.WriteString("<footer>Inputs:")
	for _, p := range []string{d.TrajectoryPath, d.TracePath} {
		if p != "" {
			fmt.Fprintf(&b, " %s", esc(p))
		}
	}
	b.WriteString("</footer>\n</div>\n</body>\n</html>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// headline benchmarks for the stat tiles, in display order. Lower is better
// for all of them (ns/op), so a negative delta renders as good.
var tileBenchmarks = []struct{ name, label string }{
	{"StreamingView/secretary/streaming", "Streaming view (secretary)"},
	{"SharedScan/multicast/subjects=64", "Shared scan, 64 subjects"},
	{"Update/inplace", "In-place update"},
}

func resultOf(e bench.TrajectoryEntry, name string) (bench.Result, bool) {
	for _, r := range e.Results {
		if r.Name == name {
			return r, true
		}
	}
	return bench.Result{}, false
}

func writeTiles(b *strings.Builder, entries []bench.TrajectoryEntry) {
	newest := entries[len(entries)-1]
	var tiles []string
	for _, tb := range tileBenchmarks {
		cur, ok := resultOf(newest, tb.name)
		if !ok {
			continue
		}
		var t strings.Builder
		fmt.Fprintf(&t, "<div class=\"card tile\"><div class=\"label\">%s</div>", esc(tb.label))
		fmt.Fprintf(&t, "<div class=\"value\">%s</div>", esc(fmtNs(cur.NsPerOp)))
		// Delta vs the most recent earlier entry that measured this benchmark.
		for i := len(entries) - 2; i >= 0; i-- {
			if prev, ok := resultOf(entries[i], tb.name); ok && prev.NsPerOp > 0 {
				pct := (cur.NsPerOp - prev.NsPerOp) / prev.NsPerOp * 100
				cls, arrow := "good", "▼"
				if pct > 0 {
					cls, arrow = "bad", "▲"
				}
				fmt.Fprintf(&t, "<div class=\"delta %s\"><span class=\"pct\">%s %+.1f%%</span> vs %s</div>",
					cls, arrow, pct, esc(entries[i].Commit))
				break
			}
		}
		t.WriteString("</div>")
		tiles = append(tiles, t.String())
	}
	if len(tiles) == 0 {
		return
	}
	b.WriteString("<div class=\"tiles\">\n")
	for _, t := range tiles {
		b.WriteString(t)
		b.WriteString("\n")
	}
	b.WriteString("</div>\n")
}

// writeTrajectory renders one small-multiple panel per benchmark: a single
// blue ns/op line over the trajectory's entries. One series per panel, so no
// legend; the latest value is direct-labeled at the line end and every point
// carries a hover tooltip. A table view of the newest entry follows.
func writeTrajectory(b *strings.Builder, entries []bench.TrajectoryEntry) {
	// Panel order: the newest entry's result order, then earlier-only names.
	var names []string
	seen := map[string]bool{}
	for i := len(entries) - 1; i >= 0; i-- {
		for _, r := range entries[i].Results {
			if !seen[r.Name] {
				seen[r.Name] = true
				names = append(names, r.Name)
			}
		}
	}
	b.WriteString("<h2>Benchmark trajectory</h2>\n<div class=\"panels\">\n")
	for _, name := range names {
		writeLinePanel(b, name, entries)
	}
	b.WriteString("</div>\n")
	writeTrajectoryTable(b, entries)
}

func writeLinePanel(b *strings.Builder, name string, entries []bench.TrajectoryEntry) {
	type pt struct {
		commit, when string
		ns           float64
	}
	var pts []pt
	for _, e := range entries {
		if r, ok := resultOf(e, name); ok && r.NsPerOp > 0 {
			pts = append(pts, pt{commit: e.Commit, when: e.Time, ns: r.NsPerOp})
		}
	}
	if len(pts) == 0 {
		return
	}
	const (
		width, height = 340, 150
		left, right   = 44, 70
		top, bottom   = 10, 24
	)
	plotW, plotH := float64(width-left-right), float64(height-top-bottom)
	maxNs := 0.0
	for _, p := range pts {
		if p.ns > maxNs {
			maxNs = p.ns
		}
	}
	yMax := niceCeil(maxNs)
	x := func(i int) float64 {
		if len(pts) == 1 {
			return float64(left) + plotW/2
		}
		return float64(left) + plotW*float64(i)/float64(len(pts)-1)
	}
	y := func(ns float64) float64 { return float64(top) + plotH*(1-ns/yMax) }

	fmt.Fprintf(b, "<div class=\"card panel\"><div class=\"name\">%s</div>\n", esc(name))
	fmt.Fprintf(b, "<svg viewBox=\"0 0 %d %d\" width=\"%d\" height=\"%d\" role=\"img\" aria-label=\"%s ns/op over commits\">\n",
		width, height, width, height, esc(name))
	// Hairline gridlines at the max and midpoint; the baseline as the axis.
	for _, tick := range []float64{yMax, yMax / 2} {
		ty := y(tick)
		fmt.Fprintf(b, "<line x1=\"%d\" y1=\"%.1f\" x2=\"%d\" y2=\"%.1f\" stroke=\"var(--grid)\" stroke-width=\"1\"/>\n",
			left, ty, width-right, ty)
		fmt.Fprintf(b, "<text x=\"%d\" y=\"%.1f\" text-anchor=\"end\">%s</text>\n", left-6, ty+3, esc(fmtNs(tick)))
	}
	fmt.Fprintf(b, "<line x1=\"%d\" y1=\"%.1f\" x2=\"%d\" y2=\"%.1f\" stroke=\"var(--axis)\" stroke-width=\"1\"/>\n",
		left, y(0), width-right, y(0))
	// The series line.
	if len(pts) > 1 {
		var poly strings.Builder
		for i, p := range pts {
			fmt.Fprintf(&poly, "%.1f,%.1f ", x(i), y(p.ns))
		}
		fmt.Fprintf(b, "<polyline points=\"%s\" fill=\"none\" stroke=\"var(--s1)\" stroke-width=\"2\" stroke-linejoin=\"round\" stroke-linecap=\"round\"/>\n",
			strings.TrimSpace(poly.String()))
	}
	// Markers with a 2px surface ring and a hover tooltip each.
	for i, p := range pts {
		fmt.Fprintf(b, "<circle class=\"mark\" cx=\"%.1f\" cy=\"%.1f\" r=\"4\" fill=\"var(--s1)\" stroke=\"var(--surface)\" stroke-width=\"2\"><title>%s · %s (%s)</title></circle>\n",
			x(i), y(p.ns), esc(p.commit), esc(fmtNs(p.ns)), esc(p.when))
	}
	// Direct label at the line end: the latest value.
	last := pts[len(pts)-1]
	fmt.Fprintf(b, "<text class=\"val\" x=\"%.1f\" y=\"%.1f\">%s</text>\n",
		x(len(pts)-1)+8, y(last.ns)+4, esc(fmtNs(last.ns)))
	// Commit labels: first and last only, so they never collide.
	fmt.Fprintf(b, "<text x=\"%.1f\" y=\"%d\" text-anchor=\"start\">%s</text>\n",
		x(0), height-8, esc(pts[0].commit))
	if len(pts) > 1 {
		fmt.Fprintf(b, "<text x=\"%.1f\" y=\"%d\" text-anchor=\"end\">%s</text>\n",
			x(len(pts)-1), height-8, esc(last.commit))
	}
	b.WriteString("</svg></div>\n")
}

func writeTrajectoryTable(b *strings.Builder, entries []bench.TrajectoryEntry) {
	newest := entries[len(entries)-1]
	fmt.Fprintf(b, "<h2>Newest entry — %s (%s, %s)</h2>\n<div class=\"card\">\n<table>\n",
		esc(newest.Commit), esc(newest.Time), esc(newest.Source))
	b.WriteString("<tr><th>Benchmark</th><th class=\"num\">ns/op</th><th class=\"num\">Δ vs previous</th><th class=\"num\">MB/view</th><th class=\"num\">allocs/op</th></tr>\n")
	for _, r := range newest.Results {
		delta := "—"
		for i := len(entries) - 2; i >= 0; i-- {
			if prev, ok := resultOf(entries[i], r.Name); ok && prev.NsPerOp > 0 {
				delta = fmt.Sprintf("%+.1f%%", (r.NsPerOp-prev.NsPerOp)/prev.NsPerOp*100)
				break
			}
		}
		fmt.Fprintf(b, "<tr><td>%s</td><td class=\"num\">%s</td><td class=\"num\">%s</td><td class=\"num\">%.3f</td><td class=\"num\">%d</td></tr>\n",
			esc(r.Name), esc(fmtNs(r.NsPerOp)), esc(delta), r.MBPerView, r.AllocsPerOp)
	}
	fmt.Fprintf(b, "</table>\n<div class=\"note\">%d trajectory entries; oldest %s (%s).</div>\n</div>\n",
		len(entries), esc(entries[0].Commit), esc(entries[0].Time))
}

// parallelScanRe matches the parallel-scan suite's result names,
// capturing the profile and the worker count.
var parallelScanRe = regexp.MustCompile(`^ParallelScan/(.+)/workers=([0-9]+)$`)

// writeParallelScaling renders the newest entry's parallel-scan curve as one
// workers-vs-throughput small multiple per profile: views/s over the worker
// count, with the speedup vs the serial arm direct-labeled at the line end.
// The trajectory panels above already show each arm's history over commits;
// this section shows the shape that matters for the parallel scan — how far
// throughput climbs before the runner runs out of cores.
func writeParallelScaling(b *strings.Builder, entries []bench.TrajectoryEntry) {
	newest := entries[len(entries)-1]
	type pt struct {
		workers int
		ns      float64
	}
	curves := map[string][]pt{}
	var profiles []string
	for _, r := range newest.Results {
		m := parallelScanRe.FindStringSubmatch(r.Name)
		if m == nil || r.NsPerOp <= 0 {
			continue
		}
		workers, err := strconv.Atoi(m[2])
		if err != nil {
			continue
		}
		if _, ok := curves[m[1]]; !ok {
			profiles = append(profiles, m[1])
		}
		curves[m[1]] = append(curves[m[1]], pt{workers: workers, ns: r.NsPerOp})
	}
	if len(profiles) == 0 {
		return
	}
	b.WriteString("<h2>Parallel scan — workers vs throughput</h2>\n<div class=\"panels\">\n")
	for _, prof := range profiles {
		pts := curves[prof]
		sort.Slice(pts, func(i, j int) bool { return pts[i].workers < pts[j].workers })
		const (
			width, height = 340, 150
			left, right   = 44, 70
			top, bottom   = 10, 24
		)
		plotW, plotH := float64(width-left-right), float64(height-top-bottom)
		maxViews := 0.0
		for _, p := range pts {
			if v := 1e9 / p.ns; v > maxViews {
				maxViews = v
			}
		}
		yMax := niceCeil(maxViews)
		x := func(i int) float64 {
			if len(pts) == 1 {
				return float64(left) + plotW/2
			}
			return float64(left) + plotW*float64(i)/float64(len(pts)-1)
		}
		y := func(views float64) float64 { return float64(top) + plotH*(1-views/yMax) }

		fmt.Fprintf(b, "<div class=\"card panel\"><div class=\"name\">ParallelScan/%s — views/s by workers</div>\n", esc(prof))
		fmt.Fprintf(b, "<svg viewBox=\"0 0 %d %d\" width=\"%d\" height=\"%d\" role=\"img\" aria-label=\"ParallelScan/%s views per second by worker count\">\n",
			width, height, width, height, esc(prof))
		for _, tick := range []float64{yMax, yMax / 2} {
			ty := y(tick)
			fmt.Fprintf(b, "<line x1=\"%d\" y1=\"%.1f\" x2=\"%d\" y2=\"%.1f\" stroke=\"var(--grid)\" stroke-width=\"1\"/>\n",
				left, ty, width-right, ty)
			fmt.Fprintf(b, "<text x=\"%d\" y=\"%.1f\" text-anchor=\"end\">%.2f/s</text>\n", left-6, ty+3, tick)
		}
		fmt.Fprintf(b, "<line x1=\"%d\" y1=\"%.1f\" x2=\"%d\" y2=\"%.1f\" stroke=\"var(--axis)\" stroke-width=\"1\"/>\n",
			left, y(0), width-right, y(0))
		if len(pts) > 1 {
			var poly strings.Builder
			for i, p := range pts {
				fmt.Fprintf(&poly, "%.1f,%.1f ", x(i), y(1e9/p.ns))
			}
			fmt.Fprintf(b, "<polyline points=\"%s\" fill=\"none\" stroke=\"var(--s3)\" stroke-width=\"2\" stroke-linejoin=\"round\" stroke-linecap=\"round\"/>\n",
				strings.TrimSpace(poly.String()))
		}
		serialNs := pts[0].ns
		for i, p := range pts {
			fmt.Fprintf(b, "<circle class=\"mark\" cx=\"%.1f\" cy=\"%.1f\" r=\"4\" fill=\"var(--s3)\" stroke=\"var(--surface)\" stroke-width=\"2\"><title>%d workers · %.2f views/s · %s/view (%.2f× vs serial)</title></circle>\n",
				x(i), y(1e9/p.ns), p.workers, 1e9/p.ns, fmtNs(p.ns), serialNs/p.ns)
			fmt.Fprintf(b, "<text x=\"%.1f\" y=\"%d\" text-anchor=\"middle\">%d</text>\n", x(i), height-8, p.workers)
		}
		last := pts[len(pts)-1]
		fmt.Fprintf(b, "<text class=\"val\" x=\"%.1f\" y=\"%.1f\">%.2f×</text>\n",
			x(len(pts)-1)+8, y(1e9/last.ns)+4, serialNs/last.ns)
		b.WriteString("</svg></div>\n")
	}
	b.WriteString("</div>\n<div class=\"card\">\n<table>\n")
	b.WriteString("<tr><th>Profile</th><th class=\"num\">Workers</th><th class=\"num\">Time/view</th><th class=\"num\">Views/s</th><th class=\"num\">Speedup</th></tr>\n")
	for _, prof := range profiles {
		pts := curves[prof]
		serialNs := pts[0].ns
		for _, p := range pts {
			fmt.Fprintf(b, "<tr><td>%s</td><td class=\"num\">%d</td><td class=\"num\">%s</td><td class=\"num\">%.2f</td><td class=\"num\">%.2f×</td></tr>\n",
				esc(prof), p.workers, esc(fmtNs(p.ns)), 1e9/p.ns, serialNs/p.ns)
		}
	}
	b.WriteString("</table>\n<div class=\"note\">Byte-identity and per-subject counter equality vs the serial scan are verified by the suite before timing; the curve flattens once the worker count passes the runner's GOMAXPROCS.</div>\n</div>\n")
}

// laneAgg is the phase-duration aggregation of one trace lane.
type laneAgg struct {
	name     string
	phases   []string // segment order: canonical slots first, then "other"
	dur      map[string]int64
	otherSet []string // the names folded into "other"
	total    int64
}

// aggregateLanes splits spans at the trust boundary (server.* vs the rest)
// and accumulates duration per phase, folding beyond-palette names into one
// gray "other" segment per lane.
func aggregateLanes(spans []xmlac.TraceSpan) []laneAgg {
	client := laneAgg{name: "client SOE", dur: map[string]int64{}}
	server := laneAgg{name: "untrusted server", dur: map[string]int64{}}
	for _, sp := range spans {
		name := sp.Name
		lane := &client
		if strings.HasPrefix(name, "server.") {
			lane = &server
		} else {
			name = strings.TrimPrefix(name, "phase:")
		}
		if slotOf(name) == 0 {
			if lane.dur["other"] == 0 || !contains(lane.otherSet, name) {
				lane.otherSet = append(lane.otherSet, name)
			}
			name = "other"
		}
		lane.dur[name] += sp.Dur.Nanoseconds()
		lane.total += sp.Dur.Nanoseconds()
	}
	var out []laneAgg
	for _, lane := range []*laneAgg{&client, &server} {
		if lane.total == 0 {
			continue
		}
		for _, p := range phaseSlots {
			if lane.dur[p] > 0 {
				lane.phases = append(lane.phases, p)
			}
		}
		if lane.dur["other"] > 0 {
			lane.phases = append(lane.phases, "other")
		}
		out = append(out, *lane)
	}
	return out
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

// writeTraceSection renders the phase breakdown of one traced view as a
// stacked bar per lane (client SOE vs untrusted server) on a shared time
// axis, with a legend, per-segment tooltips and the full phase table.
func writeTraceSection(b *strings.Builder, spans []xmlac.TraceSpan) {
	lanes := aggregateLanes(spans)
	if len(lanes) == 0 {
		return
	}
	b.WriteString("<h2>Traced view — phase breakdown</h2>\n<div class=\"card\">\n")

	// Legend: every phase present anywhere, in slot order, plus other.
	used := map[string]bool{}
	for _, lane := range lanes {
		for _, p := range lane.phases {
			used[p] = true
		}
	}
	b.WriteString("<div class=\"legend\">")
	for _, p := range phaseSlots {
		if used[p] {
			fmt.Fprintf(b, "<span class=\"key\"><span class=\"sw\" style=\"background:var(--s%d)\"></span>%s</span>", slotOf(p), esc(p))
		}
	}
	if used["other"] {
		b.WriteString("<span class=\"key\"><span class=\"sw\" style=\"background:var(--muted)\"></span>other</span>")
	}
	b.WriteString("</div>\n")

	maxTotal := int64(0)
	for _, lane := range lanes {
		if lane.total > maxTotal {
			maxTotal = lane.total
		}
	}
	const (
		width       = 720
		left, right = 130, 80
		barH, rowH  = 20, 34
		top         = 8
	)
	height := top + rowH*len(lanes) + 24
	plotW := float64(width - left - right)
	xOf := func(ns int64) float64 { return plotW * float64(ns) / float64(maxTotal) }

	fmt.Fprintf(b, "<svg viewBox=\"0 0 %d %d\" width=\"%d\" height=\"%d\" role=\"img\" aria-label=\"phase breakdown per lane\">\n",
		width, height, width, height)
	// Time axis: gridlines at the midpoint and the max.
	axisY := top + rowH*len(lanes)
	for _, frac := range []float64{0.5, 1} {
		gx := float64(left) + plotW*frac
		fmt.Fprintf(b, "<line x1=\"%.1f\" y1=\"%d\" x2=\"%.1f\" y2=\"%d\" stroke=\"var(--grid)\" stroke-width=\"1\"/>\n",
			gx, top, gx, axisY)
		fmt.Fprintf(b, "<text x=\"%.1f\" y=\"%d\" text-anchor=\"middle\">%s</text>\n",
			gx, axisY+14, esc(fmtNs(float64(maxTotal)*frac)))
	}
	fmt.Fprintf(b, "<line x1=\"%d\" y1=\"%d\" x2=\"%d\" y2=\"%d\" stroke=\"var(--axis)\" stroke-width=\"1\"/>\n",
		left, axisY, width-right, axisY)

	for li, lane := range lanes {
		rowY := top + li*rowH
		fmt.Fprintf(b, "<text class=\"val\" x=\"%d\" y=\"%d\" text-anchor=\"end\">%s</text>\n",
			left-10, rowY+barH/2+4, esc(lane.name))
		// Stacked segments with a 2px surface gap between neighbors; the
		// final segment gets the 4px rounded data-end.
		cursor := float64(left)
		for i, p := range lane.phases {
			segW := xOf(lane.dur[p])
			if i > 0 {
				cursor += 2
				segW -= 2
			}
			if segW < 1 {
				segW = 1
			}
			fill := "var(--muted)"
			if s := slotOf(p); s > 0 {
				fill = fmt.Sprintf("var(--s%d)", s)
			}
			title := fmt.Sprintf("%s · %s — %s (%.0f%%)", lane.name, p,
				fmtNs(float64(lane.dur[p])), 100*float64(lane.dur[p])/float64(lane.total))
			if i == len(lane.phases)-1 && segW >= 8 {
				fmt.Fprintf(b, "<path class=\"mark\" d=\"%s\" fill=\"%s\"><title>%s</title></path>\n",
					roundedRight(cursor, float64(rowY), segW, barH, 4), fill, esc(title))
			} else {
				fmt.Fprintf(b, "<rect class=\"mark\" x=\"%.1f\" y=\"%d\" width=\"%.1f\" height=\"%d\" fill=\"%s\"><title>%s</title></rect>\n",
					cursor, rowY, segW, barH, fill, esc(title))
			}
			cursor += segW
		}
		// Direct label: the lane total at the bar end.
		fmt.Fprintf(b, "<text class=\"val\" x=\"%.1f\" y=\"%d\">%s</text>\n",
			cursor+8, rowY+barH/2+4, esc(fmtNs(float64(lane.total))))
	}
	b.WriteString("</svg>\n")

	// The table view: every segment's exact value, nothing gated on hover.
	b.WriteString("<table>\n<tr><th>Lane</th><th>Phase</th><th class=\"num\">Time</th><th class=\"num\">Share</th></tr>\n")
	for _, lane := range lanes {
		for _, p := range lane.phases {
			label := p
			if p == "other" && len(lane.otherSet) > 0 {
				label = "other (" + strings.Join(lane.otherSet, ", ") + ")"
			}
			fmt.Fprintf(b, "<tr><td>%s</td><td>%s</td><td class=\"num\">%s</td><td class=\"num\">%.1f%%</td></tr>\n",
				esc(lane.name), esc(label), esc(fmtNs(float64(lane.dur[p]))),
				100*float64(lane.dur[p])/float64(lane.total))
		}
	}
	fmt.Fprintf(b, "</table>\n<div class=\"note\">%d spans.</div>\n</div>\n", len(spans))
}

// roundedRight builds a rect path with 4px-rounded right corners only: the
// data end is rounded, the baseline side stays square.
func roundedRight(x, y, w, h, r float64) string {
	return fmt.Sprintf("M%.1f %.1f h%.1f a%.1f %.1f 0 0 1 %.1f %.1f v%.1f a%.1f %.1f 0 0 1 -%.1f %.1f h-%.1f z",
		x, y, w-r, r, r, r, r, h-2*r, r, r, r, r, w-r)
}
