package main

import (
	"fmt"
	"html"
	"io"
	"strings"

	"xmlac"
)

// The HTML report. Everything is rendered into inline markup, CSS custom
// properties and SVG: no scripts, no external stylesheets, fonts or images,
// so the artifact is readable offline. Chart conventions: thin marks (20px
// bars with 4px rounded data-ends), hairline solid gridlines, a 2px surface
// gap between stacked segments, text in ink tokens (never the series color),
// and a table view next to the chart so no value is gated behind color or
// hover.

// reportData is everything the page renders; Spans may be nil.
type reportData struct {
	Generated string
	Spans     []xmlac.TraceSpan
	TracePath string
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
  --s1: #2a78d6; --s2: #eb6834; --s3: #1baf7a; --s4: #eda100;
  --s5: #e87ba4; --s6: #008300; --s7: #4a3aa7; --s8: #e34948;
}
@media (prefers-color-scheme: dark) {
  body { background: #0d0d0d; color: #ffffff; }
  .report {
    --surface: #1a1a19; --ink: #ffffff; --ink2: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --axis: #383835; --border: rgba(255,255,255,0.10);
    --s1: #3987e5; --s2: #d95926; --s3: #199e70; --s4: #c98500;
    --s5: #d55181; --s6: #008300; --s7: #9085e9; --s8: #e66767;
  }
}
h1 { font-size: 22px; margin: 0 0 4px; }
h2 { font-size: 16px; margin: 32px 0 12px; }
.sub { color: var(--ink2); margin: 0 0 20px; }
.card { background: var(--surface); border: 1px solid var(--border);
  border-radius: 12px; padding: 16px; }
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

func renderHTML(w io.Writer, d *reportData) error {
	var b strings.Builder
	b.WriteString("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n")
	b.WriteString("<meta name=\"viewport\" content=\"width=device-width, initial-scale=1\">\n")
	b.WriteString("<title>xmlac trace report</title>\n<style>")
	b.WriteString(pageCSS)
	b.WriteString("</style>\n</head>\n<body>\n<div class=\"report\">\n")
	b.WriteString("<h1>xmlac trace report</h1>\n")
	fmt.Fprintf(&b, "<p class=\"sub\">Generated %s.</p>\n", esc(d.Generated))

	if len(d.Spans) > 0 {
		writeTraceSection(&b, d.Spans)
	}

	b.WriteString("<footer>Input:")
	if d.TracePath != "" {
		fmt.Fprintf(&b, " %s", esc(d.TracePath))
	}
	b.WriteString("</footer>\n</div>\n</body>\n</html>\n")
	_, err := io.WriteString(w, b.String())
	return err
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
