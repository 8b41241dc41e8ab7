package server

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"xmlac/internal/trace"
)

// GET /metrics.prom: the ledger snapshot in Prometheus text exposition format
// (version 0.0.4), hand-rolled — the module stays dependency-free. The JSON
// surface (GET /metrics) renders the same snapshot for humans; this one is
// for scrapers.

func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promCounter writes one HELP/TYPE/sample triple for a single-sample metric.
func promCounter(w io.Writer, name, help string, kind string, value string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %s\n", name, help, name, kind, name, value)
}

// promLabelEscaper implements the label-value escaping of the text
// exposition format: backslash, double quote and newline are the only
// characters that need it. Subjects are client-chosen strings, so the
// escaping is what keeps a hostile name from breaking the exposition.
var promLabelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// promLabelEscape renders one label value, quoted and escaped.
func promLabelEscape(v string) string {
	return `"` + promLabelEscaper.Replace(v) + `"`
}

// promSubjectLabels renders the {subject=...,policy=...} label set of the
// per-subject cost series (policy omitted when empty — the "other" rollup).
func promSubjectLabels(subject, policy string) string {
	if policy == "" {
		return "{subject=" + promLabelEscape(subject) + "}"
	}
	return "{subject=" + promLabelEscape(subject) + ",policy=" + promLabelEscape(policy) + "}"
}

// promLabeledSeries writes one HELP/TYPE header followed by every sample of
// a labeled metric. samples alternate label-set / value strings.
func promLabeledSeries(w io.Writer, name, help, kind string, samples [][2]string) {
	if len(samples) == 0 {
		return
	}
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
	for _, s := range samples {
		fmt.Fprintf(w, "%s%s %s\n", name, s[0], s[1])
	}
}

// promHistogram writes a snapshot in the cumulative-bucket exposition form.
func promHistogram(w io.Writer, name, help string, snap trace.HistogramSnapshot) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	cum := int64(0)
	for i, bound := range snap.Bounds {
		cum += snap.Counts[i]
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, promFloat(bound), cum)
	}
	cum += snap.Counts[len(snap.Bounds)]
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %s\n", name, promFloat(snap.Sum))
	fmt.Fprintf(w, "%s_count %d\n", name, snap.Count)
}

func (s *Server) handleMetricsProm(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	writeProm(w, s.snapshot(defaultCostTopK))
}

// writeProm renders one snapshot in the text exposition format.
func writeProm(w io.Writer, snap *metricsSnapshot) {
	i64 := func(v int64) string { return strconv.FormatInt(v, 10) }
	st := &snap.Storage

	promCounter(w, "xmlac_uptime_seconds", "Seconds since the server started.", "gauge",
		promFloat(snap.UptimeSeconds))
	fmt.Fprintf(w, "# HELP xmlac_build_info Build information as an info-style gauge.\n"+
		"# TYPE xmlac_build_info gauge\nxmlac_build_info{go_version=%q} 1\n", snap.GoVersion)
	for _, m := range []struct{ name, kind, help, value string }{
		{"xmlac_requests_total", "counter", "HTTP requests received.", i64(snap.Requests)},
		{"xmlac_views_served_total", "counter", "Authorized views streamed to completion.", i64(snap.ViewsServed)},
		{"xmlac_view_errors_total", "counter", "View requests that failed or aborted.", i64(snap.ViewErrors)},
		{"xmlac_documents", "gauge", "Registered documents.", strconv.Itoa(snap.Documents)},
		{"xmlac_sessions", "gauge", "Live (document, subject) sessions.", strconv.Itoa(len(snap.Sessions))},
		{"xmlac_updates_applied_total", "counter", "Document updates applied.", i64(snap.Updates.Applied)},
		{"xmlac_update_errors_total", "counter", "Document updates rejected.", i64(snap.Updates.Errors)},
		{"xmlac_deltas_served_total", "counter", "Update deltas served to remote caches.", i64(snap.Updates.DeltasServed)},
		{"xmlac_storage_wal_records", "gauge", "Records appended to the log since the last checkpoint.", i64(st.WALRecords)},
		{"xmlac_storage_wal_bytes", "gauge", "Bytes appended to the log since the last checkpoint.", i64(st.WALBytes)},
		{"xmlac_storage_wal_appends_total", "counter", "Records appended to the WAL since open.", i64(st.WALAppends)},
		{"xmlac_storage_fsyncs_total", "counter", "fsyncs issued by the storage engine.", i64(st.Fsyncs)},
		{"xmlac_storage_group_commits_total", "counter", "WAL appends that piggybacked on another append's fsync.", i64(st.GroupCommits)},
		{"xmlac_storage_checkpoints_total", "counter", "Compacting checkpoints taken since open.", i64(st.Checkpoints)},
		{"xmlac_storage_wal_tail_bytes_dropped", "gauge", "Torn-tail bytes truncated during the last recovery.", i64(st.TailBytesDropped)},
		{"xmlac_bytes_transferred_total", "counter", "Ciphertext bytes transferred into evaluations.", i64(snap.Totals.BytesTransferred)},
		{"xmlac_bytes_decrypted_total", "counter", "Bytes decrypted by evaluations.", i64(snap.Totals.BytesDecrypted)},
		{"xmlac_bytes_skipped_total", "counter", "Bytes skipped via the Skip index.", i64(snap.Totals.BytesSkipped)},
		{"xmlac_nodes_permitted_total", "counter", "Nodes delivered into authorized views.", i64(snap.Totals.NodesPermitted)},
	} {
		promCounter(w, m.name, m.help, m.kind, m.value)
	}

	// Per-subject cost series: the top-K cost buckets plus the "other"
	// rollup, so the exposition's cardinality stays bounded no matter how
	// many subjects the server has seen.
	entries := snap.Costs.Entries
	if snap.Costs.Other != nil {
		entries = append(entries[:len(entries):len(entries)], *snap.Costs.Other)
	}
	var views, errs, wire, decrypted, phases [][2]string
	for _, e := range entries {
		labels := promSubjectLabels(e.Subject, e.Policy)
		views = append(views, [2]string{labels, i64(e.Views)})
		if e.Errors > 0 {
			errs = append(errs, [2]string{labels, i64(e.Errors)})
		}
		wire = append(wire, [2]string{labels, i64(e.WireBytes)})
		decrypted = append(decrypted, [2]string{labels, i64(e.BytesDecrypted)})
		for phase, ns := range map[string]int64{
			"decrypt": e.Phases.DecryptNs, "verify": e.Phases.VerifyNs, "decode": e.Phases.DecodeNs,
			"skip": e.Phases.SkipNs, "eval": e.Phases.EvalNs, "emit": e.Phases.EmitNs,
			"fetch": e.Phases.FetchNs, "hash_fetch": e.Phases.HashFetchNs, "resync": e.Phases.ResyncNs,
		} {
			if ns > 0 {
				pl := strings.TrimSuffix(labels, "}") + ",phase=" + promLabelEscape(phase) + "}"
				phases = append(phases, [2]string{pl, promFloat(float64(ns) / 1e9)})
			}
		}
	}
	// The phase samples were assembled from a map: order them by label set
	// so the exposition is deterministic.
	sort.Slice(phases, func(i, j int) bool { return phases[i][0] < phases[j][0] })
	promLabeledSeries(w, "xmlac_subject_views_total",
		"Views evaluated per (subject, policy fingerprint); the other bucket rolls up beyond-top-K subjects.",
		"counter", views)
	promLabeledSeries(w, "xmlac_subject_view_errors_total",
		"Failed or aborted views per (subject, policy fingerprint).", "counter", errs)
	promLabeledSeries(w, "xmlac_subject_wire_bytes_total",
		"HTTP body bytes streamed per (subject, policy fingerprint).", "counter", wire)
	promLabeledSeries(w, "xmlac_subject_bytes_decrypted_total",
		"Bytes decrypted per (subject, policy fingerprint).", "counter", decrypted)
	promLabeledSeries(w, "xmlac_subject_phase_seconds_total",
		"Exclusive evaluation time per (subject, policy fingerprint, pipeline phase).", "counter", phases)

	h := &snap.Histograms
	promHistogram(w, "xmlac_view_duration_seconds",
		"Wall time of one view evaluation.", h.ViewSeconds)
	promHistogram(w, "xmlac_view_wire_bytes",
		"Ciphertext bytes transferred per view.", h.ViewBytes)
	promHistogram(w, "xmlac_view_workers",
		"Region workers per view scan (0 = serial, including parallel requests that fell back).", h.ViewWorkers)
}
