package server

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// GET /metrics.prom: the metrics snapshot in Prometheus text exposition
// format (version 0.0.4), hand-rolled — the module stays dependency-free.
// The JSON surface (GET /metrics) renders the same snapshot for humans; this
// one is for scrapers.

// promCounter writes one HELP/TYPE/sample triple for a single-sample metric.
func promCounter(w io.Writer, name, help string, kind string, value string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %s\n", name, help, name, kind, name, value)
}

func (s *Server) handleMetricsProm(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	writeProm(w, s.snapshot())
}

// writeProm renders one snapshot in the text exposition format.
func writeProm(w io.Writer, snap *metricsSnapshot) {
	i64 := func(v int64) string { return strconv.FormatInt(v, 10) }
	st := &snap.Storage

	promCounter(w, "xmlac_uptime_seconds", "Seconds since the server started.", "gauge",
		strconv.FormatFloat(snap.UptimeSeconds, 'g', -1, 64))
	fmt.Fprintf(w, "# HELP xmlac_build_info Build information as an info-style gauge.\n"+
		"# TYPE xmlac_build_info gauge\nxmlac_build_info{go_version=%q} 1\n", snap.GoVersion)
	for _, m := range []struct{ name, kind, help, value string }{
		{"xmlac_requests_total", "counter", "HTTP requests received.", i64(snap.Requests)},
		{"xmlac_documents", "gauge", "Registered documents.", strconv.Itoa(snap.Documents)},
		{"xmlac_updates_applied_total", "counter", "Document updates applied.", i64(snap.Updates.Applied)},
		{"xmlac_update_errors_total", "counter", "Document updates rejected.", i64(snap.Updates.Errors)},
		{"xmlac_storage_wal_records", "gauge", "Records appended to the log since the last checkpoint.", i64(st.WALRecords)},
		{"xmlac_storage_wal_bytes", "gauge", "Bytes appended to the log since the last checkpoint.", i64(st.WALBytes)},
		{"xmlac_storage_wal_appends_total", "counter", "Records appended to the WAL since open.", i64(st.WALAppends)},
		{"xmlac_storage_fsyncs_total", "counter", "fsyncs issued by the storage engine.", i64(st.Fsyncs)},
		{"xmlac_storage_group_commits_total", "counter", "WAL appends that piggybacked on another append's fsync.", i64(st.GroupCommits)},
		{"xmlac_storage_checkpoints_total", "counter", "Compacting checkpoints taken since open.", i64(st.Checkpoints)},
		{"xmlac_storage_wal_tail_bytes_dropped", "gauge", "Torn-tail bytes truncated during the last recovery.", i64(st.TailBytesDropped)},
		{"xmlac_storage_failed", "gauge", "1 once an I/O error has poisoned the storage engine: writes fail until a restart.", i64(st.Failed)},
	} {
		promCounter(w, m.name, m.help, m.kind, m.value)
	}
}
