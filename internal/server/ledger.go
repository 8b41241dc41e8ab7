package server

import (
	"net/http"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"xmlac"
	"xmlac/internal/storage"
)

// The store's counters. Requests and PATCH outcomes are lock-free atomics
// bumped where they happen; the document count and the storage engine's
// figures are gauges read when a snapshot is taken. GET /metrics is a
// snapshot's JSON encoding and GET /metrics.prom renders the same snapshot,
// so the two surfaces never disagree.

// updateCounters is the exported reading of PATCH /docs/{id} outcomes.
type updateCounters struct {
	Applied           int64 `json:"applied"`
	Errors            int64 `json:"errors"`
	ChunksReencrypted int64 `json:"chunks_reencrypted"`
	BytesReencrypted  int64 `json:"bytes_reencrypted"`
	BytesReused       int64 `json:"bytes_reused"`
}

// updateTally counts PATCH outcomes.
type updateTally struct {
	applied, errors                                  atomic.Int64
	chunksReencrypted, bytesReencrypted, bytesReused atomic.Int64
}

// record counts one PATCH outcome: the applied delta, or nil for an update
// that was rejected or could not be made durable.
func (u *updateTally) record(delta *xmlac.UpdateDelta) {
	if delta == nil {
		u.errors.Add(1)
		return
	}
	u.applied.Add(1)
	u.chunksReencrypted.Add(int64(len(delta.DirtyChunks)))
	u.bytesReencrypted.Add(delta.BytesReencrypted)
	u.bytesReused.Add(delta.BytesReused)
}

// load reads the counters for a metrics snapshot.
func (u *updateTally) load() updateCounters {
	return updateCounters{
		Applied:           u.applied.Load(),
		Errors:            u.errors.Load(),
		ChunksReencrypted: u.chunksReencrypted.Load(),
		BytesReencrypted:  u.bytesReencrypted.Load(),
		BytesReused:       u.bytesReused.Load(),
	}
}

// metricsSnapshot is one reading of every store counter. GET /metrics is its
// JSON encoding; GET /metrics.prom renders from it.
type metricsSnapshot struct {
	UptimeSeconds float64           `json:"uptime_seconds"`
	GoVersion     string            `json:"go_version"`
	Build         map[string]string `json:"build"`
	Requests      int64             `json:"requests"`
	Documents     int               `json:"documents"`
	Updates       updateCounters    `json:"updates"`
	Storage       struct {
		Enabled bool `json:"enabled"`
		storage.Stats
	} `json:"storage"`
}

// snapshot reads every exported counter at once.
func (s *Server) snapshot() *metricsSnapshot {
	snap := &metricsSnapshot{
		UptimeSeconds: time.Since(s.started).Seconds(),
		GoVersion:     runtime.Version(),
		Build:         buildInfoSummary(),
		Requests:      s.requests.Load(),
		Documents:     s.store.Len(),
		Updates:       s.updates.load(),
	}
	if s.persist != nil {
		snap.Storage.Enabled = true
		snap.Storage.Stats = s.persist.engine.Stats()
	}
	return snap
}

// buildInfoSummary condenses runtime/debug.ReadBuildInfo for GET /metrics:
// module path, main-module version and the VCS stamps go 1.22 embeds.
func buildInfoSummary() map[string]string {
	out := map[string]string{}
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return out
	}
	out["path"] = info.Path
	if info.Main.Version != "" {
		out["version"] = info.Main.Version
	}
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision", "vcs.time", "vcs.modified", "GOOS", "GOARCH":
			out[s.Key] = s.Value
		}
	}
	return out
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.snapshot())
}
