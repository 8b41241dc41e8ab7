package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"xmlac"
)

// metric is one reported number with its unit.
type metric struct {
	name  string
	unit  string
	value float64
}

// measured is everything a run's metrics are computed from.
type measured struct {
	window      []*sample // operations of the measured phase
	windowStart time.Time
	setup       []time.Duration
	u0, u1      usage
	heapGoal    float64        // median GC heap goal during the window, bytes
	busyNs      int64          // server handler time of traced requests in the window
	weights     []int          // each policy's share of the views (nil: one policy)
	srv0, srv1  serverCounters // zero for local workloads
}

const (
	kib = 1 << 10
	mib = 1 << 20
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEnd computes the metrics a user of the system sees, the ones
// BENCHMARK.json bounds. An operation is a view, or in store-update also an
// update.
func endToEnd(m *measured) []metric {
	n := float64(len(m.window))
	// Every view of one policy over one document version transfers the same
	// bytes, so the per-policy means weighted by the mix do not depend on
	// which policies the window happened to draw.
	weights := m.weights
	if weights == nil {
		weights = []int{1}
	}
	bytes := make([]float64, len(weights))
	views := make([]float64, len(weights))
	for _, s := range m.window {
		if s.kind == opView && s.err == nil {
			bytes[s.policy] += float64(s.m.BytesTransferred)
			views[s.policy]++
		}
	}
	var soe, weight float64
	for k, w := range weights {
		if views[k] > 0 {
			soe += float64(w) * bytes[k] / views[k]
			weight += float64(w)
		}
	}
	setup := make([]float64, len(m.setup))
	for i, d := range m.setup {
		setup[i] = d.Seconds()
	}
	return []metric{
		{"setup_s", "s", median(setup)},
		{"alloc_mib_per_op", "MiB", ratio(float64(m.u1.alloc-m.u0.alloc)/mib, n)},
		{"heap_goal_mib", "MiB", m.heapGoal / mib},
		{"soe_kib_per_view", "KiB", ratio(soe/kib, weight)},
	}
}

// hostBound computes the CPU time per operation and the throughput and
// latency of the window. They are printed for reference but not bounded: on
// a shared host they follow the host's load more than the program.
func hostBound(m *measured) []metric {
	var lat []float64
	var last time.Time
	for _, s := range m.window {
		if s.end.After(last) {
			last = s.end
		}
		if s.err == nil {
			lat = append(lat, ms(s.latency()))
		}
	}
	return []metric{
		{"cpu_ms_per_op", "ms", ratio(ms(m.u1.cpu-m.u0.cpu), float64(len(m.window)))},
		{"ops_per_s", "1/s", ratio(float64(len(m.window)), last.Sub(m.windowStart).Seconds())},
		{"op_p50_ms", "ms", percentile(lat, 50)},
		{"op_p90_ms", "ms", percentile(lat, 90)},
	}
}

// perLayer computes the metrics of single layers from the traced operations
// of a traced run, and the tracing overhead from the untraced ones between
// them.
func perLayer(m *measured) []metric {
	var (
		traced, untraced       []float64 // view latencies, ms
		ttfb, lag              []float64
		tv, views              float64 // traced views, all views
		ph                     xmlac.PhaseBreakdown
		duration               float64
		viewLatNs, opLatNs     float64
		skipped                float64
		subtrees, perm, denied float64
		viewBytes, decrypted   float64
		wire, trips, retries   float64
		remoteTransferred      float64
		reqs                   requestCounts
		hits, misses           float64
		resyncNs               float64
		walBytes, walUpdates   float64
	)
	for _, s := range m.window {
		lag = append(lag, ms(s.lag()))
		if s.id != "" {
			opLatNs += float64(s.latency())
		}
		if s.kind == opUpdate {
			if s.id != "" && s.err == nil && s.walCheckpoint == 0 {
				walBytes += float64(s.walBytes)
				walUpdates++
			}
			continue
		}
		views++
		wire += float64(s.wire)
		trips += float64(s.trips)
		retries += float64(s.retries)
		if s.wire > 0 {
			remoteTransferred += float64(s.m.BytesTransferred)
		}
		if s.id == "" {
			if s.err == nil {
				untraced = append(untraced, ms(s.latency()))
				ttfb = append(ttfb, ms(s.m.TimeToFirstByte))
			}
			continue
		}
		tv++
		if s.err == nil {
			traced = append(traced, ms(s.latency()))
		}
		ph.Add(&s.m.PhaseBreakdown)
		duration += float64(s.m.Duration)
		viewLatNs += float64(s.latency())
		skipped += float64(s.m.BytesSkipped)
		subtrees += float64(s.m.SubtreesSkipped)
		perm += float64(s.m.NodesPermitted)
		denied += float64(s.m.NodesDenied)
		viewBytes += float64(s.got.n)
		decrypted += float64(s.m.BytesDecrypted)
		reqs.ranges += s.reqs.ranges
		reqs.hashes += s.reqs.hashes
		reqs.deltas += s.reqs.deltas
		hits += float64(s.pageHits)
		misses += float64(s.pageMisses)
		resyncNs += float64(s.m.PhaseBreakdown.ResyncNs + s.revalidateNs)
	}
	perView := func(ns int64) float64 { return ratio(float64(ns)/float64(time.Millisecond), tv) }
	upd := m.srv1.Updates
	upd0 := m.srv0.Updates
	st, st0 := m.srv1.Storage, m.srv0.Storage
	updates := float64(upd.Applied - upd0.Applied)
	reenc := float64(upd.BytesReencrypted - upd0.BytesReencrypted)
	reused := float64(upd.BytesReused - upd0.BytesReused)
	cpuOps := float64(len(m.window))
	return []metric{
		{"skipindex.decode_ms_per_view", "ms", perView(ph.DecodeNs)},
		{"skipindex.skip_ms_per_view", "ms", perView(ph.SkipNs)},
		{"skipindex.skipped_frac", "frac", ratio(skipped, skipped+decrypted)},
		{"skipindex.subtrees_skipped_per_view", "count", ratio(subtrees, tv)},
		{"core.eval_ms_per_view", "ms", perView(ph.EvalNs)},
		{"core.emit_ms_per_view", "ms", perView(ph.EmitNs)},
		{"core.nodes_permitted_per_view", "count", ratio(perm, tv)},
		{"core.nodes_denied_per_view", "count", ratio(denied, tv)},
		{"xmlstream.view_kib_per_view", "KiB", ratio(viewBytes/kib, tv)},
		{"secure.decrypt_ms_per_view", "ms", perView(ph.DecryptNs)},
		{"secure.verify_ms_per_view", "ms", perView(ph.VerifyNs)},
		{"secure.hash_fetch_ms_per_view", "ms", perView(ph.HashFetchNs)},
		{"secure.decrypted_kib_per_view", "KiB", ratio(decrypted/kib, tv)},
		{"secure.reenc_frac", "frac", ratio(reenc, reenc+reused)},
		{"remote.fetch_share", "frac", ratio(float64(ph.FetchNs), viewLatNs)},
		{"remote.resync_share", "frac", ratio(resyncNs, viewLatNs)},
		{"remote.wire_kib_per_view", "KiB", ratio(wire/kib, views)},
		{"remote.round_trips_per_view", "count", ratio(trips, views)},
		{"remote.range_requests_per_view", "count", ratio(float64(reqs.ranges), tv)},
		{"remote.hash_requests_per_view", "count", ratio(float64(reqs.hashes), tv)},
		{"remote.delta_requests_per_view", "count", ratio(float64(reqs.deltas), tv)},
		{"remote.overfetch_ratio", "ratio", ratio(wire, remoteTransferred)},
		{"remote.page_hit_frac", "frac", ratio(hits, hits+misses)},
		{"remote.retries_per_view", "count", ratio(retries, views)},
		{"server.busy_share", "frac", ratio(float64(m.busyNs), opLatNs)},
		{"storage.fsyncs_per_update", "count", ratio(float64(st.Fsyncs-st0.Fsyncs), updates)},
		{"storage.group_commit_frac", "frac", ratio(float64(st.GroupCommits-st0.GroupCommits), float64(st.WALAppends-st0.WALAppends))},
		{"storage.wal_kib_per_update", "KiB", ratio(walBytes/kib, walUpdates)},
		{"storage.checkpoints_per_100_updates", "count", ratio(100*float64(st.Checkpoints-st0.Checkpoints), updates)},
		{"runtime.gc_cpu_frac", "frac", ratio(m.u1.gcCPU-m.u0.gcCPU, m.u1.busyCPU-m.u0.busyCPU)},
		{"runtime.gc_cycles_per_op", "count", ratio(float64(m.u1.gcCycles-m.u0.gcCycles), cpuOps)},
		{"loadgen.lag_p90_ms", "ms", percentile(lag, 90)},
		{"xmlac.ttfb_ms_p50", "ms", percentile(ttfb, 50)},
		{"xmlac.unattributed_frac", "frac", 1 - ratio(float64(ph.Sum()), duration)},
		{"trace.overhead_frac", "frac", percentile(traced, 50)/percentile(untraced, 50) - 1},
	}
}

func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// jsonMetric is one entry of the result line's metrics object.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// runHeader is the first line a run prints: what was run, and where.
type runHeader struct {
	Run struct {
		Workload string  `json:"workload"`
		Seed     uint64  `json:"seed"`
		Seconds  float64 `json:"seconds"`
		Folders  int     `json:"folders"`
		Trace    int     `json:"trace"`
	} `json:"run"`
	Host host `json:"host"`
}

// printMetrics writes one aligned line per metric, then the result, holding
// the metrics, as one JSON line. Values that could not be measured (no
// samples) print as 0.
func printMetrics(w io.Writer, res *result, ms []metric) error {
	res.Metrics = map[string]jsonMetric{}
	for _, m := range ms {
		v := finite(m.value)
		res.Metrics[m.name] = jsonMetric{Value: v, Unit: m.unit}
		fmt.Fprintf(w, "  %-38s %14.6g %s\n", m.name, v, m.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
