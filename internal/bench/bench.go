// Package bench is the machine-readable benchmark harness: the same
// measurement closures back the repository's `go test -bench` benchmarks
// (BenchmarkStreamingView, via the root _test package) and the JSON emitter of
// `xmlac-bench -json`, so the BENCH_*.json artifacts CI uploads on every run
// track exactly the code the benchstat regression gate compares.
package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"xmlac"
	"xmlac/internal/dataset"
	"xmlac/internal/xmlstream"
)

// Result is one benchmark measurement in the stable schema of the
// BENCH_*.json artifacts. Fields mirror the go-test bench output so the two
// reporting paths stay comparable across PRs.
type Result struct {
	Name        string  `json:"name"`
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// MBPerView is the authorized-view payload delivered per view (0 for
	// benchmarks that do not deliver views).
	MBPerView float64 `json:"mb_per_view"`
	// ReencFrac is the fraction of ciphertext bytes re-encrypted per
	// operation (update benchmarks only; 1.0 for the full re-protect
	// baseline, 0 for benchmarks that do not update).
	ReencFrac float64 `json:"reenc_frac,omitempty"`
}

// mbPerViewMetric is the ReportMetric unit carrying the payload size from a
// closure into testing.BenchmarkResult.Extra.
const mbPerViewMetric = "MB/view"

// Run executes one measurement closure through testing.Benchmark and folds
// the outcome into the stable schema.
func Run(name string, fn func(*testing.B)) Result {
	res := testing.Benchmark(fn)
	out := Result{
		Name:        name,
		Iters:       res.N,
		NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
		BytesPerOp:  res.AllocedBytesPerOp(),
		AllocsPerOp: res.AllocsPerOp(),
	}
	if v, ok := res.Extra[mbPerViewMetric]; ok {
		out.MBPerView = v
	}
	if v, ok := res.Extra[reencFracMetric]; ok {
		out.ReencFrac = v
	}
	return out
}

// WriteJSON writes results as an indented JSON array (one stable artifact
// per suite: BENCH_streaming_view.json, BENCH_update.json, ...).
func WriteJSON(path string, results []Result) error {
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Fixture is a protected hospital document with pre-compiled profile
// policies, built once and shared by every measurement of a suite.
type Fixture struct {
	Key       xmlac.Key
	Prot      *xmlac.Protected
	Doc       *xmlac.Document
	Folders   int
	Secretary *xmlac.CompiledPolicy
	Doctor    *xmlac.CompiledPolicy
}

// NewHospitalFixture protects the paper's hospital dataset at the given
// scale (1.0 approximates the paper's ~3.6 MB evaluation document).
func NewHospitalFixture(scale float64) (*Fixture, error) {
	folders := int(800 * scale)
	if folders < 3 {
		folders = 3
	}
	doc, err := xmlac.ParseDocumentString(xmlstream.SerializeTree(dataset.Hospital(scale), false))
	if err != nil {
		return nil, err
	}
	key := xmlac.DeriveKey("bench")
	prot, err := xmlac.Protect(doc, key, xmlac.SchemeECBMHT)
	if err != nil {
		return nil, err
	}
	secretary, err := xmlac.SecretaryPolicy().Compile()
	if err != nil {
		return nil, err
	}
	doctor, err := xmlac.DoctorPolicy("DrA").Compile()
	if err != nil {
		return nil, err
	}
	return &Fixture{Key: key, Prot: prot, Doc: doc, Folders: folders, Secretary: secretary, Doctor: doctor}, nil
}

// countWriter discards the view while counting its bytes.
type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// StreamingView measures the solo streaming delivery of one compiled policy
// (the BenchmarkStreamingView "streaming" arm).
func (f *Fixture) StreamingView(cp *xmlac.CompiledPolicy) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		var bytesOut int64
		for i := 0; i < b.N; i++ {
			cw := &countWriter{}
			if _, _, err := f.Prot.View(context.Background(), f.Key, cp, xmlac.ViewOptions{}, cw); err != nil {
				b.Fatal(err)
			}
			bytesOut += cw.n
		}
		b.ReportMetric(float64(bytesOut)/float64(b.N)/(1<<20), mbPerViewMetric)
	}
}

// MaterializedView measures the materialize-then-serialize delivery (the
// BenchmarkStreamingView "materialized" arm).
func (f *Fixture) MaterializedView(cp *xmlac.CompiledPolicy) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		var bytesOut int64
		for i := 0; i < b.N; i++ {
			view, _, err := f.Prot.View(context.Background(), f.Key, cp, xmlac.ViewOptions{}, nil)
			if err != nil {
				b.Fatal(err)
			}
			bytesOut += int64(len(view.XML()))
		}
		b.ReportMetric(float64(bytesOut)/float64(b.N)/(1<<20), mbPerViewMetric)
	}
}

// reencFracMetric reports the fraction of ciphertext bytes an update
// re-encrypted (dirty chunks over the whole document) — the chunk-granularity
// payoff next to the wall-clock numbers.
const reencFracMetric = "reenc-frac"

// UpdateInPlace measures Protected.Update on an alternating same-length
// phone-number edit in the middle of the document: the in-place fast path
// (no re-encode, one or two dirty chunks re-encrypted).
func (f *Fixture) UpdateInPlace() func(*testing.B) {
	path := fmt.Sprintf("/Hospital/Folder[%d]/Admin/Phone", f.Folders/2)
	values := [2]string{"5550000001", "5550000002"}
	return func(b *testing.B) {
		b.ReportAllocs()
		var reenc, total int64
		for i := 0; i < b.N; i++ {
			_, delta, err := f.Prot.Update(f.Key, []xmlac.Edit{
				{Op: xmlac.EditSetText, Path: path, Text: values[i%2]},
			})
			if err != nil {
				b.Fatal(err)
			}
			reenc += delta.BytesReencrypted
			total += delta.BytesReencrypted + delta.BytesReused
		}
		b.ReportMetric(float64(reenc)/float64(total), reencFracMetric)
	}
}

// UpdateReencode measures Protected.Update on a length-changing clinical
// comment rewrite near the end of the document: the structural path (full
// Skip-index re-encode, chunk-granular re-encryption of the shifted tail).
func (f *Fixture) UpdateReencode() func(*testing.B) {
	path := fmt.Sprintf("/Hospital/Folder[%d]/MedActs/Act[1]/Details/Comments", f.Folders-1)
	return func(b *testing.B) {
		b.ReportAllocs()
		var reenc, total int64
		for i := 0; i < b.N; i++ {
			// Alternate the text length so every iteration shifts the
			// encoding (a same-length rewrite would take the in-place fast
			// path from the second iteration on).
			text := fmt.Sprintf("revised clinical narrative %0*d", 4+(i%2)*13, i)
			_, delta, err := f.Prot.Update(f.Key, []xmlac.Edit{
				{Op: xmlac.EditSetText, Path: path, Text: text},
			})
			if err != nil {
				b.Fatal(err)
			}
			reenc += delta.BytesReencrypted
			total += delta.BytesReencrypted + delta.BytesReused
		}
		b.ReportMetric(float64(reenc)/float64(total), reencFracMetric)
	}
}

// UpdateReprotect measures the pre-update baseline for the same edit as
// UpdateInPlace: apply it to a plain document and re-protect everything from
// scratch (full encode, full encryption, full digest rebuild).
func (f *Fixture) UpdateReprotect() func(*testing.B) {
	path := fmt.Sprintf("/Hospital/Folder[%d]/Admin/Phone", f.Folders/2)
	values := [2]string{"5550000001", "5550000002"}
	return func(b *testing.B) {
		// A standalone document: the fixture's tree belongs to f.Prot.
		doc, err := xmlac.ParseDocumentString(f.Doc.XML())
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := doc.ApplyEdits(xmlac.Edit{Op: xmlac.EditSetText, Path: path, Text: values[i%2]}); err != nil {
				b.Fatal(err)
			}
			if _, err := xmlac.Protect(doc, f.Key, xmlac.SchemeECBMHT); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(1.0, reencFracMetric)
	}
}

// UpdateSuite measures delta updates (both regimes) against the full
// re-protect baseline and returns the results in the stable schema.
func UpdateSuite(fx *Fixture) []Result {
	return []Result{
		Run("Update/inplace", fx.UpdateInPlace()),
		Run("Update/reencode", fx.UpdateReencode()),
		Run("Update/reprotect", fx.UpdateReprotect()),
	}
}

// ParallelScanWorkerCounts is the worker axis of the parallel-scan suite;
// workers=1 is the serial baseline (ViewOptions.Parallelism 0).
var ParallelScanWorkerCounts = []int{1, 2, 4, 8}

// ParallelScanView measures one streamed view of cp delivered with the given
// region-parallelism; workers <= 1 selects the serial scan, so the suite's
// workers=1 arm is the baseline the speedup curve divides by.
func (f *Fixture) ParallelScanView(cp *xmlac.CompiledPolicy, workers int) func(*testing.B) {
	opts := xmlac.ViewOptions{}
	if workers > 1 {
		opts.Parallelism = workers
	}
	return func(b *testing.B) {
		b.ReportAllocs()
		var bytesOut int64
		for i := 0; i < b.N; i++ {
			cw := &countWriter{}
			_, m, err := f.Prot.View(context.Background(), f.Key, cp, opts, cw)
			if err != nil {
				b.Fatal(err)
			}
			if workers > 1 && m.Workers < 1 {
				b.Fatal("parallel path did not engage (serial fallback)")
			}
			bytesOut += cw.n
		}
		b.ReportMetric(float64(bytesOut)/float64(b.N)/(1<<20), mbPerViewMetric)
	}
}

// VerifyParallelParity delivers one view per worker count outside any timing
// loop and fails unless every parallel delivery is byte-identical to the
// serial one — the suite refuses to measure an execution strategy that
// changed the result.
func (f *Fixture) VerifyParallelParity(cp *xmlac.CompiledPolicy, workerCounts []int) error {
	var serial bytes.Buffer
	_, serialMetrics, err := f.Prot.View(context.Background(), f.Key, cp, xmlac.ViewOptions{}, &serial)
	if err != nil {
		return err
	}
	for _, w := range workerCounts {
		if w <= 1 {
			continue
		}
		var got bytes.Buffer
		_, m, err := f.Prot.View(context.Background(), f.Key, cp, xmlac.ViewOptions{Parallelism: w}, &got)
		if err != nil {
			return err
		}
		if !bytes.Equal(got.Bytes(), serial.Bytes()) {
			return fmt.Errorf("parallel view (workers=%d) not byte-identical to serial", w)
		}
		if m.NodesPermitted != serialMetrics.NodesPermitted || m.NodesDenied != serialMetrics.NodesDenied ||
			m.BytesSkipped != serialMetrics.BytesSkipped || m.SubtreesSkipped != serialMetrics.SubtreesSkipped {
			return fmt.Errorf("parallel per-subject SOE counters (workers=%d) differ from serial", w)
		}
	}
	return nil
}

// ParallelScanSuite measures the doctor view across the worker axis on the
// fixture's document (the acceptance curve runs it at scale 8, ~30 MB) and
// returns the results in the stable schema. The parity check runs first:
// a curve is only worth recording for byte-identical deliveries.
func ParallelScanSuite(fx *Fixture) ([]Result, error) {
	if err := fx.VerifyParallelParity(fx.Doctor, ParallelScanWorkerCounts); err != nil {
		return nil, err
	}
	var out []Result
	for _, w := range ParallelScanWorkerCounts {
		out = append(out, Run(fmt.Sprintf("ParallelScan/doctor/workers=%d", w), fx.ParallelScanView(fx.Doctor, w)))
	}
	return out, nil
}

// StreamingViewSuite measures the two delivery paths for the secretary and
// doctor profiles and returns the results in the stable schema.
func StreamingViewSuite(fx *Fixture) []Result {
	return []Result{
		Run("StreamingView/secretary/materialized", fx.MaterializedView(fx.Secretary)),
		Run("StreamingView/secretary/streaming", fx.StreamingView(fx.Secretary)),
		Run("StreamingView/doctor/materialized", fx.MaterializedView(fx.Doctor)),
		Run("StreamingView/doctor/streaming", fx.StreamingView(fx.Doctor)),
	}
}
