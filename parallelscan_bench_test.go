package xmlac_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"testing"

	"xmlac"
)

// BenchmarkParallelScan measures the region-parallel intra-document scan on
// a 6400-folder hospital document (~30 MB): one doctor view delivered
// serially (workers=1) and with 2, 4 and 8 region workers. Before any
// timing, the harness delivers one view per worker count and fails unless
// the parallel bytes are identical to the serial bytes and the per-subject
// SOE counters are equal — the curve is only worth recording for an
// execution strategy that provably changed nothing but the wall clock.
//
// The speedup is bounded by the cores actually available: ~linear until the
// worker count passes GOMAXPROCS, flat after (a single-core runner measures
// a flat curve plus the small stitching overhead). CI's bench-smoke job
// runs it once, so the byte-identity check at 30 MB runs on every push.
func BenchmarkParallelScan(b *testing.B) {
	prot, key, _ := protectHospital(b, 6400)
	doctor, err := xmlac.DoctorPolicy("DrA").Compile()
	if err != nil {
		b.Fatal(err)
	}
	var serial bytes.Buffer
	_, serialMetrics, err := prot.View(context.Background(), key, doctor, xmlac.ViewOptions{}, &serial)
	if err != nil {
		b.Fatal(err)
	}
	// workers=1 is the serial baseline the speedup curve divides by.
	workerCounts := []int{1, 2, 4, 8}
	for _, workers := range workerCounts[1:] {
		var got bytes.Buffer
		_, m, err := prot.View(context.Background(), key, doctor, xmlac.ViewOptions{Parallelism: workers}, &got)
		if err != nil {
			b.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), serial.Bytes()) {
			b.Fatalf("parallel view (workers=%d) not byte-identical to serial", workers)
		}
		if scrubParallelCosts(m) != scrubParallelCosts(serialMetrics) {
			b.Fatalf("parallel per-subject SOE counters (workers=%d) differ from serial", workers)
		}
	}
	for _, workers := range workerCounts {
		opts := xmlac.ViewOptions{}
		if workers > 1 {
			opts.Parallelism = workers
		}
		b.Run(fmt.Sprintf("doctor/workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, m, err := prot.View(context.Background(), key, doctor, opts, io.Discard)
				if err != nil {
					b.Fatal(err)
				}
				if workers > 1 && m.Workers < 1 {
					b.Fatal("parallel path did not engage (serial fallback)")
				}
			}
			b.ReportMetric(float64(serial.Len())/(1<<20), "MB/view")
		})
	}
}
