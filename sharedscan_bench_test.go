package xmlac_test

import (
	"fmt"
	"testing"

	"xmlac/internal/bench"
)

// BenchmarkSharedScan measures the shared-scan fan-out on the scale-1.0
// hospital document (the paper's evaluation dataset at full size): N
// administrative-clerk subjects request views of the same document, served
// either by N independent scans ("solo", how the server serves GET /view,
// linear in N) or by one multicast scan ("multicast", one
// decrypt/integrity/parse pass dispatching to N automata). The amortization
// target: 16 multicast subjects cost well under 4x one solo subject, where
// 16 solo scans cost ~16x.
//
// The measurement closures live in internal/bench and also back the
// BENCH_shared_scan.json artifact of `xmlac-bench -json`, so the benchstat
// gate in CI and the JSON trajectory track the same code.
func BenchmarkSharedScan(b *testing.B) {
	fx, err := bench.NewHospitalFixture(1.0)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range bench.SharedScanSubjectCounts {
		cps, err := fx.ClerkPolicies(n)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("solo/subjects=%d", n), fx.SharedScanSolo(cps))
		b.Run(fmt.Sprintf("multicast/subjects=%d", n), fx.SharedScanMulticast(cps))
	}
}
