package xmlac_test

import (
	"context"
	"io"
	"runtime"
	"testing"

	"xmlac"
)

// Allocation budget of the streamed view hot path. The SOE evaluates a view
// in one streaming pass whose state is bounded by the document depth and the
// active tokens, so a view should allocate little beyond the text it
// delivers: the Skip-index decoder, the secure reader, the evaluator and the
// serializer reuse their per-scan state, the ECB-MHT fragment hashes come
// from the leaf table built with the ciphertext, and the result builder
// recycles every node it settles, pending ones included. The doctors' views
// therefore allocate nodes for the skeleton they buffer at once, not for
// every element that was ever pending. Measured per view (under -race in
// brackets): secretary 371 (458) allocations and 7,744 (30,970) bytes, DrA
// 5,616 (5,894) and 166,805 (241,437), DrH 5,242 (5,629) and 184,066
// (270,379). The allocation ceilings are about twice the -race counts; the
// secretary's, 700, is older and tighter. The doctors' byte ceilings are
// about twice the plain values, well below what their views took while
// pending nodes were never recycled (DrA 9,595 allocations and 442,636
// bytes, DrH 12,827 and 710,302); the secretary's is twice its -race value.
func TestStreamedViewAllocationBudget(t *testing.T) {
	prot, key := accountingDoc(t, xmlac.SchemeECBMHT)
	for _, tc := range []struct {
		name                      string
		policy                    xmlac.Policy
		allocCeiling, byteCeiling float64
	}{
		{"secretary", xmlac.SecretaryPolicy(), 700, 64000},
		{"DrA", xmlac.DoctorPolicy("DrA"), 12000, 340000},
		{"DrH", xmlac.DoctorPolicy("DrH"), 11500, 370000},
	} {
		cp, err := tc.policy.Compile()
		if err != nil {
			t.Fatal(err)
		}
		var viewErr error
		allocs, bytes := perRun(20, func() {
			if _, _, err := prot.View(context.Background(), key, cp, xmlac.ViewOptions{}, io.Discard); err != nil {
				viewErr = err
			}
		})
		if viewErr != nil {
			t.Fatalf("%s: %v", tc.name, viewErr)
		}
		t.Logf("%s: %.0f allocations, %.0f bytes per view", tc.name, allocs, bytes)
		if allocs > tc.allocCeiling {
			t.Errorf("%s: %.0f allocations per view, budget %.0f", tc.name, allocs, tc.allocCeiling)
		}
		if bytes > tc.byteCeiling {
			t.Errorf("%s: %.0f bytes allocated per view, budget %.0f", tc.name, bytes, tc.byteCeiling)
		}
	}
}

// perRun returns the heap allocations and bytes f makes per call, averaged
// over runs calls after one warm-up call, on one P as testing.AllocsPerRun
// measures.
func perRun(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// Allocation budget of a structural update: a set-text that changes the
// text's length, so the Skip index is re-encoded. The publisher keeps its
// encoder state and span index between updates, so an update allocates the
// new version's plaintext, ciphertext, digests and leaf table, not state
// per element. The ceiling is about twice the measured count (153) and far
// below what an update took when the encoder allocated per element
// (37,040).
func TestStructuralUpdateAllocationBudget(t *testing.T) {
	prot, key := accountingDoc(t, xmlac.SchemeECBMHT)
	names := []string{"Abcdefghijk", "Abcdefghijklm"}
	n := 0
	var updateErr error
	update := func() {
		edit := xmlac.Edit{Op: xmlac.EditSetText, Path: "/Hospital/Folder[3]/Admin/Fname", Text: names[n%2]}
		n++
		if _, _, err := prot.Update(key, []xmlac.Edit{edit}); err != nil {
			updateErr = err
		}
	}
	update() // materializes the edit state
	allocs := testing.AllocsPerRun(10, update)
	if updateErr != nil {
		t.Fatal(updateErr)
	}
	t.Logf("%.0f allocations per structural update", allocs)
	if allocs > 300 {
		t.Errorf("%.0f allocations per structural update, budget 300", allocs)
	}
}
