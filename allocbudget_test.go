package xmlac_test

import (
	"context"
	"io"
	"testing"

	"xmlac"
)

// Allocation budget of the streamed view hot path. The SOE evaluates a view
// in one streaming pass whose state is bounded by the document depth and the
// active tokens, so a view should allocate little beyond the text it
// delivers: the Skip-index decoder, the secure reader, the evaluator and the
// serializer reuse their per-scan state, and the ECB-MHT fragment hashes
// come from the leaf table built with the ciphertext. Each ceiling is about
// 1.5-2 times the measured count (372 and 9,595; up to about 475 and 9,730
// under -race) and at most a quarter of what the view took when every
// element, read and text node allocated (15,050 and 119,214).
func TestStreamedViewAllocationBudget(t *testing.T) {
	prot, key := accountingDoc(t, xmlac.SchemeECBMHT)
	for _, tc := range []struct {
		name    string
		policy  xmlac.Policy
		ceiling float64
	}{
		{"secretary", xmlac.SecretaryPolicy(), 700},
		{"DrA", xmlac.DoctorPolicy("DrA"), 15000},
	} {
		cp, err := tc.policy.Compile()
		if err != nil {
			t.Fatal(err)
		}
		var viewErr error
		allocs := testing.AllocsPerRun(20, func() {
			if _, _, err := prot.View(context.Background(), key, cp, xmlac.ViewOptions{}, io.Discard); err != nil {
				viewErr = err
			}
		})
		if viewErr != nil {
			t.Fatalf("%s: %v", tc.name, viewErr)
		}
		t.Logf("%s: %.0f allocations per view", tc.name, allocs)
		if allocs > tc.ceiling {
			t.Errorf("%s: %.0f allocations per view, budget %.0f", tc.name, allocs, tc.ceiling)
		}
	}
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
