package xmlac_test

import (
	"fmt"
	"testing"

	"xmlac"
)

// BenchmarkUpdate measures versioned in-place updates on an 800-folder
// hospital document (~3.6 MB protected) against the pre-update baseline of
// re-protecting the whole document:
//
//   - inplace: a same-length phone-number edit in the middle of the
//     document — the fast path splices the cached Skip-index encoding and
//     re-encrypts one or two of ~1500 chunks. Orders of magnitude cheaper
//     than a re-protect.
//   - reencode: a length-changing comment rewrite near the end — the
//     structural path re-encodes the Skip index but still reuses every
//     chunk before the shift point.
//   - reprotect: the baseline; apply the edit to the plain tree and protect
//     everything from scratch.
//
// The reenc-frac metric reports the fraction of ciphertext bytes each op
// re-encrypted. perfbench's store-update workload prices the same update
// path behind the store's WAL and delta resync.
func BenchmarkUpdate(b *testing.B) {
	const folders = 800
	prot, key, xml := protectHospital(b, folders)
	phone := fmt.Sprintf("/Hospital/Folder[%d]/Admin/Phone", folders/2)
	phones := [2]string{"5550000001", "5550000002"}
	b.Run("inplace", func(b *testing.B) {
		b.ReportAllocs()
		var reenc, total int64
		for i := 0; i < b.N; i++ {
			_, delta, err := prot.Update(key, []xmlac.Edit{{Op: xmlac.EditSetText, Path: phone, Text: phones[i%2]}})
			if err != nil {
				b.Fatal(err)
			}
			reenc += delta.BytesReencrypted
			total += delta.BytesReencrypted + delta.BytesReused
		}
		b.ReportMetric(float64(reenc)/float64(total), "reenc-frac")
	})
	b.Run("reencode", func(b *testing.B) {
		comments := fmt.Sprintf("/Hospital/Folder[%d]/MedActs/Act[1]/Details/Comments", folders-1)
		b.ReportAllocs()
		var reenc, total int64
		for i := 0; i < b.N; i++ {
			// Alternate the text length so every iteration shifts the
			// encoding (a same-length rewrite would take the in-place fast
			// path from the second iteration on).
			text := fmt.Sprintf("revised clinical narrative %0*d", 4+(i%2)*13, i)
			_, delta, err := prot.Update(key, []xmlac.Edit{{Op: xmlac.EditSetText, Path: comments, Text: text}})
			if err != nil {
				b.Fatal(err)
			}
			reenc += delta.BytesReencrypted
			total += delta.BytesReencrypted + delta.BytesReused
		}
		b.ReportMetric(float64(reenc)/float64(total), "reenc-frac")
	})
	b.Run("reprotect", func(b *testing.B) {
		doc, err := xmlac.ParseDocumentString(xml)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := doc.ApplyEdits(xmlac.Edit{Op: xmlac.EditSetText, Path: phone, Text: phones[i%2]}); err != nil {
				b.Fatal(err)
			}
			if _, err := xmlac.Protect(doc, key, xmlac.SchemeECBMHT); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(1.0, "reenc-frac")
	})
}

// TestUpdateReencryptsFraction pins the acceptance bound with a unit test
// (benchmarks don't gate byte counts): a small in-place edit on a
// realistically sized document must re-encrypt well under 10% of the bytes
// a full re-protect touches.
func TestUpdateReencryptsFraction(t *testing.T) {
	prot, key, _ := protectHospital(t, 80) // dozens of chunks
	_, delta, err := prot.Update(key, []xmlac.Edit{
		{Op: xmlac.EditSetText, Path: "/Hospital/Folder[40]/Admin/Phone", Text: "5559876543"},
	})
	if err != nil {
		t.Fatal(err)
	}
	total := delta.BytesReencrypted + delta.BytesReused
	if total == 0 {
		t.Fatal("empty delta accounting")
	}
	if frac := float64(delta.BytesReencrypted) / float64(total); frac >= 0.10 {
		t.Fatalf("small edit re-encrypted %.1f%% of the document (%d of %d bytes), want < 10%%",
			100*frac, delta.BytesReencrypted, total)
	}
}
