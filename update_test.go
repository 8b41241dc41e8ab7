package xmlac_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"xmlac"
	"xmlac/internal/dataset"
	"xmlac/internal/xmlstream"
)

// updateDocXML spans a few dozen integrity chunks so the chunk-granularity
// assertions below are meaningful: two distinguished folders (alice, bob)
// the edits target, then filler folders with unique values.
var updateDocXML = func() string {
	var sb strings.Builder
	sb.WriteString(`<Hospital>`)
	sb.WriteString(`<Folder><Admin><SSN>1111111111111</SSN><Fname>alice</Fname><Age>44</Age><Phone>0123456789</Phone></Admin>` +
		`<MedActs><Act><Id>ACT0000001</Id><RPhys>DrA</RPhys><Details><Comments>first act long comments body</Comments></Details></Act></MedActs></Folder>`)
	sb.WriteString(`<Folder><Admin><SSN>2222222222222</SSN><Fname>bob</Fname><Age>61</Age><Phone>0987654321</Phone></Admin>` +
		`<MedActs><Act><Id>ACT0000002</Id><RPhys>DrB</RPhys><Details><Comments>second act long comments body</Comments></Details></Act></MedActs></Folder>`)
	for i := 0; i < 60; i++ {
		fmt.Fprintf(&sb, `<Folder><Admin><SSN>%013d</SSN><Fname>filler%04d</Fname><Age>%d</Age><Phone>%010d</Phone></Admin>`+
			`<MedActs><Act><Id>ACT%07d</Id><RPhys>DrC</RPhys><Details><Comments>filler act number %d with a reasonably long narrative body to spread the document over many integrity chunks</Comments></Details></Act></MedActs></Folder>`,
			3000000000000+i, i, 20+i%60, 6000000000+i, 100+i, i)
	}
	sb.WriteString(`</Hospital>`)
	return sb.String()
}()

func protectUpdateDoc(t *testing.T) (*xmlac.Protected, xmlac.Key) {
	t.Helper()
	doc, err := xmlac.ParseDocumentString(updateDocXML)
	if err != nil {
		t.Fatal(err)
	}
	key := xmlac.DeriveKey("update-test")
	prot, err := xmlac.Protect(doc, key, xmlac.SchemeECBMHT)
	if err != nil {
		t.Fatal(err)
	}
	return prot, key
}

// viewOf materializes the secretary view (sees //Admin).
func viewOf(t *testing.T, prot *xmlac.Protected, key xmlac.Key) string {
	t.Helper()
	cp, err := xmlac.SecretaryPolicy().Compile()
	if err != nil {
		t.Fatal(err)
	}
	view, _, err := prot.View(context.Background(), key, cp, xmlac.ViewOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return view.XML()
}

// editedEquivalent protects the expected post-edit document from scratch.
func editedEquivalent(t *testing.T, xml string, key xmlac.Key) *xmlac.Protected {
	t.Helper()
	doc, err := xmlac.ParseDocumentString(xml)
	if err != nil {
		t.Fatal(err)
	}
	prot, err := xmlac.Protect(doc, key, xmlac.SchemeECBMHT)
	if err != nil {
		t.Fatal(err)
	}
	return prot
}

func TestUpdateSetTextInPlace(t *testing.T) {
	prot, key := protectUpdateDoc(t)
	if prot.Version() != 1 {
		t.Fatalf("fresh document at version %d, want 1", prot.Version())
	}
	sizeBefore := prot.Size()
	version, delta, err := prot.Update(key, []xmlac.Edit{
		{Op: xmlac.EditSetText, Path: "/Hospital/Folder[2]/Admin/Phone", Text: "5555555555"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if version != 2 || prot.Version() != 2 {
		t.Fatalf("version %d / %d after one update, want 2", version, prot.Version())
	}
	if prot.Size() != sizeBefore {
		t.Fatalf("same-length edit changed the ciphertext size: %d -> %d", sizeBefore, prot.Size())
	}
	// A same-length text edit must be near-minimal.
	if len(delta.DirtyChunks) == 0 || delta.BytesReencrypted >= delta.BytesReused {
		t.Fatalf("same-length edit delta not chunk-granular: %+v", delta)
	}
	got := viewOf(t, prot, key)
	if !strings.Contains(got, "5555555555") || strings.Contains(got, "0987654321") {
		t.Fatalf("updated view does not reflect the edit: %s", got)
	}
	want := editedEquivalent(t, strings.Replace(updateDocXML, "0987654321", "5555555555", 1), key)
	if got != viewOf(t, want, key) {
		t.Fatal("updated view differs from a from-scratch protect of the edited document")
	}
}

func TestUpdateStructuralEdits(t *testing.T) {
	prot, key := protectUpdateDoc(t)
	// Replace an Admin block, delete an Act, insert a new Folder — the
	// structural path. The edits target the tail of the document: a
	// structural edit shifts every byte after it, so only tail edits can
	// demonstrate prefix reuse (the root header chunk is always dirty — the
	// root's subtree size changed).
	_, delta, err := prot.Update(key, []xmlac.Edit{
		{Op: xmlac.EditReplace, Path: "/Hospital/Folder[61]/Admin",
			XML: "<Admin><SSN>9999999999999</SSN><Fname>carol</Fname><Age>29</Age><Phone>1231231234</Phone></Admin>"},
		{Op: xmlac.EditDelete, Path: "/Hospital/Folder[62]/MedActs/Act"},
		{Op: xmlac.EditInsert, Path: "/Hospital",
			XML: "<Folder><Admin><SSN>3333333333333</SSN><Fname>dave</Fname><Age>70</Age><Phone>3213214321</Phone></Admin></Folder>"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if prot.Version() != 2 {
		t.Fatalf("version %d after one batch, want 2", prot.Version())
	}
	if delta.BytesReused == 0 {
		t.Fatal("tail-side structural edit reused no chunks at all")
	}
	got := viewOf(t, prot, key)
	for _, want := range []string{"carol", "dave", "3213214321"} {
		if !strings.Contains(got, want) {
			t.Fatalf("view misses %q after structural edits: %s", want, got)
		}
	}
	if strings.Contains(got, "filler0058") {
		t.Fatal("replaced subtree still visible in the view")
	}
}

func TestUpdateAtomicBatch(t *testing.T) {
	prot, key := protectUpdateDoc(t)
	before := viewOf(t, prot, key)
	_, _, err := prot.Update(key, []xmlac.Edit{
		{Op: xmlac.EditSetText, Path: "/Hospital/Folder[1]/Admin/Fname", Text: "zoe"},
		{Op: xmlac.EditDelete, Path: "/Hospital/Folder[99]"}, // no such folder
	})
	if !errors.Is(err, xmlac.ErrInvalidEdit) {
		t.Fatalf("expected ErrInvalidEdit, got %v", err)
	}
	if prot.Version() != 1 {
		t.Fatalf("failed batch bumped the version to %d", prot.Version())
	}
	if got := viewOf(t, prot, key); got != before {
		t.Fatal("failed batch left a partial edit behind")
	}
	// Root protection.
	if _, _, err := prot.Update(key, []xmlac.Edit{{Op: xmlac.EditDelete, Path: "/Hospital"}}); !errors.Is(err, xmlac.ErrInvalidEdit) {
		t.Fatalf("deleting the root must fail, got %v", err)
	}
	// And the document must still be updatable after failures.
	if _, _, err := prot.Update(key, []xmlac.Edit{{Op: xmlac.EditSetText, Path: "/Hospital/Folder[1]/Admin/Fname", Text: "eve"}}); err != nil {
		t.Fatal(err)
	}
	if got := viewOf(t, prot, key); !strings.Contains(got, "eve") {
		t.Fatalf("edit after failed batch not applied: %s", got)
	}
}

func TestUpdateUnmarshalledDocument(t *testing.T) {
	prot, key := protectUpdateDoc(t)
	// Round-trip through the container: the edit state (tree, plaintext,
	// spans) must be recovered by the first Update.
	loaded, err := xmlac.UnmarshalProtected(prot.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	version, _, err := loaded.Update(key, []xmlac.Edit{
		{Op: xmlac.EditSetText, Path: "/Hospital/Folder[1]/Admin/Age", Text: "45"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if version != 2 {
		t.Fatalf("version %d, want 2", version)
	}
	if got := viewOf(t, loaded, key); !strings.Contains(got, ">45<") {
		t.Fatalf("edit on an unmarshalled document not applied: %s", got)
	}
	// The wrong key must fail cleanly, not corrupt.
	other, err := xmlac.UnmarshalProtected(prot.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := other.Update(xmlac.DeriveKey("wrong"), []xmlac.Edit{
		{Op: xmlac.EditSetText, Path: "/Hospital/Folder[1]/Admin/Age", Text: "45"},
	}); err == nil {
		t.Fatal("update with the wrong key must fail")
	}
}

func TestUpdateDeltaMarshalRoundTrip(t *testing.T) {
	prot, key := protectUpdateDoc(t)
	_, delta, err := prot.Update(key, []xmlac.Edit{
		{Op: xmlac.EditSetText, Path: "/Hospital/Folder[1]/Admin/Phone", Text: "1112223334"},
	})
	if err != nil {
		t.Fatal(err)
	}
	back, err := xmlac.UnmarshalUpdateDelta(delta.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if back.FromVersion != delta.FromVersion || back.ToVersion != delta.ToVersion ||
		len(back.DirtyChunks) != len(delta.DirtyChunks) || back.NewCiphertextLen != delta.NewCiphertextLen {
		t.Fatalf("delta round trip mismatch: %+v vs %+v", back, delta)
	}
}

// TestUpdateMarshalledBytesMatchFromScratch pins the strongest form of the
// differential property at the API level: the updated container equals a
// from-scratch protect of the edited document byte for byte, apart from the
// version stamp (compared via the public manifest and a view check above;
// here the blobs are compared with the version bytes excised).
func TestUpdateMarshalledBytesMatchFromScratch(t *testing.T) {
	prot, key := protectUpdateDoc(t)
	if _, _, err := prot.Update(key, []xmlac.Edit{
		{Op: xmlac.EditInsert, Path: "/Hospital/Folder[1]/MedActs",
			XML: "<Act><Id>ACT0000009</Id><RPhys>DrC</RPhys><Details><Comments>inserted act</Comments></Details></Act>"},
	}); err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(updateDocXML,
		"</Act></MedActs></Folder><Folder><Admin><SSN>2222",
		"</Act><Act><Id>ACT0000009</Id><RPhys>DrC</RPhys><Details><Comments>inserted act</Comments></Details></Act></MedActs></Folder><Folder><Admin><SSN>2222", 1)
	want := editedEquivalent(t, edited, key)
	gotBlob, wantBlob := prot.Marshal(), want.Marshal()
	if len(gotBlob) != len(wantBlob) {
		t.Fatalf("container sizes differ: %d vs %d", len(gotBlob), len(wantBlob))
	}
	// The docVersion field occupies bytes [22, 30) of the container header.
	if !bytes.Equal(gotBlob[:22], wantBlob[:22]) || !bytes.Equal(gotBlob[30:], wantBlob[30:]) {
		t.Fatal("updated container differs from a from-scratch protect beyond the version stamp")
	}
}

// protectHospital protects a hospital document of the given folder count
// under ECB-MHT and returns it with its key and plaintext XML (800 folders
// approximate the paper's ~3.6 MB evaluation document).
func protectHospital(tb testing.TB, folders int) (*xmlac.Protected, xmlac.Key, string) {
	tb.Helper()
	xml := xmlstream.SerializeTree(dataset.HospitalFolders(folders, 3), false)
	doc, err := xmlac.ParseDocumentString(xml)
	if err != nil {
		tb.Fatal(err)
	}
	key := xmlac.DeriveKey("hospital tests")
	prot, err := xmlac.Protect(doc, key, xmlac.SchemeECBMHT)
	if err != nil {
		tb.Fatal(err)
	}
	return prot, key, xml
}

// TestConcurrentPatchAndViews races two writers against streaming readers on
// one protected document: writer A rewrites Folder[1]'s Fname and writer B
// Folder[2]'s, steps times each, through Protected.Update, while readers
// stream the secretary's view. The reachable document states form the
// (a, b) grid of writer progress; every delivered view must be
// byte-identical to the view of one of them — never a torn mix of two
// versions, because a scan reads the one version it snapshotted at its
// start — and once the writers are done the view must hold both writers'
// last edits.
func TestConcurrentPatchAndViews(t *testing.T) {
	prot, key, xml := protectHospital(t, 24)
	policy := xmlac.SecretaryPolicy()
	cp, err := policy.Compile()
	if err != nil {
		t.Fatal(err)
	}
	const steps = 4
	edit := func(folder, step int) xmlac.Edit {
		return xmlac.Edit{
			Op:   xmlac.EditSetText,
			Path: fmt.Sprintf("/Hospital/Folder[%d]/Admin/Fname", folder),
			Text: fmt.Sprintf("writer%d-step%d", folder, step),
		}
	}

	// The view of every (a, b) state, from the plaintext oracle.
	expected := map[string]string{}
	for a := 0; a <= steps; a++ {
		for b := 0; b <= steps; b++ {
			doc, err := xmlac.ParseDocumentString(xml)
			if err != nil {
				t.Fatal(err)
			}
			var edits []xmlac.Edit
			if a > 0 {
				edits = append(edits, edit(1, a))
			}
			if b > 0 {
				edits = append(edits, edit(2, b))
			}
			if err := doc.ApplyEdits(edits...); err != nil {
				t.Fatal(err)
			}
			view, err := xmlac.EvaluateDocument(doc, policy, xmlac.ViewOptions{})
			if err != nil {
				t.Fatal(err)
			}
			expected[view.XML()] = fmt.Sprintf("a=%d b=%d", a, b)
		}
	}

	stream := func() (string, error) {
		var buf bytes.Buffer
		_, _, err := prot.View(context.Background(), key, cp, xmlac.ViewOptions{}, &buf)
		return buf.String(), err
	}
	const readers, viewsPerReader = 4, 6
	var wg sync.WaitGroup
	errs := make([]error, 2+readers)
	views := make([][]string, readers)
	for w := 1; w <= 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i <= steps && errs[w-1] == nil; i++ {
				_, _, errs[w-1] = prot.Update(key, []xmlac.Edit{edit(w, i)})
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < viewsPerReader; i++ {
				view, err := stream()
				if err != nil {
					errs[2+r] = err
					return
				}
				views[r] = append(views[r], view)
			}
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for r := range views {
		for i, view := range views[r] {
			if _, ok := expected[view]; !ok {
				t.Fatalf("reader %d view %d (%d bytes) matches no reachable document state: torn or mixed versions", r, i, len(view))
			}
		}
	}
	if v := prot.Version(); v != 1+2*steps {
		t.Fatalf("final version %d, want %d (every update one version)", v, 1+2*steps)
	}
	final, err := stream()
	if err != nil {
		t.Fatal(err)
	}
	if state := expected[final]; state != fmt.Sprintf("a=%d b=%d", steps, steps) {
		t.Fatalf("final view is state %q, want both writers fully applied", state)
	}
}
