package skipindex

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"xmlac/internal/xmlstream"
)

func sampleDoc() *xmlstream.Node {
	return xmlstream.NewElement("Hospital",
		xmlstream.NewElement("Folder",
			xmlstream.NewElement("Admin",
				xmlstream.Elem("Fname", "alice"),
				xmlstream.Elem("Age", "52"),
			),
			xmlstream.NewElement("MedActs",
				xmlstream.NewElement("Act",
					xmlstream.Elem("RPhys", "DrA"),
					xmlstream.NewElement("Details", xmlstream.Elem("Diagnostic", "flu")),
				),
			),
		),
		xmlstream.NewElement("Folder",
			xmlstream.NewElement("Admin",
				xmlstream.Elem("Fname", "bob"),
				xmlstream.Elem("Age", "31"),
			),
		),
	)
}

func TestBitWriterReaderRoundTrip(t *testing.T) {
	w := &bitWriter{}
	w.writeBool(true)
	w.writeBits(5, 3)
	w.writeBits(0x1234, 16)
	w.writeBool(false)
	w.writeBits(7, 3)
	data := w.bytes()
	r := newBitReader(data)
	if b, _ := r.readBool(); !b {
		t.Fatal("bool 1")
	}
	if v, _ := r.readBits(3); v != 5 {
		t.Fatalf("got %d want 5", v)
	}
	if v, _ := r.readBits(16); v != 0x1234 {
		t.Fatalf("got %x want 1234", v)
	}
	if b, _ := r.readBool(); b {
		t.Fatal("bool 2")
	}
	if v, _ := r.readBits(3); v != 7 {
		t.Fatalf("got %d want 7", v)
	}
	if _, ok := r.readBits(64); ok {
		t.Fatal("reading past end must fail")
	}
}

func TestBitsFor(t *testing.T) {
	cases := map[uint64]uint{0: 0, 1: 1, 2: 2, 3: 2, 4: 3, 255: 8, 256: 9, 1023: 10}
	for in, want := range cases {
		if got := bitsFor(in); got != want {
			t.Errorf("bitsFor(%d) = %d, want %d", in, got, want)
		}
	}
	if bitsForCount(1) != 0 || bitsForCount(2) != 1 || bitsForCount(3) != 2 || bitsForCount(20) != 5 {
		t.Fatal("bitsForCount incorrect")
	}
}

func TestUvarintRoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		buf := putUvarint(nil, v)
		got, n := uvarint(buf)
		return got == v && n == len(buf) && n == uvarintLen(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
	if _, n := uvarint([]byte{0x80, 0x80}); n != 0 {
		t.Fatal("truncated varint must be rejected")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	doc := sampleDoc()
	enc, err := Encode(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc.Dictionary) != len(doc.DistinctTags()) {
		t.Fatalf("dictionary size %d", len(enc.Dictionary))
	}
	back, err := Decode(enc.Data)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(doc) {
		t.Fatalf("round trip mismatch:\nin:  %s\nout: %s",
			xmlstream.SerializeTree(doc, false), xmlstream.SerializeTree(back, false))
	}
}

func TestEncodeRejectsNonElementRoot(t *testing.T) {
	if _, err := Encode(nil); err == nil {
		t.Fatal("nil root must fail")
	}
	if _, err := Encode(xmlstream.NewText("x")); err == nil {
		t.Fatal("text root must fail")
	}
}

func TestDecoderEventsAndDepths(t *testing.T) {
	doc := xmlstream.NewElement("a", xmlstream.Elem("b", "1"), xmlstream.NewElement("c", xmlstream.Elem("d", "2")))
	enc, err := Encode(doc)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(NewBytesSource(enc.Data))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for {
		ev, err := dec.Next()
		if err == xmlstream.ErrEndOfDocument {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, ev.String())
	}
	want := []string{
		"<a>@1", "<b>@2", `"1"@2`, "</b>@2", "<c>@2", "<d>@3", `"2"@3`, "</d>@3", "</c>@2", "</a>@1",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("event stream mismatch:\ngot:  %v\nwant: %v", got, want)
	}
}

func TestDecoderDescendantTags(t *testing.T) {
	doc := sampleDoc()
	enc, err := Encode(doc)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(NewBytesSource(enc.Data))
	if err != nil {
		t.Fatal(err)
	}
	// Read until the first MedActs open event; its descendant tags must
	// contain Act/RPhys/Details/Diagnostic and not Admin.
	for {
		ev, err := dec.Next()
		if err != nil {
			t.Fatal("MedActs not found")
		}
		if ev.Kind == xmlstream.Open && ev.Name == "MedActs" {
			break
		}
	}
	if _, known := dec.HasDescendantTag("MedActs"); !known {
		t.Fatal("descendant tags unavailable")
	}
	for _, want := range []string{"MedActs", "Act", "RPhys", "Details", "Diagnostic"} {
		if has, _ := dec.HasDescendantTag(want); !has {
			t.Errorf("missing descendant tag %s", want)
		}
	}
	for _, absent := range []string{"Admin", "NoSuchTag", ""} {
		if has, _ := dec.HasDescendantTag(absent); has {
			t.Errorf("%q must not be reported under MedActs", absent)
		}
	}
}

func TestDecoderSkipToClose(t *testing.T) {
	doc := sampleDoc()
	enc, err := Encode(doc)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(NewBytesSource(enc.Data))
	if err != nil {
		t.Fatal(err)
	}
	// Open Hospital, open first Folder, then skip the folder.
	for i := 0; i < 2; i++ {
		if _, err := dec.Next(); err != nil {
			t.Fatal(err)
		}
	}
	skipped, err := dec.SkipToClose(2)
	if err != nil {
		t.Fatal(err)
	}
	if skipped <= 0 {
		t.Fatal("expected a positive skip")
	}
	ev, err := dec.Next()
	if err != nil || ev.Kind != xmlstream.Close || ev.Name != "Folder" || ev.Depth != 2 {
		t.Fatalf("expected </Folder>@2 after skip, got %v (%v)", ev, err)
	}
	ev, err = dec.Next()
	if err != nil || ev.Kind != xmlstream.Open || ev.Name != "Folder" {
		t.Fatalf("expected second <Folder>, got %v (%v)", ev, err)
	}
	// The skipped bytes are not fetched from the source.
	if dec.BytesSkipped() != skipped {
		t.Fatalf("BytesSkipped = %d want %d", dec.BytesSkipped(), skipped)
	}
	if dec.BytesRead() >= int64(len(enc.Data)) {
		t.Fatalf("skipping should reduce the bytes read (%d of %d)", dec.BytesRead(), len(enc.Data))
	}
	if _, err := dec.SkipToClose(99); err == nil {
		t.Fatal("skipping a non-open depth must fail")
	}
}

func TestDecoderReadsEveryByteWithoutSkips(t *testing.T) {
	doc := sampleDoc()
	enc, _ := Encode(doc)
	dec, err := NewDecoder(NewBytesSource(enc.Data))
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := dec.Next(); err != nil {
			break
		}
	}
	if dec.BytesRead() != int64(len(enc.Data)) {
		t.Fatalf("full scan should read every byte: read %d of %d", dec.BytesRead(), len(enc.Data))
	}
}

func TestDecoderRejectsCorruptedInput(t *testing.T) {
	doc := sampleDoc()
	enc, _ := Encode(doc)
	// Bad magic.
	bad := append([]byte{}, enc.Data...)
	bad[0] = 'Z'
	if _, err := NewDecoder(NewBytesSource(bad)); err == nil {
		t.Fatal("bad magic must be rejected")
	}
	// Truncated document.
	if _, err := NewDecoder(NewBytesSource(enc.Data[:8])); err == nil {
		t.Fatal("truncated header must be rejected")
	}
	trunc := enc.Data[:len(enc.Data)-5]
	if _, err := NewDecoder(NewBytesSource(trunc)); err == nil {
		// Header parses but body length check must fail.
		t.Fatal("truncated body must be rejected")
	}
}

func TestVariantsOrdering(t *testing.T) {
	doc := sampleDoc()
	reports := MeasureAll(doc)
	if len(reports) != 5 {
		t.Fatalf("expected 5 reports, got %d", len(reports))
	}
	byVariant := map[Variant]SizeReport{}
	for _, r := range reports {
		byVariant[r.Variant] = r
	}
	// The qualitative ordering of Figure 8: NC is by far the largest
	// structure; TC is much smaller; TCS adds overhead over TC; TCSB adds
	// more; TCSBR compresses TCSB back near TC.
	if byVariant[NC].StructureBytes <= byVariant[TC].StructureBytes {
		t.Error("NC must be larger than TC")
	}
	if byVariant[TCS].StructureBytes < byVariant[TC].StructureBytes {
		t.Error("TCS cannot be smaller than TC")
	}
	if byVariant[TCSB].StructureBytes < byVariant[TCS].StructureBytes {
		t.Error("TCSB cannot be smaller than TCS")
	}
	if byVariant[TCSBR].StructureBytes >= byVariant[TCSB].StructureBytes {
		t.Error("the recursive encoding must be smaller than TCSB")
	}
	for _, r := range reports {
		if r.TextBytes != int64(doc.TextLength()) {
			t.Errorf("%s: text bytes %d", r.Variant, r.TextBytes)
		}
		if r.StructureOverText <= 0 {
			t.Errorf("%s: ratio must be positive", r.Variant)
		}
	}
	if NC.String() != "NC" || TCSBR.String() != "TCSBR" || Variant(99).String() != "unknown" {
		t.Error("Variant.String incorrect")
	}
}

// TestPropertyEncodeDecodeRandomTrees: random trees round-trip through the
// Skip-index encoding.
func TestPropertyEncodeDecodeRandomTrees(t *testing.T) {
	f := func(seed uint32) bool {
		doc := randomTree(int(seed))
		enc, err := Encode(doc)
		if err != nil {
			return false
		}
		back, err := Decode(enc.Data)
		if err != nil {
			return false
		}
		return back.Equal(doc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertySkipNeverChangesSubsequentEvents: skipping a subtree yields
// exactly the same remaining events as reading through it.
func TestPropertySkipNeverChangesSubsequentEvents(t *testing.T) {
	f := func(seed uint32) bool {
		doc := randomTree(int(seed))
		enc, err := Encode(doc)
		if err != nil {
			return false
		}
		full, err := NewDecoder(NewBytesSource(enc.Data))
		if err != nil {
			return false
		}
		skip, err := NewDecoder(NewBytesSource(enc.Data))
		if err != nil {
			return false
		}
		// Read two events on both, then skip the current element on one and
		// fast-forward the other manually.
		var skipDepth int
		for i := 0; i < 2; i++ {
			ev, err := full.Next()
			if err != nil {
				return true // tiny document, nothing to compare
			}
			ev2, err2 := skip.Next()
			if err2 != nil || ev != ev2 {
				return false
			}
			if ev.Kind == xmlstream.Open {
				skipDepth = ev.Depth
			}
		}
		if skipDepth == 0 {
			return true
		}
		if _, err := skip.SkipToClose(skipDepth); err != nil {
			return false
		}
		// Fast-forward the full reader to the matching close.
		for {
			ev, err := full.Next()
			if err != nil {
				return false
			}
			if ev.Kind == xmlstream.Close && ev.Depth == skipDepth {
				// push back: compare the next events from here on.
				break
			}
		}
		evSkip, errSkip := skip.Next()
		if errSkip != nil || evSkip.Kind != xmlstream.Close || evSkip.Depth != skipDepth {
			return false
		}
		for {
			a, errA := full.Next()
			b, errB := skip.Next()
			if (errA == nil) != (errB == nil) {
				return false
			}
			if errA != nil {
				return true
			}
			if a != b {
				return false
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// randomTree builds a deterministic random tree with text at the leaves.
func randomTree(seed int) *xmlstream.Node {
	state := uint32(seed*2654435761 + 7)
	next := func(n int) int {
		state = state*1664525 + 1013904223
		return int(state>>16) % n
	}
	tags := []string{"alpha", "beta", "gamma", "delta", "eps"}
	var build func(depth int) *xmlstream.Node
	build = func(depth int) *xmlstream.Node {
		n := xmlstream.NewElement(tags[next(len(tags))])
		if depth >= 4 || next(3) == 0 {
			n.Append(xmlstream.NewText("v" + tags[next(len(tags))]))
			return n
		}
		kids := next(4) + 1
		for i := 0; i < kids; i++ {
			n.Append(build(depth + 1))
		}
		return n
	}
	return build(1)
}

// TestEncodeIndexedSpliceEqualsReencode pins the property the in-place
// update fast path relies on: replacing an element's direct text with a
// same-length value by splicing Data at its TextSpan produces exactly the
// bytes a full re-encode of the edited tree produces.
func TestEncodeIndexedSpliceEqualsReencode(t *testing.T) {
	root := xmlstream.NewElement("Folder",
		xmlstream.NewElement("Admin",
			xmlstream.Elem("Phone", "0123456789"),
			xmlstream.Elem("Age", "42"),
		),
		xmlstream.NewElement("Act",
			xmlstream.NewText("preamble "),
			xmlstream.Elem("Id", "ACT0000001"),
			xmlstream.NewText(" tail"),
		),
	)
	enc, err := new(Encoder).EncodeIndexed(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Encode(root)
	if err != nil {
		t.Fatal(err)
	}
	if plain.TextSpans != nil {
		t.Fatal("plain Encode must not build the span index")
	}
	if !bytes.Equal(enc.Data, plain.Data) {
		t.Fatal("EncodeIndexed must not change the encoding")
	}
	// Every element's span must read back its concatenated direct text.
	root.Walk(func(n *xmlstream.Node) bool {
		if n.Kind != xmlstream.ElementNode {
			return true
		}
		span, ok := enc.TextSpans[n]
		if !ok {
			t.Fatalf("no span for <%s>", n.Name)
		}
		if got := string(enc.Data[span.Off : span.Off+span.Len]); got != n.Text() {
			t.Fatalf("<%s> span reads %q, tree says %q", n.Name, got, n.Text())
		}
		return true
	})
	// Splice a same-length phone number and compare with re-encoding the
	// edited tree.
	phone := root.Children[0].Children[0]
	span := enc.TextSpans[phone]
	spliced := append([]byte(nil), enc.Data...)
	copy(spliced[span.Off:span.Off+span.Len], "9876543210")
	phone.Children = []*xmlstream.Node{xmlstream.NewText("9876543210")}
	reenc, err := Encode(root)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(spliced, reenc.Data) {
		t.Fatal("spliced encoding differs from a full re-encode of the edited tree")
	}
	// The multi-text element's span covers the concatenation.
	act := root.Children[1]
	aspan := enc.TextSpans[act]
	if string(enc.Data[aspan.Off:aspan.Off+aspan.Len]) != "preamble  tail" {
		t.Fatalf("concatenated span reads %q", string(enc.Data[aspan.Off:aspan.Off+aspan.Len]))
	}
}

// TestEncoderReuse: an Encoder that already encoded other documents, larger
// and smaller, yields the bytes a fresh one does, and refills a reused span
// map with exactly the new document's elements.
func TestEncoderReuse(t *testing.T) {
	var e Encoder
	stale := xmlstream.Elem("Gone", "x")
	spans := map[*xmlstream.Node]TextSpan{stale: {Off: 1, Len: 1}}
	for _, doc := range []*xmlstream.Node{randomTree(7), sampleDoc(), randomTree(11), randomTree(3), sampleDoc()} {
		want, err := Encode(doc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.EncodeIndexed(doc, spans)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Data, want.Data) || got.StructureBits != want.StructureBits || got.TextBytes != want.TextBytes {
			t.Fatal("a reused Encoder differs from a fresh one")
		}
		if len(spans) != doc.CountElements() {
			t.Fatalf("span map holds %d entries for %d elements", len(spans), doc.CountElements())
		}
		doc.Walk(func(n *xmlstream.Node) bool {
			if n.Kind != xmlstream.ElementNode {
				return true
			}
			span, ok := spans[n]
			if !ok || string(got.Data[span.Off:span.Off+span.Len]) != n.Text() {
				t.Fatalf("<%s>: span %+v (present %v) does not read its text %q", n.Name, span, ok, n.Text())
			}
			return true
		})
	}
}

// failingSource serves data but fails every read that touches offset k with
// err, the way an integrity check or a canceled fetch fails mid-document.
type failingSource struct {
	ByteSource
	k   int64
	err error
}

func (s failingSource) ReadAt(p []byte, off int64) (int, error) {
	if off <= s.k && s.k < off+int64(len(p)) {
		return 0, s.err
	}
	return s.ByteSource.ReadAt(p, off)
}

// TestSourceErrorsAreNotFormatErrors: a source failing at any offset k of a
// full scan surfaces its own error, never dressed as ErrBadFormat, while a
// document that ends early still is a format error.
func TestSourceErrorsAreNotFormatErrors(t *testing.T) {
	enc, err := Encode(sampleDoc())
	if err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("source failed")
	scan := func(src ByteSource) error {
		dec, err := NewDecoder(src)
		if err != nil {
			return err
		}
		for {
			if _, err := dec.Next(); err != nil {
				return err
			}
		}
	}
	for k := int64(0); k < int64(len(enc.Data)); k++ {
		src := failingSource{NewBytesSource(enc.Data), k, sentinel}
		err := scan(src)
		if !errors.Is(err, sentinel) || errors.Is(err, ErrBadFormat) {
			t.Fatalf("source failing at offset %d: scan error %v, want the source's own error", k, err)
		}
	}
	for _, n := range []int{3, 8, len(enc.Data) - 5} {
		if err := scan(NewBytesSource(enc.Data[:n])); !errors.Is(err, ErrBadFormat) {
			t.Fatalf("document truncated to %d bytes: %v, want ErrBadFormat", n, err)
		}
	}
}
