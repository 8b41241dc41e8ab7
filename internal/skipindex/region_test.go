package skipindex

import (
	"errors"
	"testing"
	"testing/quick"

	"xmlac/internal/xmlstream"
)

// serialEvents fully decodes an encoded document into its event stream.
func serialEvents(t *testing.T, data []byte) []xmlstream.Event {
	t.Helper()
	dec, err := NewDecoder(NewBytesSource(data))
	if err != nil {
		t.Fatal(err)
	}
	var evs []xmlstream.Event
	for {
		ev, err := dec.Next()
		if errors.Is(err, xmlstream.ErrEndOfDocument) {
			return evs
		}
		if err != nil {
			t.Fatal(err)
		}
		evs = append(evs, ev)
	}
}

// stitchedEvents replays the plan prefix, then every region in order, then
// the root Close — the exact reassembly protocol of the parallel scan.
func stitchedEvents(t *testing.T, data []byte, plan *RegionPlan) []xmlstream.Event {
	t.Helper()
	evs := plan.Prefix()
	for r := 0; r < plan.RegionCount(); r++ {
		dec, err := NewRegionDecoder(NewBytesSource(data), plan, r)
		if err != nil {
			t.Fatal(err)
		}
		for {
			ev, err := dec.Next()
			if errors.Is(err, xmlstream.ErrEndOfDocument) {
				break
			}
			if err != nil {
				t.Fatalf("region %d: %v", r, err)
			}
			if ev.Kind == xmlstream.Close && ev.Depth == 1 {
				t.Fatalf("region %d emitted the root Close", r)
			}
			evs = append(evs, ev)
		}
	}
	return append(evs, xmlstream.Event{Kind: xmlstream.Close, Name: plan.RootName(), Depth: 1})
}

func eventsEqual(a, b []xmlstream.Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPlanRegionsPartition(t *testing.T) {
	enc, err := Encode(sampleDoc())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanRegions(NewBytesSource(enc.Data), 4)
	if err != nil {
		t.Fatal(err)
	}
	// sampleDoc has two root children, so at most two regions exist.
	if plan.RegionCount() != 2 {
		t.Fatalf("RegionCount = %d, want 2", plan.RegionCount())
	}
	regions := plan.Regions()
	if regions[0].End != regions[1].Start {
		t.Fatalf("regions must tile: %+v", regions)
	}
	if regions[0].FirstChild != 0 || regions[1].FirstChild != 1 ||
		regions[0].NumChildren != 1 || regions[1].NumChildren != 1 {
		t.Fatalf("child assignment wrong: %+v", regions)
	}
	if got := plan.RootSkipDistance(); got != regions[1].End-regions[0].Start {
		t.Fatalf("RootSkipDistance = %d, want %d", got, regions[1].End-regions[0].Start)
	}
	if plan.RootName() != "Hospital" {
		t.Fatalf("RootName = %q", plan.RootName())
	}
	if has, known := plan.RootDescendantTags().HasDescendantTag("Diagnostic"); !has || !known {
		t.Fatal("root descendant tags must include Diagnostic")
	}
	prefix := plan.Prefix()
	if len(prefix) != 1 || prefix[0].Kind != xmlstream.Open || prefix[0].Name != "Hospital" {
		t.Fatalf("prefix = %v", prefix)
	}
}

func TestPlanRegionsCapsAtMaxRegions(t *testing.T) {
	var kids []*xmlstream.Node
	for i := 0; i < 17; i++ {
		kids = append(kids, xmlstream.NewElement("Folder", xmlstream.Elem("Age", "31")))
	}
	enc, err := Encode(xmlstream.NewElement("Hospital", kids...))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanRegions(NewBytesSource(enc.Data), 4)
	if err != nil {
		t.Fatal(err)
	}
	if plan.RegionCount() != 4 {
		t.Fatalf("RegionCount = %d, want 4", plan.RegionCount())
	}
	total := 0
	for _, r := range plan.Regions() {
		total += r.NumChildren
		if r.NumChildren == 0 {
			t.Fatalf("empty region: %+v", r)
		}
	}
	if total != 17 {
		t.Fatalf("regions cover %d children, want 17", total)
	}
}

func TestPlanRegionsNotDecomposable(t *testing.T) {
	for _, doc := range []*xmlstream.Node{
		xmlstream.Elem("leaf", "text-only root"),
		xmlstream.NewElement("empty"),
	} {
		enc, err := Encode(doc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := PlanRegions(NewBytesSource(enc.Data), 8); !errors.Is(err, ErrNotDecomposable) {
			t.Fatalf("<%s>: err = %v, want ErrNotDecomposable", doc.Name, err)
		}
	}
}

// TestRegionDecoderStitchMatchesSerial: prefix + regions in order + root
// Close reproduces the serial event stream exactly.
func TestRegionDecoderStitchMatchesSerial(t *testing.T) {
	doc := sampleDoc()
	// Give the root direct text too, so the prefix carries a Text event.
	doc.Children = append([]*xmlstream.Node{xmlstream.NewText("hdr")}, doc.Children...)
	enc, err := Encode(doc)
	if err != nil {
		t.Fatal(err)
	}
	serial := serialEvents(t, enc.Data)
	for _, maxRegions := range []int{1, 2, 3, 8} {
		plan, err := PlanRegions(NewBytesSource(enc.Data), maxRegions)
		if err != nil {
			t.Fatal(err)
		}
		if got := stitchedEvents(t, enc.Data, plan); !eventsEqual(got, serial) {
			t.Fatalf("maxRegions=%d: stitched stream differs\ngot:  %v\nwant: %v", maxRegions, got, serial)
		}
	}
}

// TestRegionDecoderMetaAndSkip: a region decoder answers MetaProvider for
// the root before its first event, and an in-region SkipToClose behaves as
// on the serial path.
func TestRegionDecoderMetaAndSkip(t *testing.T) {
	enc, err := Encode(sampleDoc())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanRegions(NewBytesSource(enc.Data), 2)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewRegionDecoder(NewBytesSource(enc.Data), plan, 0)
	if err != nil {
		t.Fatal(err)
	}
	has, known := dec.HasDescendantTag("MedActs")
	if !known {
		t.Fatal("region decoder must answer for the root before its first event")
	}
	if !has {
		t.Fatal("root descendant tags must include MedActs")
	}
	// Open the first Folder, then skip it: next events are its Close and
	// then end-of-region (region 0 holds exactly one child).
	ev, err := dec.Next()
	if err != nil || ev.Kind != xmlstream.Open || ev.Name != "Folder" || ev.Depth != 2 {
		t.Fatalf("first region event = %v (%v)", ev, err)
	}
	skipped, err := dec.SkipToClose(2)
	if err != nil || skipped <= 0 {
		t.Fatalf("SkipToClose: %d, %v", skipped, err)
	}
	ev, err = dec.Next()
	if err != nil || ev.Kind != xmlstream.Close || ev.Name != "Folder" {
		t.Fatalf("after skip: %v (%v)", ev, err)
	}
	if _, err := dec.Next(); !errors.Is(err, xmlstream.ErrEndOfDocument) {
		t.Fatalf("region must end after its last child, got %v", err)
	}
	if dec.BytesSkipped() != skipped {
		t.Fatalf("BytesSkipped = %d want %d", dec.BytesSkipped(), skipped)
	}
	if _, err := NewRegionDecoder(NewBytesSource(enc.Data), plan, 99); err == nil {
		t.Fatal("out-of-range region must fail")
	}
}

// TestPropertyRegionStitchRandomTrees: for random trees and region counts,
// the stitched stream equals the serial stream.
func TestPropertyRegionStitchRandomTrees(t *testing.T) {
	f := func(seed uint32, k uint8) bool {
		doc := randomTree(int(seed))
		enc, err := Encode(doc)
		if err != nil {
			return false
		}
		maxRegions := int(k)%7 + 1
		plan, err := PlanRegions(NewBytesSource(enc.Data), maxRegions)
		if errors.Is(err, ErrNotDecomposable) {
			return len(doc.Children) == 0 || doc.Children[0].Kind == xmlstream.TextNode
		}
		if err != nil {
			return false
		}
		return eventsEqual(stitchedEvents(t, enc.Data, plan), serialEvents(t, enc.Data))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
