package skipindex

import (
	"errors"
	"fmt"
	"io"

	"xmlac/internal/xmlstream"
)

// ErrNotDecomposable reports a document whose scan cannot be partitioned
// into regions: the root element has no children (leaf or text-only root),
// so there is nothing below the shared prefix to hand out to workers.
var ErrNotDecomposable = errors.New("skipindex: document not decomposable into regions")

// Region is one contiguous run of the root element's children, identified
// by its encoded byte extent. Regions partition [childrenStart, rootEnd):
// every child of the root belongs to exactly one region, and a region
// decoder scans exactly its extent.
type Region struct {
	// Start and End bound the region's encoded bytes: Start is the first
	// child's element start, End the offset one past the last child's
	// subtree (the next region's Start, or the root's end offset).
	Start, End int64
	// FirstChild and NumChildren locate the region among the root's
	// children in document order.
	FirstChild, NumChildren int
}

// RegionPlan is the result of PlanRegions: the shared document prefix (the
// root element's Open and direct-text events, replayed identically by every
// consumer) plus a partition of the root's children into byte-balanced
// regions. The plan is immutable after construction and safe to share
// across goroutines; each worker builds its own Decoder from it with
// NewRegionDecoder.
type RegionPlan struct {
	dict []string

	prefix []xmlstream.Event

	rootName    string
	rootDescIDs []int
	rootSize    uint64
	rootEndOff  int64

	bodySize      uint64
	bytesTotal    int64
	childrenStart int64

	regions []Region
}

// PlanRegions decodes the document prefix (root open + direct text) and
// walks the root's direct children shallowly — reading only each child's
// fixed-size metadata, never descending — to partition the document body
// into at most maxRegions byte-balanced regions. The walk costs one small
// read per root child; on the secure reader those reads land in already
// verified chunks that the scan itself would fetch anyway, so the planning
// overhead is bounded by one chunk re-decrypt per region boundary.
//
// Returns ErrNotDecomposable when the root has no children.
func PlanRegions(src ByteSource, maxRegions int) (*RegionPlan, error) {
	if maxRegions < 1 {
		maxRegions = 1
	}
	d, err := NewDecoder(src)
	if err != nil {
		return nil, err
	}
	openEv, err := d.Next()
	if err != nil {
		return nil, err
	}
	if openEv.Kind != xmlstream.Open || len(d.stack) != 2 {
		return nil, fmt.Errorf("%w: document does not start with a root element", ErrBadFormat)
	}
	prefix := []xmlstream.Event{openEv}
	prefix = append(prefix, d.pending[d.head:]...) // the root's direct-text event, if any
	root := d.stack[1]

	p := &RegionPlan{
		dict:          d.dict,
		prefix:        prefix,
		rootName:      root.name,
		rootDescIDs:   append([]int(nil), d.ids[root.descLo:root.descHi]...),
		rootSize:      root.size,
		rootEndOff:    root.endOff,
		bodySize:      d.stack[0].size,
		bytesTotal:    d.bytesTotal,
		childrenStart: d.off,
	}
	if p.childrenStart >= p.rootEndOff {
		return nil, ErrNotDecomposable
	}

	// Shallow child walk: each child's subtree size is in its metadata, so
	// the extent chain [start, start+size) is readable without decoding any
	// grandchild. Widths mirror decodeElement with the root as parent.
	tagBits := bitsForCount(len(p.rootDescIDs))
	sizeBits := bitsFor(root.size)
	maxMeta := (1 + int(tagBits) + int(sizeBits) + len(p.rootDescIDs) + 7) / 8
	type childExtent struct {
		start int64
		size  int64
	}
	var children []childExtent
	buf := make([]byte, maxMeta)
	for off := p.childrenStart; off < p.rootEndOff; {
		n, err := src.ReadAt(buf, off)
		if n < len(buf) && err != nil && err != io.EOF {
			return nil, sourceErr("child meta", off, err)
		}
		r := newBitReader(buf[:n])
		if _, ok := r.readBool(); !ok { // isLeaf bit
			return nil, fmt.Errorf("%w: truncated child meta at offset %d", ErrBadFormat, off)
		}
		tagIdx, ok := r.readBits(tagBits)
		if !ok {
			return nil, fmt.Errorf("%w: truncated child tag index at offset %d", ErrBadFormat, off)
		}
		if int(tagIdx) >= len(p.rootDescIDs) {
			return nil, fmt.Errorf("%w: child tag index %d out of range at offset %d", ErrBadFormat, tagIdx, off)
		}
		size, ok := r.readBits(sizeBits)
		if !ok {
			return nil, fmt.Errorf("%w: truncated child subtree size at offset %d", ErrBadFormat, off)
		}
		if size == 0 || off+int64(size) > p.rootEndOff {
			return nil, fmt.Errorf("%w: child subtree size %d at offset %d overruns root extent", ErrBadFormat, size, off)
		}
		children = append(children, childExtent{start: off, size: int64(size)})
		off += int64(size)
	}
	// The loop exits only when off == rootEndOff (an overshoot errors above),
	// so the extents tile the body exactly.

	numRegions := maxRegions
	if numRegions > len(children) {
		numRegions = len(children)
	}
	// Greedy byte balancing: each region takes children until it holds its
	// fair share of the remaining bytes, always leaving at least one child
	// per remaining region.
	remaining := p.rootEndOff - p.childrenStart
	i := 0
	p.regions = make([]Region, 0, numRegions)
	for r := 0; r < numRegions; r++ {
		regionsAfter := numRegions - r - 1
		target := remaining / int64(numRegions-r)
		first := i
		var taken int64
		for i < len(children) {
			if i > first && (taken >= target || len(children)-i <= regionsAfter) {
				break
			}
			taken += children[i].size
			i++
		}
		p.regions = append(p.regions, Region{
			Start:       children[first].start,
			End:         children[i-1].start + children[i-1].size,
			FirstChild:  first,
			NumChildren: i - first,
		})
		remaining -= taken
	}
	return p, nil
}

// Prefix returns the shared document prefix: the root element's Open event
// and its direct-text event when present. Every consumer of a region plan
// replays this prefix before its region's events; the root's Close event is
// not part of any region and is emitted by whoever stitches regions back
// together.
func (p *RegionPlan) Prefix() []xmlstream.Event {
	return append([]xmlstream.Event(nil), p.prefix...)
}

// RootName returns the tag name of the document root.
func (p *RegionPlan) RootName() string { return p.rootName }

// RootDescendantTags returns the descendant-tag set of the root element —
// the MetaProvider answer a whole-document decoder would give right after
// the root opens.
func (p *RegionPlan) RootDescendantTags() DescendantTags {
	return DescendantTags{ids: p.rootDescIDs, dict: p.dict}
}

// RootSkipDistance returns the number of encoded bytes a SkipToClose at the
// root (depth 1) jumps over when issued immediately after the prefix: the
// whole children extent. A consumer that denies the root subtree skips this
// many bytes on the serial path, and the same amount must be charged on the
// parallel path for the per-subject accounting to match.
func (p *RegionPlan) RootSkipDistance() int64 { return p.rootEndOff - p.childrenStart }

// Regions returns the planned regions in document order.
func (p *RegionPlan) Regions() []Region { return append([]Region(nil), p.regions...) }

// RegionCount returns the number of planned regions.
func (p *RegionPlan) RegionCount() int { return len(p.regions) }

// NewRegionDecoder returns a Decoder positioned at the start of region r of
// the plan, as if a whole-document decoder had consumed the prefix and all
// earlier regions without reading them: the open stack already holds the
// root element, HasDescendantTag answers for the root (so replaying
// the prefix through an evaluator sees the same metadata as the serial
// scan), and the decoder reports end-of-document — with the root still open
// and no root Close emitted — when the region's extent is exhausted.
//
// src must present the same encoded document the plan was built from; each
// worker passes its own reader so decoders never share mutable state.
func NewRegionDecoder(src ByteSource, p *RegionPlan, r int) (*Decoder, error) {
	if r < 0 || r >= len(p.regions) {
		return nil, fmt.Errorf("skipindex: region %d out of range (plan has %d)", r, len(p.regions))
	}
	d := &Decoder{
		src:        src,
		dict:       p.dict,
		off:        p.regions[r].Start,
		bytesTotal: p.bytesTotal,
		limit:      p.regions[r].End,
		lastOpened: 1,
	}
	d.pushAllIDs()
	d.stack = append(d.stack, openElement{descHi: len(d.ids), size: p.bodySize, endOff: p.bytesTotal})
	lo := len(d.ids)
	d.ids = append(d.ids, p.rootDescIDs...)
	d.stack = append(d.stack, openElement{name: p.rootName, descLo: lo, descHi: len(d.ids), size: p.rootSize, endOff: p.rootEndOff})
	return d, nil
}
