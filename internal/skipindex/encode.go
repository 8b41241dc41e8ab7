package skipindex

import (
	"errors"
	"fmt"
	"slices"

	"xmlac/internal/xmlstream"
)

// Format overview (TCSBR, the full Skip index of section 4.1):
//
//	header:
//	  magic "XSI1"
//	  uvarint  tag-dictionary size Nt
//	  Nt × (uvarint length + tag bytes)      -- sorted, tag id = position
//	  uvarint  body length in bytes
//	body: recursive element encoding, every element starting byte-aligned:
//	  bit      isLeaf (element has no element children)
//	  bits     tag index into the parent's descendant-tag list
//	           (ceil(log2(|DescTag_parent|)) bits; the document root uses
//	           the full dictionary as parent context)
//	  bits     SubtreeSize_e: the byte length of the complete encoding of e
//	           (ceil(log2(SubtreeSize_parent)) bits)
//	  bits     TagArray_e: |DescTag_parent| bits, one per parent descendant
//	           tag, set when that tag occurs in e's subtree (internal
//	           elements only; leaves carry no TagArray)
//	  padding to the next byte frontier
//	  uvarint  text length + text bytes (concatenated direct text of e)
//	  children encodings, in document order
//
// Closing tags are not stored: SubtreeSize delimits each element, exactly as
// the paper notes ("storing the SubtreeSize for each element makes closing
// tags unnecessary").

// magic identifies the encoding.
var magic = []byte("XSI1")

// ErrBadFormat wraps every error about the encoded bytes themselves: a
// structure that decodes wrong or a document that ends early. A failure of
// the ByteSource underneath (an integrity check, a canceled context, a
// changed remote document) is not a format error and is returned as itself.
var ErrBadFormat = errors.New("skipindex: malformed encoded document")

// Encoded is an encoded document plus the information the publisher-side
// tooling needs (dictionary, structural statistics).
type Encoded struct {
	// Data is the full encoded document (header + body).
	Data []byte
	// Dictionary is the sorted tag dictionary.
	Dictionary []string
	// BodyOffset is the offset of the body (root element) in Data.
	BodyOffset int
	// StructureBits is the number of metadata bits (leaf flags, tags,
	// subtree sizes, tag arrays) before byte alignment; used by the Figure 8
	// accounting.
	StructureBits int
	// TextBytes is the number of text bytes stored in the body.
	TextBytes int
	// TextSpans maps each element of the source tree to the byte range of
	// its direct text inside Data (EncodeIndexed only; nil for Encode). A
	// same-length replacement of an element's concatenated direct text can
	// be spliced into Data at its span without re-encoding: no subtree size,
	// field width, tag array or dictionary entry depends on text content —
	// only on its length. That splice is the in-place update fast path.
	TextSpans map[*xmlstream.Node]TextSpan
}

// TextSpan is the byte range [Off, Off+Len) of an element's direct text
// inside the encoded document.
type TextSpan struct {
	Off int
	Len int
}

// encNode is the per-element working state of the encoder. The elements of
// a document sit in one slice in document order, so an element's subtree is
// the index range [i, end) and its first child, if any, is at i+1. The
// entries hold no pointers: the encoder walks the document tree alongside.
type encNode struct {
	// size is the encoded byte length of the subtree (meta+text+children),
	// recomputed at each fixpoint iteration.
	size uint64
	// textLen is the length of the concatenated direct text.
	textLen int
	end     int32 // index past the element's subtree
	tag     int32 // tag id
	// desc and ndesc locate the element's descendant tags (including its
	// own), sorted, in Encoder.desc.
	desc, ndesc int32
}

// An Encoder builds TCSBR encodings. It keeps its working state (one entry
// per element and, in one arena, the elements' descendant-tag lists) for the
// next document, so a publisher re-encoding an edited document does not
// allocate it again. The zero value is ready to use; an Encoder is not safe
// for concurrent use.
type Encoder struct {
	nodes   []encNode
	desc    []int32
	scratch []int32
	tagID   map[string]int32
	w       bitWriter

	// The encoding being emitted.
	enc  *Encoded
	data []byte
}

// Encode builds the TCSBR encoding of a document tree.
func Encode(root *xmlstream.Node) (*Encoded, error) {
	return new(Encoder).encode(root, false, nil)
}

// EncodeIndexed is Encode plus the per-element text span index (TextSpans)
// the in-place update fast path needs. The index costs one map entry per
// element, so the plain Encode skips it. A non-nil spans is cleared and
// filled as the index, so re-indexing an edited document reuses the map.
func (e *Encoder) EncodeIndexed(root *xmlstream.Node, spans map[*xmlstream.Node]TextSpan) (*Encoded, error) {
	return e.encode(root, true, spans)
}

func (e *Encoder) encode(root *xmlstream.Node, indexed bool, spans map[*xmlstream.Node]TextSpan) (*Encoded, error) {
	if root == nil || root.Kind != xmlstream.ElementNode {
		return nil, fmt.Errorf("%w: document root must be an element", ErrBadFormat)
	}
	// Tag dictionary.
	dict := root.DistinctTags()
	if e.tagID == nil {
		e.tagID = make(map[string]int32, len(dict))
	}
	clear(e.tagID)
	for i, t := range dict {
		e.tagID[t] = int32(i)
	}
	e.nodes = slices.Grow(e.nodes[:0], root.CountElements())
	e.desc = e.desc[:0]
	e.build(root)
	all := make([]int32, len(dict))
	for i := range all {
		all[i] = int32(i)
	}

	// Fixpoint on subtree sizes: the width of an element's SubtreeSize field
	// is ceil(log2(SubtreeSize_parent)) bits, so every size depends on its
	// parent's size which in turn depends on the children's encoded lengths.
	// Starting from a generous upper bound, sizes are recomputed bottom-up
	// (each pass using the previous pass's parent sizes for the field
	// widths) until they stop changing; widths and sizes are monotonically
	// non-increasing, so the iteration converges.
	for i := range e.nodes {
		e.nodes[i].size = 1 << 40
	}
	const maxIterations = 64
	prevTotal := uint64(0)
	for i := 0; i < maxIterations; i++ {
		total := e.recompute(0, len(all), e.nodes[0].size)
		if total == prevTotal {
			break
		}
		prevTotal = total
	}

	// Emit. Header and body sizes are known from the fixpoint, so data is
	// allocated once.
	rootSize := e.nodes[0].size
	size := len(magic) + uvarintLen(uint64(len(dict))) + uvarintLen(rootSize) + int(rootSize)
	for _, t := range dict {
		size += uvarintLen(uint64(len(t))) + len(t)
	}
	e.data = make([]byte, 0, size)
	e.data = append(e.data, magic...)
	e.data = putUvarint(e.data, uint64(len(dict)))
	for _, t := range dict {
		e.data = putUvarint(e.data, uint64(len(t)))
		e.data = append(e.data, t...)
	}
	e.data = putUvarint(e.data, rootSize)

	enc := &Encoded{Dictionary: dict, BodyOffset: len(e.data)}
	if indexed {
		if spans == nil {
			spans = make(map[*xmlstream.Node]TextSpan, len(e.nodes))
		}
		clear(spans)
		enc.TextSpans = spans
	}
	e.enc = enc
	err := e.emit(0, root, all, rootSize)
	enc.Data = e.data
	e.enc, e.data = nil, nil
	if err != nil {
		return nil, err
	}
	return enc, nil
}

// build appends the subtree of n to e.nodes in document order and records
// each element's descendant tags: its own tag plus its children's, sorted
// and deduplicated.
func (e *Encoder) build(n *xmlstream.Node) {
	i := len(e.nodes)
	e.nodes = append(e.nodes, encNode{tag: e.tagID[n.Name]})
	textLen := 0
	for _, c := range n.Children {
		switch c.Kind {
		case xmlstream.TextNode:
			textLen += len(c.Value)
		case xmlstream.ElementNode:
			e.build(c)
		}
	}
	tags := append(e.scratch[:0], e.nodes[i].tag)
	for j := i + 1; j < len(e.nodes); j = int(e.nodes[j].end) {
		c := &e.nodes[j]
		tags = append(tags, e.desc[c.desc:c.desc+c.ndesc]...)
	}
	slices.Sort(tags)
	tags = slices.Compact(tags)
	e.scratch = tags
	en := &e.nodes[i]
	en.end = int32(len(e.nodes))
	en.textLen = textLen
	en.desc, en.ndesc = int32(len(e.desc)), int32(len(tags))
	e.desc = append(e.desc, tags...)
}

// recompute sets the sizes of the subtree at i from the parent's previous
// size and descendant-tag count, and returns the element's size.
func (e *Encoder) recompute(i, parentDesc int, parentPrevSize uint64) uint64 {
	en := &e.nodes[i]
	metaBits := 1 + int(bitsForCount(parentDesc)) + int(bitsFor(parentPrevSize))
	if int(en.end) > i+1 {
		metaBits += parentDesc
	}
	size := uint64((metaBits + 7) / 8)
	size += uint64(uvarintLen(uint64(en.textLen))) + uint64(en.textLen)
	for j := i + 1; j < int(en.end); j = int(e.nodes[j].end) {
		size += e.recompute(j, int(en.ndesc), en.size)
	}
	en.size = size
	return size
}

// emit appends the encoding of the subtree at i, element n, to e.data.
func (e *Encoder) emit(i int, n *xmlstream.Node, parentDesc []int32, parentSize uint64) error {
	en := &e.nodes[i]
	isLeaf := int(en.end) == i+1
	w := &e.w
	w.buf, w.cur, w.nbit = w.buf[:0], 0, 0
	w.writeBool(isLeaf)
	idx, found := slices.BinarySearch(parentDesc, en.tag)
	if !found {
		return fmt.Errorf("%w: tag %q missing from parent context", ErrBadFormat, n.Name)
	}
	w.writeBits(uint64(idx), bitsForCount(len(parentDesc)))
	if en.size > parentSize {
		return fmt.Errorf("%w: subtree size %d exceeds parent size %d", ErrBadFormat, en.size, parentSize)
	}
	w.writeBits(en.size, bitsFor(parentSize))
	desc := e.desc[en.desc : en.desc+en.ndesc]
	if !isLeaf {
		// Both tag lists are sorted and the element's is a subset of its
		// parent's: one merge pass sets the TagArray bits.
		own := desc
		for _, id := range parentDesc {
			for len(own) > 0 && own[0] < id {
				own = own[1:]
			}
			w.writeBool(len(own) > 0 && own[0] == id)
		}
	}
	e.enc.StructureBits += w.bitLen()
	start := len(e.data)
	e.data = append(e.data, w.bytes()...)
	e.data = putUvarint(e.data, uint64(en.textLen))
	if e.enc.TextSpans != nil {
		e.enc.TextSpans[n] = TextSpan{Off: len(e.data), Len: en.textLen}
	}
	for _, c := range n.Children {
		if c.Kind == xmlstream.TextNode {
			e.data = append(e.data, c.Value...)
		}
	}
	e.enc.TextBytes += en.textLen
	j := i + 1
	for _, c := range n.Children {
		if c.Kind != xmlstream.ElementNode {
			continue
		}
		if err := e.emit(j, c, desc, en.size); err != nil {
			return err
		}
		j = int(e.nodes[j].end)
	}
	if got := uint64(len(e.data) - start); got != en.size {
		return fmt.Errorf("%w: size mismatch for <%s>: computed %d, emitted %d", ErrBadFormat, n.Name, en.size, got)
	}
	return nil
}
