package skipindex

import (
	"errors"
	"fmt"
	"sort"

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

// encNode is the per-element working state of the encoder.
type encNode struct {
	node     *xmlstream.Node
	children []*encNode
	descTags []int // sorted tag ids present in the subtree (including self)
	text     string
	isLeaf   bool
	// size is the encoded byte length of the subtree (meta+text+children),
	// recomputed at each fixpoint iteration.
	size uint64
	// metaBits of the last computation (diagnostics / Figure 8).
	metaBits int
}

// Encode builds the TCSBR encoding of a document tree.
func Encode(root *xmlstream.Node) (*Encoded, error) {
	return encode(root, false)
}

// EncodeIndexed is Encode plus the per-element text span index (TextSpans)
// the in-place update fast path needs. The index costs one map entry per
// element, so the plain Encode skips it.
func EncodeIndexed(root *xmlstream.Node) (*Encoded, error) {
	return encode(root, true)
}

func encode(root *xmlstream.Node, indexed bool) (*Encoded, error) {
	if root == nil || root.Kind != xmlstream.ElementNode {
		return nil, fmt.Errorf("%w: document root must be an element", ErrBadFormat)
	}
	// Tag dictionary.
	dict := root.DistinctTags()
	tagID := make(map[string]int, len(dict))
	for i, t := range dict {
		tagID[t] = i
	}

	// Build the encoder tree with descendant-tag sets.
	var build func(n *xmlstream.Node) *encNode
	build = func(n *xmlstream.Node) *encNode {
		en := &encNode{node: n, isLeaf: true}
		tagSet := map[int]struct{}{tagID[n.Name]: {}}
		text := ""
		for _, c := range n.Children {
			switch c.Kind {
			case xmlstream.TextNode:
				text += c.Value
			case xmlstream.ElementNode:
				en.isLeaf = false
				ce := build(c)
				en.children = append(en.children, ce)
				for _, id := range ce.descTags {
					tagSet[id] = struct{}{}
				}
			}
		}
		en.text = text
		en.descTags = make([]int, 0, len(tagSet))
		for id := range tagSet {
			en.descTags = append(en.descTags, id)
		}
		sort.Ints(en.descTags)
		return en
	}
	eroot := build(root)

	// Fixpoint on subtree sizes: the width of an element's SubtreeSize field
	// is ceil(log2(SubtreeSize_parent)) bits, so every size depends on its
	// parent's size which in turn depends on the children's encoded lengths.
	// Starting from a generous upper bound, sizes are recomputed bottom-up
	// (each pass using the previous pass's parent sizes for the field
	// widths) until they stop changing; widths and sizes are monotonically
	// non-increasing, so the iteration converges.
	var seed func(en *encNode)
	seed = func(en *encNode) {
		en.size = 1 << 40
		for _, c := range en.children {
			seed(c)
		}
	}
	seed(eroot)
	var recompute func(en *encNode, parentDesc []int, parentPrevSize uint64) uint64
	recompute = func(en *encNode, parentDesc []int, parentPrevSize uint64) uint64 {
		metaBits := 1 + int(bitsForCount(len(parentDesc))) + int(bitsFor(parentPrevSize))
		if !en.isLeaf {
			metaBits += len(parentDesc)
		}
		en.metaBits = metaBits
		size := uint64((metaBits + 7) / 8)
		size += uint64(uvarintLen(uint64(len(en.text)))) + uint64(len(en.text))
		prevOwn := en.size
		for _, c := range en.children {
			size += recompute(c, en.descTags, prevOwn)
		}
		en.size = size
		return size
	}
	const maxIterations = 64
	prevTotal := uint64(0)
	for i := 0; i < maxIterations; i++ {
		total := recompute(eroot, allIDs(len(dict)), eroot.size)
		if total == prevTotal {
			break
		}
		prevTotal = total
	}

	// Emit.
	var data []byte
	data = append(data, magic...)
	data = putUvarint(data, uint64(len(dict)))
	for _, t := range dict {
		data = putUvarint(data, uint64(len(t)))
		data = append(data, t...)
	}
	data = putUvarint(data, eroot.size)
	bodyOffset := len(data)

	enc := &Encoded{Dictionary: dict, BodyOffset: bodyOffset}
	if indexed {
		enc.TextSpans = make(map[*xmlstream.Node]TextSpan)
	}
	var emit func(en *encNode, parentDesc []int, parentSize uint64) error
	emit = func(en *encNode, parentDesc []int, parentSize uint64) error {
		w := &bitWriter{}
		w.writeBool(en.isLeaf)
		idx := indexOf(parentDesc, tagID[en.node.Name])
		if idx < 0 {
			return fmt.Errorf("%w: tag %q missing from parent context", ErrBadFormat, en.node.Name)
		}
		w.writeBits(uint64(idx), bitsForCount(len(parentDesc)))
		if en.size > parentSize {
			return fmt.Errorf("%w: subtree size %d exceeds parent size %d", ErrBadFormat, en.size, parentSize)
		}
		w.writeBits(en.size, bitsFor(parentSize))
		if !en.isLeaf {
			own := map[int]struct{}{}
			for _, id := range en.descTags {
				own[id] = struct{}{}
			}
			for _, id := range parentDesc {
				_, present := own[id]
				w.writeBool(present)
			}
		}
		enc.StructureBits += w.bitLen()
		meta := w.bytes()
		start := len(data)
		data = append(data, meta...)
		data = putUvarint(data, uint64(len(en.text)))
		if indexed {
			enc.TextSpans[en.node] = TextSpan{Off: len(data), Len: len(en.text)}
		}
		data = append(data, en.text...)
		enc.TextBytes += len(en.text)
		for _, c := range en.children {
			if err := emit(c, en.descTags, en.size); err != nil {
				return err
			}
		}
		if got := uint64(len(data) - start); got != en.size {
			return fmt.Errorf("%w: size mismatch for <%s>: computed %d, emitted %d", ErrBadFormat, en.node.Name, en.size, got)
		}
		return nil
	}
	if err := emit(eroot, allIDs(len(dict)), eroot.size); err != nil {
		return nil, err
	}
	enc.Data = data
	return enc, nil
}

// allIDs returns [0..n).
func allIDs(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func indexOf(ids []int, id int) int {
	for i, v := range ids {
		if v == id {
			return i
		}
	}
	return -1
}
