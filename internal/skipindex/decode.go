package skipindex

import (
	"errors"
	"fmt"
	"io"

	"xmlac/internal/trace"
	"xmlac/internal/xmlstream"
)

// ByteSource abstracts random access to the encoded document. The plain
// in-memory implementation is bytesSource; internal/secure provides an
// implementation that fetches, decrypts and integrity-checks ciphertext on
// demand while counting the bytes that enter the SOE.
type ByteSource interface {
	io.ReaderAt
	// Size returns the total size of the encoded document.
	Size() int64
}

// bytesSource adapts a byte slice.
type bytesSource []byte

func (b bytesSource) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(b)) {
		return 0, io.EOF
	}
	n := copy(p, b[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (b bytesSource) Size() int64 { return int64(len(b)) }

// NewBytesSource wraps an in-memory encoded document.
func NewBytesSource(data []byte) ByteSource { return bytesSource(data) }

// openElement is the decoder's per-open-element state (the paper's
// SkipStack): everything needed to decode the children of the element and to
// know where its encoding ends.
type openElement struct {
	name     string
	descIDs  []int // descendant tag ids (parent context for the children)
	size     uint64
	endOff   int64
	depth    int
	descTags map[string]struct{}
}

// Decoder streams a Skip-index encoded document as SAX-like events. It
// implements xmlstream.EventReader, xmlstream.Skipper (constant-time subtree
// skips driven by SubtreeSize) and the evaluator's MetaProvider interface
// (descendant-tag sets driving rule filtering).
type Decoder struct {
	src  ByteSource
	dict []string

	off     int64
	stack   []*openElement
	pending []xmlstream.Event

	// last opened element metadata, exposed through CurrentDescendantTags.
	lastOpened *openElement

	// bytesRead counts the bytes actually fetched from the source (skipped
	// bytes excluded); the SOE cost model charges communication and
	// decryption on this amount.
	bytesRead   int64
	bytesTotal  int64
	skippedByte int64

	// trace, when non-nil, charges decode and skip time to the evaluation's
	// phase timers.
	trace *trace.Context

	// limit, when positive, is the end offset of a region scan: the decoder
	// reports end-of-document as soon as the position reaches it with only
	// the root element still open, instead of decoding the root's remaining
	// children. Zero means no limit (whole-document scan). Region decoders
	// are built by NewRegionDecoder.
	limit int64

	err error
}

// SetTrace attaches (or detaches, with nil) the tracing context that decode
// and skip time is charged to. The header parse in NewDecoder runs before
// any context can be attached and stays unattributed.
func (d *Decoder) SetTrace(t *trace.Context) { d.trace = t }

// NewDecoder parses the header and returns a Decoder positioned on the root
// element.
func NewDecoder(src ByteSource) (*Decoder, error) {
	d := &Decoder{src: src, bytesTotal: src.Size()}
	header := make([]byte, 4)
	if err := d.readFull(header, 0); err != nil {
		return nil, err
	}
	for i := range magic {
		if header[i] != magic[i] {
			return nil, fmt.Errorf("%w: bad magic", ErrBadFormat)
		}
	}
	off := int64(4)
	nt, err := d.readUvarint(&off)
	if err != nil {
		return nil, err
	}
	if nt == 0 || nt > 1<<20 {
		return nil, fmt.Errorf("%w: implausible dictionary size %d", ErrBadFormat, nt)
	}
	d.dict = make([]string, nt)
	for i := range d.dict {
		l, err := d.readUvarint(&off)
		if err != nil {
			return nil, err
		}
		if l > 4096 {
			return nil, fmt.Errorf("%w: implausible tag length %d", ErrBadFormat, l)
		}
		buf := make([]byte, l)
		if err := d.readFull(buf, off); err != nil {
			return nil, err
		}
		off += int64(l)
		d.dict[i] = string(buf)
	}
	bodyLen, err := d.readUvarint(&off)
	if err != nil {
		return nil, err
	}
	if int64(bodyLen) != d.bytesTotal-off {
		return nil, fmt.Errorf("%w: body length %d does not match source size %d", ErrBadFormat, bodyLen, d.bytesTotal-off)
	}
	d.off = off
	// Virtual super-root context: full dictionary, body length.
	d.stack = []*openElement{{
		name:    "",
		descIDs: allIDs(len(d.dict)),
		size:    bodyLen,
		endOff:  d.bytesTotal,
		depth:   0,
	}}
	return d, nil
}

// Dictionary returns the tag dictionary of the document.
func (d *Decoder) Dictionary() []string { return append([]string(nil), d.dict...) }

// BytesRead returns the number of encoded bytes fetched from the source so
// far (header included, skipped ranges excluded).
func (d *Decoder) BytesRead() int64 { return d.bytesRead }

// BytesSkipped returns the number of encoded bytes jumped over by
// SkipToClose calls.
func (d *Decoder) BytesSkipped() int64 { return d.skippedByte }

// CurrentDescendantTags implements the evaluator's MetaProvider: the tag set
// of the subtree rooted at the most recently opened element.
func (d *Decoder) CurrentDescendantTags() (map[string]struct{}, bool) {
	if d.lastOpened == nil {
		return nil, false
	}
	return d.lastOpened.descTags, true
}

// Next implements xmlstream.EventReader.
func (d *Decoder) Next() (xmlstream.Event, error) {
	if d.err != nil {
		return xmlstream.Event{}, d.err
	}
	d.trace.Begin(trace.PhaseDecode)
	defer d.trace.End()
	for {
		if len(d.pending) > 0 {
			ev := d.pending[0]
			d.pending = d.pending[1:]
			return ev, nil
		}
		if err := d.advance(); err != nil {
			d.err = err
			return xmlstream.Event{}, err
		}
	}
}

// advance decodes the next construct and queues its events.
func (d *Decoder) advance() error {
	// A region decoder ends where its region does: once the position reaches
	// the limit with only the root open, the remaining children belong to
	// later regions. Checked before the close loop so the root element is
	// never popped — its Close event is owned by the caller that stitched
	// the regions together, not by any single region.
	if d.limit > 0 && len(d.stack) == 2 && d.off >= d.limit {
		return xmlstream.ErrEndOfDocument
	}
	// Close every element whose encoding is exhausted.
	for len(d.stack) > 1 {
		top := d.stack[len(d.stack)-1]
		if d.off < top.endOff {
			break
		}
		if d.off > top.endOff {
			return fmt.Errorf("%w: element <%s> overran its subtree size", ErrBadFormat, top.name)
		}
		d.stack = d.stack[:len(d.stack)-1]
		d.pending = append(d.pending, xmlstream.Event{Kind: xmlstream.Close, Name: top.name, Depth: top.depth})
		return nil
	}
	if len(d.stack) == 1 {
		if d.off >= d.bytesTotal {
			return xmlstream.ErrEndOfDocument
		}
	}
	return d.decodeElement()
}

// decodeElement decodes one element header (and its direct text) and queues
// the Open and Text events.
func (d *Decoder) decodeElement() error {
	parent := d.stack[len(d.stack)-1]
	start := d.off

	metaWidthBits := 1 + int(bitsForCount(len(parent.descIDs))) + int(bitsFor(parent.size))
	// The TagArray is only present for internal elements, but its presence
	// is known from the first bit; read the maximum meta size then re-parse.
	maxMetaBytes := (metaWidthBits + len(parent.descIDs) + 7) / 8
	buf := make([]byte, maxMetaBytes)
	n, err := d.src.ReadAt(buf, start)
	if n < len(buf) && err != nil && err != io.EOF {
		return sourceErr("element meta", start, err)
	}
	buf = buf[:n]
	r := newBitReader(buf)
	isLeaf, ok := r.readBool()
	if !ok {
		return fmt.Errorf("%w: truncated element meta", ErrBadFormat)
	}
	tagIdx, ok := r.readBits(bitsForCount(len(parent.descIDs)))
	if !ok {
		return fmt.Errorf("%w: truncated tag index", ErrBadFormat)
	}
	if int(tagIdx) >= len(parent.descIDs) {
		return fmt.Errorf("%w: tag index %d out of range", ErrBadFormat, tagIdx)
	}
	tagID := parent.descIDs[tagIdx]
	size, ok := r.readBits(bitsFor(parent.size))
	if !ok {
		return fmt.Errorf("%w: truncated subtree size", ErrBadFormat)
	}
	if size > parent.size {
		return fmt.Errorf("%w: subtree size %d exceeds parent size %d", ErrBadFormat, size, parent.size)
	}
	var descIDs []int
	if !isLeaf {
		for i := range parent.descIDs {
			present, ok := r.readBool()
			if !ok {
				return fmt.Errorf("%w: truncated tag array", ErrBadFormat)
			}
			if present {
				descIDs = append(descIDs, parent.descIDs[i])
			}
		}
	} else {
		descIDs = []int{tagID}
	}
	r.align()
	metaBytes := r.bytesConsumed()
	d.bytesRead += int64(metaBytes)
	off := start + int64(metaBytes)

	textLen, err := d.readUvarint(&off)
	if err != nil {
		return err
	}
	if int64(textLen) > d.bytesTotal-off {
		return fmt.Errorf("%w: text length %d overruns document", ErrBadFormat, textLen)
	}
	var text string
	if textLen > 0 {
		tb := make([]byte, textLen)
		if err := d.readFull(tb, off); err != nil {
			return err
		}
		off += int64(textLen)
		text = string(tb)
	}

	depth := len(d.stack) // virtual super-root occupies index 0
	el := &openElement{
		name:    d.dict[tagID],
		descIDs: descIDs,
		size:    size,
		endOff:  start + int64(size),
		depth:   depth,
	}
	el.descTags = make(map[string]struct{}, len(descIDs))
	for _, id := range descIDs {
		el.descTags[d.dict[id]] = struct{}{}
	}
	if el.endOff > d.bytesTotal {
		return fmt.Errorf("%w: element <%s> extends past end of document", ErrBadFormat, el.name)
	}
	d.stack = append(d.stack, el)
	d.lastOpened = el
	d.off = off

	d.pending = append(d.pending, xmlstream.Event{Kind: xmlstream.Open, Name: el.name, Depth: depth})
	if text != "" {
		d.pending = append(d.pending, xmlstream.Event{Kind: xmlstream.Text, Value: text, Depth: depth})
	}
	return nil
}

// SkipDistance reports how many encoded bytes a SkipToClose at the given
// depth would jump over, without performing the jump. A multicast scan
// (core.MultiEvaluator) uses it to charge each subject the bytes its solo
// evaluation would have skipped even when other subjects still need the
// subtree, so per-subject skip accounting matches the solo path exactly.
func (d *Decoder) SkipDistance(depth int) (int64, error) {
	for i := len(d.stack) - 1; i >= 1; i-- {
		if d.stack[i].depth == depth {
			if skipped := d.stack[i].endOff - d.off; skipped > 0 {
				return skipped, nil
			}
			return 0, nil
		}
	}
	return 0, fmt.Errorf("%w: no open element at depth %d", ErrBadFormat, depth)
}

// SkipToClose implements xmlstream.Skipper: it jumps to the end of the
// encoding of the element open at the given depth without reading the bytes
// in between. The Close event of that element is produced by the next call
// to Next.
func (d *Decoder) SkipToClose(depth int) (int64, error) {
	d.trace.Begin(trace.PhaseSkip)
	defer d.trace.End()
	// Find the element at that depth in the open stack.
	var target *openElement
	idx := -1
	for i := len(d.stack) - 1; i >= 1; i-- {
		if d.stack[i].depth == depth {
			target = d.stack[i]
			idx = i
			break
		}
	}
	if target == nil {
		return 0, fmt.Errorf("%w: no open element at depth %d", ErrBadFormat, depth)
	}
	skipped := target.endOff - d.off
	if skipped < 0 {
		skipped = 0
	}
	d.off = target.endOff
	d.skippedByte += skipped
	// Events already decoded but not yet delivered all belong to the skipped
	// subtree: drop them. Elements below the target that the consumer has
	// already opened still need their Close events, in innermost-first
	// order, before the target's own Close.
	d.pending = d.pending[:0]
	for i := len(d.stack) - 1; i > idx; i-- {
		d.pending = append(d.pending, xmlstream.Event{Kind: xmlstream.Close, Name: d.stack[i].name, Depth: d.stack[i].depth})
	}
	d.stack = d.stack[:idx+1]
	return skipped, nil
}

// readFull reads len(p) bytes at offset off, counting them as fetched.
func (d *Decoder) readFull(p []byte, off int64) error {
	n, err := d.src.ReadAt(p, off)
	if n == len(p) {
		d.bytesRead += int64(n)
		return nil
	}
	if err == nil {
		err = io.ErrUnexpectedEOF
	}
	return sourceErr(fmt.Sprintf("%d bytes", len(p)), off, err)
}

// sourceErr reports a failed read of what at off. Running out of bytes
// (io.EOF, io.ErrUnexpectedEOF) means the encoding ends early: a format
// error. Any other failure is the source's own — an integrity check, a
// canceled context, a document changed on a remote server — and stays
// itself, so callers can tell an attack from a race and a remote source's
// re-sync retry still recognizes its error through errors.Is.
func sourceErr(what string, off int64, err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w: %s at offset %d: document ends early", ErrBadFormat, what, off)
	}
	return fmt.Errorf("skipindex: reading %s at offset %d: %w", what, off, err)
}

// readUvarint reads a varint at *off, advancing it and counting the bytes.
func (d *Decoder) readUvarint(off *int64) (uint64, error) {
	buf := make([]byte, 10)
	n, err := d.src.ReadAt(buf, *off)
	if n < len(buf) && err != nil && err != io.EOF {
		return 0, sourceErr("varint", *off, err)
	}
	v, consumed := uvarint(buf[:n])
	if consumed == 0 {
		return 0, fmt.Errorf("%w: bad varint at offset %d", ErrBadFormat, *off)
	}
	*off += int64(consumed)
	d.bytesRead += int64(consumed)
	return v, nil
}

// Decode fully decodes an encoded document back into a tree (publisher-side
// utility and test helper; the SOE never materializes the document).
func Decode(data []byte) (*xmlstream.Node, error) {
	dec, err := NewDecoder(NewBytesSource(data))
	if err != nil {
		return nil, err
	}
	builder := xmlstream.NewTreeBuilder()
	for {
		ev, err := dec.Next()
		if errors.Is(err, xmlstream.ErrEndOfDocument) {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := builder.WriteEvent(ev); err != nil {
			return nil, err
		}
	}
	return builder.Root()
}
