package skipindex

import (
	"errors"
	"fmt"
	"io"
	"sort"

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
// know where its encoding ends. An element's depth is its index in the
// decoder's stack.
type openElement struct {
	name string
	// descLo and descHi bound the element's descendant tag ids in the
	// decoder's id arena (ids[descLo:descHi], ascending): the parent context
	// for the children's tag indexes and tag arrays.
	descLo, descHi int
	size           uint64
	endOff         int64
}

// Decoder streams a Skip-index encoded document as SAX-like events. It
// implements xmlstream.EventReader, xmlstream.Skipper (constant-time subtree
// skips driven by SubtreeSize) and the evaluator's MetaProvider interface
// (descendant-tag membership driving rule filtering).
//
// A decoder's state is bounded by the document depth: a value stack of open
// elements, one LIFO arena holding their descendant tag ids, a short queue
// of decoded events and one scratch buffer for metadata, varint and text
// reads. Reset re-arms it over another source and keeps all of them, so a
// pooled decoder allocates only the text strings it delivers.
type Decoder struct {
	src  ByteSource
	dict []string // sorted; a tag's id is its position

	off   int64
	stack []openElement // stack[d] is open at depth d; stack[0] is the virtual super-root
	ids   []int         // descendant tag id arena, cut back as elements pop

	// pending[head:] are the decoded events not yet delivered.
	pending []xmlstream.Event
	head    int

	// lastOpened is the stack index of the most recently opened element
	// (0: none), the element HasDescendantTag answers for.
	lastOpened int

	scratch []byte

	// bytesRead counts the bytes actually fetched from the source (skipped
	// bytes excluded); the SOE cost model charges communication and
	// decryption on this amount.
	bytesRead   int64
	bytesTotal  int64
	skippedByte int64

	// trace, when non-nil, charges decode and skip time to the evaluation's
	// phase timers.
	trace *trace.Context

	err error
}

// SetTrace attaches (or detaches, with nil) the tracing context that decode
// and skip time is charged to. The header parse in Reset runs before any
// context can be attached and stays unattributed.
func (d *Decoder) SetTrace(t *trace.Context) { d.trace = t }

// NewDecoder parses the header and returns a Decoder positioned on the root
// element.
func NewDecoder(src ByteSource) (*Decoder, error) {
	d := &Decoder{}
	if err := d.Reset(src); err != nil {
		return nil, err
	}
	return d, nil
}

// Reset re-arms the decoder over a new source, as NewDecoder would, reusing
// the stacks and buffers of the previous run. A dictionary equal to the
// previous one is kept as it is. After a failed Reset the decoder only
// reports that error until the next Reset.
func (d *Decoder) Reset(src ByteSource) error {
	*d = Decoder{
		src:        src,
		bytesTotal: src.Size(),
		dict:       d.dict,
		stack:      d.stack[:0],
		ids:        d.ids[:0],
		pending:    d.pending[:0],
		scratch:    d.scratch,
	}
	d.err = d.readHeader()
	return d.err
}

// readHeader parses the magic, the tag dictionary and the body length, and
// pushes the virtual super-root context: the full dictionary, the body
// length.
func (d *Decoder) readHeader() error {
	header := d.buf(len(magic))
	if err := d.readFull(header, 0); err != nil {
		return err
	}
	if string(header) != string(magic) {
		return fmt.Errorf("%w: bad magic", ErrBadFormat)
	}
	off := int64(len(magic))
	nt, err := d.readUvarint(&off)
	if err != nil {
		return err
	}
	if nt == 0 || nt > 1<<20 {
		return fmt.Errorf("%w: implausible dictionary size %d", ErrBadFormat, nt)
	}
	// The previous run's dictionary stays shared until the first tag that
	// differs; from there on the tags go into a fresh slice.
	dict := d.dict
	fresh := len(dict) != int(nt)
	if fresh {
		dict = make([]string, nt)
	}
	for i := range dict {
		l, err := d.readUvarint(&off)
		if err != nil {
			return err
		}
		if l > 4096 {
			return fmt.Errorf("%w: implausible tag length %d", ErrBadFormat, l)
		}
		tag := d.buf(int(l))
		if err := d.readFull(tag, off); err != nil {
			return err
		}
		off += int64(l)
		if !fresh && dict[i] == string(tag) {
			continue
		}
		if !fresh {
			dict = append(make([]string, 0, nt), dict[:i]...)
			dict = dict[:nt]
			fresh = true
		}
		dict[i] = string(tag)
		if i > 0 && dict[i-1] >= dict[i] {
			return fmt.Errorf("%w: tag dictionary not sorted at entry %d", ErrBadFormat, i)
		}
	}
	bodyLen, err := d.readUvarint(&off)
	if err != nil {
		return err
	}
	if bodyLen != uint64(d.bytesTotal-off) {
		return fmt.Errorf("%w: body length %d does not match source size %d", ErrBadFormat, bodyLen, d.bytesTotal-off)
	}
	d.dict = dict
	d.off = off
	for id := range d.dict {
		d.ids = append(d.ids, id)
	}
	d.stack = append(d.stack, openElement{descHi: len(d.ids), size: bodyLen, endOff: d.bytesTotal})
	return nil
}

// buf returns the decoder's scratch buffer sized to n bytes; its contents
// are valid until the next call.
func (d *Decoder) buf(n int) []byte {
	if cap(d.scratch) < n {
		d.scratch = make([]byte, n)
	}
	return d.scratch[:n]
}

// BytesRead returns the number of encoded bytes fetched from the source so
// far (header included, skipped ranges excluded).
func (d *Decoder) BytesRead() int64 { return d.bytesRead }

// BytesSkipped returns the number of encoded bytes jumped over by
// SkipToClose calls.
func (d *Decoder) BytesSkipped() int64 { return d.skippedByte }

// HasDescendantTag implements the evaluator's MetaProvider: whether a tag
// occurs in the subtree rooted at the most recently opened element. The
// element's descendant tags are its ascending ids over the document's sorted
// tag dictionary, which doubles as the name-to-id index, so the section 4.2
// label test builds no set per element.
func (d *Decoder) HasDescendantTag(name string) (has, known bool) {
	if d.lastOpened == 0 || d.lastOpened >= len(d.stack) {
		return false, false
	}
	id := sort.SearchStrings(d.dict, name)
	if id == len(d.dict) || d.dict[id] != name {
		return false, true
	}
	el := &d.stack[d.lastOpened]
	ids := d.ids[el.descLo:el.descHi]
	i := sort.SearchInts(ids, id)
	return i < len(ids) && ids[i] == id, true
}

// Next implements xmlstream.EventReader.
func (d *Decoder) Next() (xmlstream.Event, error) {
	if d.err != nil {
		return xmlstream.Event{}, d.err
	}
	defer d.trace.Enter(d.trace.Enter(trace.PhaseDecode))
	for {
		if d.head < len(d.pending) {
			ev := d.pending[d.head]
			d.head++
			if d.head == len(d.pending) {
				d.pending, d.head = d.pending[:0], 0
			}
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
	// Close the innermost element once its encoding is exhausted. The
	// position never passes an open element's end: decodeElement rejects a
	// child that would run past it.
	if depth := len(d.stack) - 1; depth > 0 && d.off == d.stack[depth].endOff {
		top := d.stack[depth]
		d.stack = d.stack[:depth]
		d.ids = d.ids[:top.descLo]
		d.pending = append(d.pending, xmlstream.Event{Kind: xmlstream.Close, Name: top.name, Depth: depth})
		return nil
	}
	if len(d.stack) == 1 && d.off >= d.bytesTotal {
		return xmlstream.ErrEndOfDocument
	}
	return d.decodeElement()
}

// decodeElement decodes one element header (and its direct text) and queues
// the Open and Text events.
func (d *Decoder) decodeElement() error {
	parent := d.stack[len(d.stack)-1]
	parentIDs := d.ids[parent.descLo:parent.descHi]
	start := d.off

	tagBits := bitsForCount(len(parentIDs))
	sizeBits := bitsFor(parent.size)
	// The TagArray is only present for internal elements, but its presence
	// is known from the first bit; read the maximum meta size then re-parse.
	buf := d.buf((1 + int(tagBits) + int(sizeBits) + len(parentIDs) + 7) / 8)
	n, err := d.src.ReadAt(buf, start)
	if n < len(buf) && err != nil && err != io.EOF {
		return sourceErr("element meta", start, err)
	}
	r := bitReader{buf: buf[:n]}
	isLeaf, ok := r.readBool()
	if !ok {
		return fmt.Errorf("%w: truncated element meta", ErrBadFormat)
	}
	tagIdx, ok := r.readBits(tagBits)
	if !ok {
		return fmt.Errorf("%w: truncated tag index", ErrBadFormat)
	}
	if tagIdx >= uint64(len(parentIDs)) {
		return fmt.Errorf("%w: tag index %d out of range", ErrBadFormat, tagIdx)
	}
	tagID := parentIDs[tagIdx]
	size, ok := r.readBits(sizeBits)
	if !ok {
		return fmt.Errorf("%w: truncated subtree size", ErrBadFormat)
	}
	if size > parent.size {
		return fmt.Errorf("%w: subtree size %d exceeds parent size %d", ErrBadFormat, size, parent.size)
	}
	name := d.dict[tagID]
	endOff := start + int64(size)
	if endOff > parent.endOff {
		return fmt.Errorf("%w: element <%s> extends past its parent's end", ErrBadFormat, name)
	}
	// The element's descendant ids go on top of the arena. Appending never
	// overwrites parentIDs, which ends at or before the arena's length.
	lo := len(d.ids)
	if isLeaf {
		d.ids = append(d.ids, tagID)
	} else {
		for _, id := range parentIDs {
			present, ok := r.readBool()
			if !ok {
				return fmt.Errorf("%w: truncated tag array", ErrBadFormat)
			}
			if present {
				d.ids = append(d.ids, id)
			}
		}
	}
	r.align()
	metaBytes := r.bytesConsumed()
	d.bytesRead += int64(metaBytes)
	off := start + int64(metaBytes)

	textLen, err := d.readUvarint(&off)
	if err != nil {
		return err
	}
	if off > endOff || textLen > uint64(endOff-off) {
		return fmt.Errorf("%w: element <%s> header and text (%d bytes) run past its end", ErrBadFormat, name, textLen)
	}
	var text string
	if textLen > 0 {
		tb := d.buf(int(textLen))
		if err := d.readFull(tb, off); err != nil {
			return err
		}
		off += int64(textLen)
		text = string(tb)
	}

	depth := len(d.stack) // virtual super-root occupies index 0
	d.stack = append(d.stack, openElement{name: name, descLo: lo, descHi: len(d.ids), size: size, endOff: endOff})
	d.lastOpened = depth
	d.off = off

	d.pending = append(d.pending, xmlstream.Event{Kind: xmlstream.Open, Name: name, Depth: depth})
	if text != "" {
		d.pending = append(d.pending, xmlstream.Event{Kind: xmlstream.Text, Value: text, Depth: depth})
	}
	return nil
}

// SkipToClose implements xmlstream.Skipper: it jumps to the end of the
// encoding of the element open at the given depth without reading the bytes
// in between. The Close event of that element is produced by the next call
// to Next.
func (d *Decoder) SkipToClose(depth int) (int64, error) {
	defer d.trace.Enter(d.trace.Enter(trace.PhaseSkip))
	if depth < 1 || depth >= len(d.stack) {
		return 0, fmt.Errorf("%w: no open element at depth %d", ErrBadFormat, depth)
	}
	target := d.stack[depth]
	skipped := target.endOff - d.off
	d.off = target.endOff
	d.skippedByte += skipped
	// Events already decoded but not yet delivered all belong to the skipped
	// subtree: drop them. Elements below the target that the consumer has
	// already opened still need their Close events, in innermost-first
	// order, before the target's own Close.
	d.pending, d.head = d.pending[:0], 0
	for i := len(d.stack) - 1; i > depth; i-- {
		d.pending = append(d.pending, xmlstream.Event{Kind: xmlstream.Close, Name: d.stack[i].name, Depth: i})
	}
	d.stack = d.stack[:depth+1]
	d.ids = d.ids[:target.descHi]
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
	buf := d.buf(10)
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
