// Package skipindex implements the Skip index of section 4 of the paper: a
// highly compact, recursively encoded structural index embedded in the XML
// document that lets the SOE (1) detect rules and queries that cannot apply
// inside a subtree (descendant-tag bitmaps), (2) skip entire subtrees in
// constant time (subtree sizes), and (3) compress the structural part of the
// document (dictionary tag encoding). The package also provides the
// comparison encodings NC, TC, TCS and TCSB used by Figure 8 to quantify the
// storage overhead of each piece of metadata.
//
// A Decoder serves one goroutine at a time; concurrent scans each use
// their own.
package skipindex

// bitWriter packs bit fields most-significant-bit first into a byte slice.
// Every element's metadata is padded to a byte frontier (as required by the
// paper so that subtree skips land on byte offsets).
type bitWriter struct {
	buf  []byte
	cur  byte
	nbit uint // bits used in cur
}

// writeBits appends the width low-order bits of v, most significant first.
func (w *bitWriter) writeBits(v uint64, width uint) {
	for i := int(width) - 1; i >= 0; i-- {
		bit := byte((v >> uint(i)) & 1)
		w.cur = w.cur<<1 | bit
		w.nbit++
		if w.nbit == 8 {
			w.buf = append(w.buf, w.cur)
			w.cur, w.nbit = 0, 0
		}
	}
}

// writeBool appends a single bit.
func (w *bitWriter) writeBool(b bool) {
	if b {
		w.writeBits(1, 1)
	} else {
		w.writeBits(0, 1)
	}
}

// align pads the current byte with zero bits so the next write starts on a
// byte frontier.
func (w *bitWriter) align() {
	if w.nbit == 0 {
		return
	}
	w.cur <<= 8 - w.nbit
	w.buf = append(w.buf, w.cur)
	w.cur, w.nbit = 0, 0
}

// bytes returns the written bytes; the writer must be aligned.
func (w *bitWriter) bytes() []byte {
	w.align()
	return w.buf
}

// bitLen returns the number of bits written so far (before alignment).
func (w *bitWriter) bitLen() int { return len(w.buf)*8 + int(w.nbit) }

// bitReader reads bit fields written by bitWriter.
type bitReader struct {
	buf  []byte
	pos  int  // byte position
	nbit uint // bits consumed in buf[pos]
}

func newBitReader(buf []byte) *bitReader { return &bitReader{buf: buf} }

// readBits reads width bits, most significant first.
func (r *bitReader) readBits(width uint) (uint64, bool) {
	var v uint64
	for i := uint(0); i < width; i++ {
		if r.pos >= len(r.buf) {
			return 0, false
		}
		bit := (r.buf[r.pos] >> (7 - r.nbit)) & 1
		v = v<<1 | uint64(bit)
		r.nbit++
		if r.nbit == 8 {
			r.nbit = 0
			r.pos++
		}
	}
	return v, true
}

// readBool reads one bit.
func (r *bitReader) readBool() (bool, bool) {
	v, ok := r.readBits(1)
	return v == 1, ok
}

// align skips to the next byte frontier.
func (r *bitReader) align() {
	if r.nbit != 0 {
		r.nbit = 0
		r.pos++
	}
}

// bytesConsumed returns the number of whole bytes consumed (reader must be
// aligned).
func (r *bitReader) bytesConsumed() int { return r.pos }

// bitsFor returns the number of bits needed to represent any value in
// [0, maxValue]; zero when maxValue is 0.
func bitsFor(maxValue uint64) uint {
	var n uint
	for maxValue > 0 {
		n++
		maxValue >>= 1
	}
	return n
}

// bitsForCount returns the number of bits needed to encode an index in
// [0, count); zero when count <= 1.
func bitsForCount(count int) uint {
	if count <= 1 {
		return 0
	}
	return bitsFor(uint64(count - 1))
}

// putUvarint appends a variable-length unsigned integer (7 bits per byte,
// little-endian groups, high bit = continuation) and returns the new slice.
func putUvarint(buf []byte, v uint64) []byte {
	for v >= 0x80 {
		buf = append(buf, byte(v)|0x80)
		v >>= 7
	}
	return append(buf, byte(v))
}

// uvarint reads a variable-length unsigned integer and returns the value and
// the number of bytes consumed (0 when the buffer is malformed).
func uvarint(buf []byte) (uint64, int) {
	var v uint64
	var shift uint
	for i, b := range buf {
		if i >= 10 {
			return 0, 0
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, i + 1
		}
		shift += 7
	}
	return 0, 0
}

// uvarintLen returns the encoded length of v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
