package secure

import (
	"encoding/binary"
	"fmt"
)

// The marshalled form of a Protected document is what the publisher stores
// on the untrusted server / terminal:
//
//	magic "XSEC" | version 2 | scheme | chunkSize | fragmentSize | plainLen |
//	docVersion | numDigests | digests... | ciphertext
//
// All integers are little-endian uint32/uint64. Nothing in the container is
// secret (it is exactly what the attacker sees). Container version 1 is the
// same layout without the docVersion field (implicitly document version 1);
// it is still accepted on unmarshal so blobs written before in-place updates
// existed keep loading.

var containerMagic = []byte("XSEC")

const (
	containerVersion1 = 1
	containerVersion  = 2
)

// Marshal serializes the protected document.
func (p *Protected) Marshal() []byte {
	// Sized exactly: the blob is as large as the document, and a
	// reallocation would copy and allocate it again.
	size := len(containerMagic) + 2 + 4 + 4 + 8 + 8 + 4 + 8 + len(p.Ciphertext)
	for _, d := range p.ChunkDigests {
		size += 4 + len(d)
	}
	out := make([]byte, 0, size)
	out = append(out, containerMagic...)
	out = append(out, containerVersion)
	out = append(out, byte(p.Scheme))
	out = appendUint32(out, uint32(p.ChunkSize))
	out = appendUint32(out, uint32(p.FragmentSize))
	out = appendUint64(out, uint64(p.PlainLen))
	out = appendUint64(out, p.docVersion())
	out = appendUint32(out, uint32(len(p.ChunkDigests)))
	for _, d := range p.ChunkDigests {
		out = appendUint32(out, uint32(len(d)))
		out = append(out, d...)
	}
	out = appendUint64(out, uint64(len(p.Ciphertext)))
	out = append(out, p.Ciphertext...)
	return out
}

// unmarshalPrefix parses the container up to and including the ciphertext
// length field, returning the document (without its ciphertext) and the
// declared ciphertext length. On return r.pos is the ciphertext offset.
func unmarshalPrefix(r *byteReader) (*Protected, uint64, error) {
	magicBytes, err := r.take(4)
	if err != nil {
		return nil, 0, err
	}
	for i := range containerMagic {
		if magicBytes[i] != containerMagic[i] {
			return nil, 0, fmt.Errorf("secure: not a protected document (bad magic)")
		}
	}
	version, err := r.byte()
	if err != nil {
		return nil, 0, err
	}
	if version != containerVersion && version != containerVersion1 {
		return nil, 0, fmt.Errorf("secure: unsupported container version %d", version)
	}
	schemeByte, err := r.byte()
	if err != nil {
		return nil, 0, err
	}
	p := &Protected{Scheme: Scheme(schemeByte)}
	if p.Scheme < SchemeECB || p.Scheme > SchemeECBMHT {
		return nil, 0, fmt.Errorf("secure: unknown scheme %d", schemeByte)
	}
	chunkSize, err := r.uint32()
	if err != nil {
		return nil, 0, err
	}
	fragSize, err := r.uint32()
	if err != nil {
		return nil, 0, err
	}
	plainLen, err := r.uint64()
	if err != nil {
		return nil, 0, err
	}
	p.ChunkSize = int(chunkSize)
	p.FragmentSize = int(fragSize)
	if err := checkLayout(p.ChunkSize, p.FragmentSize); err != nil {
		return nil, 0, err
	}
	p.PlainLen = int(plainLen)
	p.Version = 1
	if version >= containerVersion {
		docVersion, err := r.uint64()
		if err != nil {
			return nil, 0, err
		}
		if docVersion == 0 {
			return nil, 0, fmt.Errorf("secure: document version 0 (versions start at 1)")
		}
		p.Version = docVersion
	}
	nDigests, err := r.uint32()
	if err != nil {
		return nil, 0, err
	}
	if nDigests > 1<<26 {
		return nil, 0, fmt.Errorf("secure: implausible digest count %d", nDigests)
	}
	for i := uint32(0); i < nDigests; i++ {
		l, err := r.uint32()
		if err != nil {
			return nil, 0, err
		}
		if l > 64 {
			return nil, 0, fmt.Errorf("secure: implausible digest length %d", l)
		}
		d, err := r.take(int(l))
		if err != nil {
			return nil, 0, err
		}
		p.ChunkDigests = append(p.ChunkDigests, append([]byte(nil), d...))
	}
	ctLen, err := r.uint64()
	if err != nil {
		return nil, 0, err
	}
	// Bound the declared sizes so downstream arithmetic (chunk counts, range
	// math, allocations) cannot overflow or balloon on a hostile container:
	// the prefix is exactly what an untrusted blob server controls.
	const maxPlausibleLen = 1 << 40
	if plainLen > maxPlausibleLen || ctLen > maxPlausibleLen {
		return nil, 0, fmt.Errorf("secure: implausible container sizes (plain %d, ciphertext %d)", plainLen, ctLen)
	}
	// One digest per chunk, except under ECB, which has no integrity: a
	// container relabelled to an integrity scheme without its digests is
	// refused here, not at the first read of a chunk.
	want := Manifest{ChunkSize: p.ChunkSize, CiphertextLen: int64(ctLen)}.NumChunks()
	if p.Scheme == SchemeECB {
		want = 0
	}
	if len(p.ChunkDigests) != want {
		return nil, 0, fmt.Errorf("%w: container holds %d chunk digests for %d chunks", ErrIntegrity, len(p.ChunkDigests), want)
	}
	return p, ctLen, nil
}

// Unmarshal parses a marshalled protected document.
func Unmarshal(data []byte) (*Protected, error) {
	r := &byteReader{data: data}
	p, ctLen, err := unmarshalPrefix(r)
	if err != nil {
		return nil, err
	}
	ct, err := r.take(int(ctLen))
	if err != nil {
		return nil, err
	}
	p.Ciphertext = append([]byte(nil), ct...)
	if p.PlainLen > len(p.Ciphertext) {
		return nil, fmt.Errorf("secure: plaintext length %d exceeds ciphertext length %d", p.PlainLen, len(p.Ciphertext))
	}
	return p, nil
}

// CiphertextOffset returns the byte offset of the ciphertext inside the
// marshalled container: everything before it is the header and digest table
// a remote client fetches once at open time.
func (p *Protected) CiphertextOffset() int64 {
	off := int64(len(containerMagic)) + 1 + 1 + 4 + 4 + 8 + 8 + 4
	for _, d := range p.ChunkDigests {
		off += 4 + int64(len(d))
	}
	return off + 8
}

// UnmarshalManifest parses the container prefix (the bytes before the
// ciphertext: header and digest table) and returns the document manifest,
// the encrypted digest table and the ciphertext offset within the container.
// The prefix must extend at least up to the ciphertext offset; trailing
// ciphertext bytes, if present, are ignored.
func UnmarshalManifest(prefix []byte) (Manifest, [][]byte, int64, error) {
	r := &byteReader{data: prefix}
	p, ctLen, err := unmarshalPrefix(r)
	if err != nil {
		return Manifest{}, nil, 0, err
	}
	if int64(p.PlainLen) > int64(ctLen) {
		return Manifest{}, nil, 0, fmt.Errorf("secure: plaintext length %d exceeds ciphertext length %d", p.PlainLen, ctLen)
	}
	man := Manifest{
		Scheme:        p.Scheme,
		ChunkSize:     p.ChunkSize,
		FragmentSize:  p.FragmentSize,
		PlainLen:      p.PlainLen,
		CiphertextLen: int64(ctLen),
		NumDigests:    len(p.ChunkDigests),
		Version:       p.docVersion(),
	}
	return man, p.ChunkDigests, int64(r.pos), nil
}

func appendUint32(b []byte, v uint32) []byte {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], v)
	return append(b, tmp[:]...)
}

func appendUint64(b []byte, v uint64) []byte {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], v)
	return append(b, tmp[:]...)
}

type byteReader struct {
	data []byte
	pos  int
}

func (r *byteReader) take(n int) ([]byte, error) {
	if n < 0 || r.pos+n > len(r.data) {
		return nil, fmt.Errorf("secure: truncated container")
	}
	out := r.data[r.pos : r.pos+n]
	r.pos += n
	return out, nil
}

func (r *byteReader) byte() (byte, error) {
	b, err := r.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *byteReader) uint32() (uint32, error) {
	b, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *byteReader) uint64() (uint64, error) {
	b, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}
