package secure

import "fmt"

// Manifest describes the layout of a protected document: everything the
// untrusted side (terminal, blob server) knows and publishes, and everything
// the SOE-side reader needs besides the key. Nothing in it is secret.
type Manifest struct {
	Scheme       Scheme
	ChunkSize    int
	FragmentSize int
	// PlainLen is the original plaintext length (the padding tail is ignored
	// at decryption time).
	PlainLen int
	// CiphertextLen is the encrypted body length (PlainLen padded to the
	// block size).
	CiphertextLen int64
	// NumDigests is the number of encrypted chunk digests (0 for SchemeECB).
	NumDigests int
	// Version is the monotonic document version stamped by Protect (1) and
	// bumped by every Update.
	Version uint64
}

// NumChunks returns the number of integrity chunks of the document.
func (m Manifest) NumChunks() int {
	if m.ChunkSize == 0 {
		return 0
	}
	return int((m.CiphertextLen + int64(m.ChunkSize) - 1) / int64(m.ChunkSize))
}

// ChunkBounds returns the [start, end) ciphertext byte range of chunk i.
func (m Manifest) ChunkBounds(i int) (int64, int64) {
	start := int64(i) * int64(m.ChunkSize)
	end := start + int64(m.ChunkSize)
	if end > m.CiphertextLen {
		end = m.CiphertextLen
	}
	return start, end
}

// NumFragments returns the number of Merkle fragments of chunk i.
func (m Manifest) NumFragments(i int) int {
	if m.FragmentSize == 0 {
		return 0
	}
	start, end := m.ChunkBounds(i)
	return int((end - start + int64(m.FragmentSize) - 1) / int64(m.FragmentSize))
}

// LeafBounds returns the [start, end) byte range of the leaf records of
// chunks [i, j), i < j, in the document's leaf table: DigestSize bytes per
// fragment, chunk after chunk, every chunk but the last holding
// ChunkSize/FragmentSize of them.
func (m Manifest) LeafBounds(i, j int) (int64, int64) {
	if m.FragmentSize == 0 {
		return 0, 0
	}
	per := int64(m.ChunkSize/m.FragmentSize) * DigestSize
	return int64(i) * per, int64(j-1)*per + int64(m.NumFragments(j-1))*DigestSize
}

// ChunkSource is the untrusted side of the SOE protocol: where the secure
// reader pulls ciphertext ranges, encrypted chunk digests and fragment leaf
// hashes from. The in-memory *Protected document is the local implementation;
// internal/remote implements it over HTTP range requests against a blob
// server, so the Skip index saves network transfer as well as decryption.
//
// A ChunkSource never needs the document key: ciphertext, encrypted digests
// and ciphertext-fragment hashes are exactly what the attacker model already
// concedes to the untrusted terminal.
type ChunkSource interface {
	// Manifest returns the document layout.
	Manifest() Manifest
	// CiphertextRange returns the ciphertext bytes [off, off+n). The returned
	// slice is a stable snapshot (the reader may hold it across further
	// calls) and must not be modified.
	CiphertextRange(off, n int64) ([]byte, error)
	// ChunkDigest returns the encrypted digest of chunk i.
	ChunkDigest(i int) ([]byte, error)
	// FragmentHashes returns the SHA-1 hash of every ciphertext fragment of
	// chunk i as DigestSize-byte records back to back: chunk i's slice of
	// the leaf table the store range-serves on /hashes (the terminal side
	// of the ECB-MHT Merkle protocol). The SOE asks for a chunk's records
	// once per view, on the chunk's first touch: it folds them to the
	// Merkle root, checks the root against the decrypted chunk digest and
	// keeps them, then checks each fragment it fetches from the chunk
	// against its record, so a lying source is always detected. The
	// records belong to the source: like CiphertextRange's bytes, they
	// stay valid across further calls and must not be modified.
	FragmentHashes(i int) ([]byte, error)
}

// Manifest implements ChunkSource for the in-memory document.
func (p *Protected) Manifest() Manifest {
	return Manifest{
		Scheme:        p.Scheme,
		ChunkSize:     p.ChunkSize,
		FragmentSize:  p.FragmentSize,
		PlainLen:      p.PlainLen,
		CiphertextLen: int64(len(p.Ciphertext)),
		NumDigests:    len(p.ChunkDigests),
		Version:       p.docVersion(),
	}
}

// CiphertextRange implements ChunkSource for the in-memory document.
func (p *Protected) CiphertextRange(off, n int64) ([]byte, error) {
	if off < 0 || n < 0 || off+n > int64(len(p.Ciphertext)) {
		return nil, fmt.Errorf("secure: ciphertext range [%d, %d) out of bounds (len %d)", off, off+n, len(p.Ciphertext))
	}
	return p.Ciphertext[off : off+n], nil
}

// ChunkDigest implements ChunkSource for the in-memory document.
func (p *Protected) ChunkDigest(i int) ([]byte, error) {
	if i < 0 || i >= len(p.ChunkDigests) {
		return nil, fmt.Errorf("%w: missing digest for chunk %d", ErrIntegrity, i)
	}
	return p.ChunkDigests[i], nil
}

// FragmentHashes implements ChunkSource for the in-memory document: chunk
// i's records in the leaf table built with the ciphertext. Only ECB-MHT
// documents have one.
func (p *Protected) FragmentHashes(i int) ([]byte, error) {
	if p.Scheme != SchemeECBMHT {
		return nil, fmt.Errorf("secure: a %v document has no fragment hash table", p.Scheme)
	}
	if i < 0 || i >= p.NumChunks() {
		return nil, fmt.Errorf("secure: chunk %d out of range (%d chunks)", i, p.NumChunks())
	}
	return p.chunkLeaves(i), nil
}

// LeafTable returns the whole leaf table of an ECB-MHT document: every
// chunk's FragmentHashes records, chunk after chunk (nil under the other
// schemes). The table is built with the ciphertext and never modified;
// callers must not modify it either.
func (p *Protected) LeafTable() []byte {
	return p.leaves[:len(p.leaves):len(p.leaves)]
}
