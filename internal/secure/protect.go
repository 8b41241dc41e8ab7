package secure

import (
	"crypto/sha1"
	"fmt"
)

// Scheme selects the encryption / integrity combination (Figure 11).
type Scheme int

const (
	// SchemeECB: position-XOR ECB encryption, no integrity checking
	// (confidentiality only).
	SchemeECB Scheme = iota
	// SchemeCBCSHA: CBC encryption, SHA-1 digest of each plaintext chunk
	// (the "most direct application of state-of-the-art techniques"): the
	// SOE must decrypt a whole chunk to verify it.
	SchemeCBCSHA
	// SchemeCBCSHAC: CBC encryption, SHA-1 digest of each ciphertext chunk:
	// the SOE verifies without decrypting the whole chunk but still receives
	// it entirely.
	SchemeCBCSHAC
	// SchemeECBMHT: position-XOR ECB encryption with a Merkle hash tree of
	// ciphertext fragments per chunk — the scheme proposed by the paper:
	// random accesses verify at fragment granularity.
	SchemeECBMHT
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case SchemeECB:
		return "ECB"
	case SchemeCBCSHA:
		return "CBC-SHA"
	case SchemeCBCSHAC:
		return "CBC-SHAC"
	case SchemeECBMHT:
		return "ECB-MHT"
	default:
		return "unknown"
	}
}

// Schemes lists the four schemes in the order of Figure 11.
func Schemes() []Scheme { return []Scheme{SchemeECB, SchemeCBCSHA, SchemeCBCSHAC, SchemeECBMHT} }

// Protected is an encrypted document as stored on the server / terminal
// side. A Protected value is immutable once built: Update produces a new
// value sharing the layout, never patches one in place, so concurrent
// readers always see a consistent single version.
type Protected struct {
	Scheme Scheme
	// Ciphertext is the encrypted, padded document body.
	Ciphertext []byte
	// PlainLen is the original plaintext length (the padding tail is
	// ignored at decryption time).
	PlainLen int
	// ChunkSize and FragmentSize describe the integrity layout.
	ChunkSize    int
	FragmentSize int
	// ChunkDigests[i] is the encrypted digest of chunk i (empty for
	// SchemeECB).
	ChunkDigests [][]byte
	// Version is the monotonic document version, starting at 1 for a fresh
	// Protect and bumped by every Update. The zero value reads as version 1
	// so Protected literals built by older code keep working.
	Version uint64
}

// docVersion returns the effective document version (the zero value means 1).
func (p *Protected) docVersion() uint64 {
	if p.Version == 0 {
		return 1
	}
	return p.Version
}

// NumChunks returns the number of chunks of the protected document.
func (p *Protected) NumChunks() int {
	if p.ChunkSize == 0 {
		return 0
	}
	return (len(p.Ciphertext) + p.ChunkSize - 1) / p.ChunkSize
}

// chunkBounds returns the [start, end) byte range of chunk i.
func (p *Protected) chunkBounds(i int) (int, int) {
	start := i * p.ChunkSize
	end := start + p.ChunkSize
	if end > len(p.Ciphertext) {
		end = len(p.Ciphertext)
	}
	return start, end
}

// ProtectOptions tunes Protect.
type ProtectOptions struct {
	Scheme       Scheme
	ChunkSize    int
	FragmentSize int
}

// checkLayout enforces the chunk geometry every reader relies on: a chunk is
// a whole number of fragments, and a fragment a whole number of cipher
// blocks.
func checkLayout(chunkSize, fragmentSize int) error {
	if chunkSize <= 0 || fragmentSize <= 0 || chunkSize%fragmentSize != 0 || fragmentSize%BlockSize != 0 {
		return fmt.Errorf("secure: chunk size %d must be a multiple of fragment size %d, itself a multiple of %d",
			chunkSize, fragmentSize, BlockSize)
	}
	return nil
}

// Protect encrypts a plaintext document (typically the Skip-index encoding)
// under the given key and scheme.
func Protect(plaintext []byte, key Key, opts ProtectOptions) (*Protected, error) {
	block, err := blockCipher(key)
	if err != nil {
		return nil, err
	}
	chunkSize := opts.ChunkSize
	if chunkSize == 0 {
		chunkSize = DefaultChunkSize
	}
	fragmentSize := opts.FragmentSize
	if fragmentSize == 0 {
		fragmentSize = DefaultFragmentSize
	}
	if err := checkLayout(chunkSize, fragmentSize); err != nil {
		return nil, err
	}
	padded := paddedRange(plaintext, 0, paddedLen(len(plaintext)))
	p := &Protected{
		Scheme:       opts.Scheme,
		PlainLen:     len(plaintext),
		ChunkSize:    chunkSize,
		FragmentSize: fragmentSize,
		Version:      1,
	}
	switch opts.Scheme {
	case SchemeECB, SchemeECBMHT:
		p.Ciphertext = make([]byte, len(padded))
		encryptPositionECB(block, p.Ciphertext, padded, 0)
	case SchemeCBCSHA, SchemeCBCSHAC:
		p.Ciphertext = encryptCBC(block, padded, key)
	default:
		return nil, fmt.Errorf("secure: unknown scheme %v", opts.Scheme)
	}
	// Chunk digests.
	for i := 0; i < p.NumChunks(); i++ {
		start, end := p.chunkBounds(i)
		var digest [DigestSize]byte
		switch opts.Scheme {
		case SchemeECB:
			continue
		case SchemeCBCSHA:
			digest = sha1.Sum(padded[start:end])
		case SchemeCBCSHAC:
			digest = sha1.Sum(p.Ciphertext[start:end])
		case SchemeECBMHT:
			digest = merkleRoot(p.Ciphertext[start:end], fragmentSize)
		}
		p.ChunkDigests = append(p.ChunkDigests, encryptDigest(block, digest[:], uint64(i)))
	}
	return p, nil
}

// merkleRoot computes the Merkle hash tree root of a chunk split into
// fragments (Appendix A, Figure F1). The number of leaves is the number of
// fragments in a full chunk; a trailing partial fragment is hashed as-is.
func merkleRoot(chunk []byte, fragmentSize int) [DigestSize]byte {
	var leaves [][DigestSize]byte
	for off := 0; off < len(chunk); off += fragmentSize {
		end := off + fragmentSize
		if end > len(chunk) {
			end = len(chunk)
		}
		leaves = append(leaves, sha1.Sum(chunk[off:end]))
	}
	return merkleCombine(leaves)
}

// merkleCombine folds leaf hashes pairwise up to the root. It works in
// place: each level overwrites the front of the one below it, so level is
// clobbered.
func merkleCombine(level [][DigestSize]byte) [DigestSize]byte {
	if len(level) == 0 {
		return sha1.Sum(nil)
	}
	var joined [2 * DigestSize]byte
	for n := len(level); n > 1; n = (n + 1) / 2 {
		for i := 0; i < n; i += 2 {
			if i+1 == n {
				level[i/2] = level[i]
				continue
			}
			copy(joined[:DigestSize], level[i][:])
			copy(joined[DigestSize:], level[i+1][:])
			level[i/2] = sha1.Sum(joined[:])
		}
	}
	return level[0]
}

// fragmentHashes returns the leaf hash of every fragment of a chunk: the
// terminal side of the Merkle protocol. The verifier takes from it the
// siblings of the fragments it hashed itself (a flat co-path; the cost model
// charges the logarithmic co-path of the paper) and recomputes the root.
func fragmentHashes(chunk []byte, fragmentSize int) [][DigestSize]byte {
	out := make([][DigestSize]byte, 0, (len(chunk)+fragmentSize-1)/fragmentSize)
	for off := 0; off < len(chunk); off += fragmentSize {
		end := off + fragmentSize
		if end > len(chunk) {
			end = len(chunk)
		}
		out = append(out, sha1.Sum(chunk[off:end]))
	}
	return out
}
