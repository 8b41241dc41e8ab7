// Package secure implements the confidentiality and integrity layer of
// section 6 and Appendix A of the paper: position-aware Triple-DES block
// encryption (so identical plaintext blocks yield different ciphertexts), a
// chunk/fragment layout with per-chunk digests, the Merkle-hash-tree-based
// random integrity checking (ECB-MHT) and the comparison schemes ECB,
// CBC-SHA and CBC-SHAC evaluated by Figure 11, together with the untrusted
// terminal protocol and the SOE-side secure reader that decrypts and
// verifies on demand while accounting for every byte that crosses the SOE
// boundary.
//
// The package has grown three seams beyond the paper's single-shot protect:
//
//   - ChunkSource abstracts where ciphertext lives: *Protected serves it
//     from memory, internal/remote fetches it over HTTP range requests from
//     an untrusted blob server — the Reader is identical over both, so the
//     cost accounting (BytesTransferred, BytesDecrypted, integrity hashes)
//     is byte-for-byte the same local and remote. Manifest marshals the
//     container layout the remote side needs before its first range
//     request.
//
//   - Update re-encrypts only the chunks an edit dirtied (position-XOR ECB
//     reuses clean-chunk ciphertext byte-identically; CBC schemes reuse the
//     prefix before the first change), carries a monotonic document version
//     in the v2 container, and emits a binary Delta for the store's log.
//     Clean chunks keep their encrypted digests, so ChangedChunks tells a
//     remote cache which pages to evict from two versions' digest tables.
//
//   - Readers are single-goroutine but the *Protected beneath them is
//     immutable once built (updates swap a new snapshot), so concurrent
//     views open one Reader each over the same snapshot; each reader
//     verifies and decrypts independently with its own chunk state.
//
// Readers report per-phase time (decrypt, verify, hash fetch) into
// internal/trace contexts when tracing is on.
package secure

import (
	"crypto/cipher"
	"crypto/des"
	"crypto/sha1"
	"encoding/binary"
	"errors"
	"fmt"
)

// BlockSize is the encryption block size (Triple-DES, 8 bytes), the unit of
// encryption of Appendix A.
const BlockSize = 8

// DefaultFragmentSize is the fragment size (random-access granularity inside
// a chunk).
const DefaultFragmentSize = 256

// DefaultChunkSize is the chunk size (integrity-checking granularity,
// dimensioned by the SOE memory).
const DefaultChunkSize = 2048

// DigestSize is the SHA-1 digest size.
const DigestSize = sha1.Size

// encryptedDigestSize is the size of a digest once padded to the block size
// and encrypted.
const encryptedDigestSize = ((DigestSize + BlockSize - 1) / BlockSize) * BlockSize

// ErrIntegrity is returned when tampering is detected.
var ErrIntegrity = errors.New("secure: integrity check failed")

// ErrBadKey wraps key-size errors.
var ErrBadKey = errors.New("secure: invalid key")

// Key is a 24-byte Triple-DES key.
type Key []byte

// NewKey validates a 24-byte key.
func NewKey(b []byte) (Key, error) {
	if len(b) != 24 {
		return nil, fmt.Errorf("%w: need 24 bytes, got %d", ErrBadKey, len(b))
	}
	return Key(append([]byte(nil), b...)), nil
}

// DeriveKey deterministically derives a 24-byte key from a passphrase
// (SHA-1 based KDF; the paper assumes keys are provisioned through a secure
// channel, so the derivation scheme is a convenience of this library).
func DeriveKey(passphrase string) Key {
	out := make([]byte, 0, 24)
	counter := 0
	for len(out) < 24 {
		h := sha1.Sum([]byte(fmt.Sprintf("xmlac-key-%d-%s", counter, passphrase)))
		out = append(out, h[:]...)
		counter++
	}
	return Key(out[:24])
}

// blockCipher builds the Triple-DES cipher for a key.
func blockCipher(key Key) (cipher.Block, error) {
	if len(key) != 24 {
		return nil, fmt.Errorf("%w: need 24 bytes, got %d", ErrBadKey, len(key))
	}
	return des.NewTripleDESCipher(key)
}

// xorPosition merges the block position into the plaintext block before
// encryption (Appendix A: "a plaintext block b at absolute position p in the
// document is encrypted by Ek(b XOR p)"), which prevents identical plaintext
// blocks from producing identical ciphertext without the random-access cost
// of CBC chaining.
func xorPosition(dst, src []byte, blockIndex uint64) {
	var pos [BlockSize]byte
	binary.LittleEndian.PutUint64(pos[:], blockIndex)
	for i := 0; i < BlockSize; i++ {
		dst[i] = src[i] ^ pos[i]
	}
}

// encryptBlockAt encrypts one 8-byte block at the given block index with the
// position-XOR ECB construction. It works in dst, so no temporary escapes
// through the cipher.Block interface.
func encryptBlockAt(block cipher.Block, dst, src []byte, blockIndex uint64) {
	xorPosition(dst, src, blockIndex)
	block.Encrypt(dst, dst)
}

// decryptBlockAt reverses encryptBlockAt, in dst.
func decryptBlockAt(block cipher.Block, dst, src []byte, blockIndex uint64) {
	block.Decrypt(dst, src)
	xorPosition(dst, dst, blockIndex)
}

// encryptPositionECB encrypts src (length multiple of BlockSize) into dst
// with the position-XOR ECB construction, starting at block index
// firstBlock. dst may be src.
func encryptPositionECB(block cipher.Block, dst, src []byte, firstBlock uint64) {
	for off := 0; off < len(src); off += BlockSize {
		encryptBlockAt(block, dst[off:off+BlockSize], src[off:off+BlockSize], firstBlock+uint64(off/BlockSize))
	}
}

// encryptCBC encrypts a buffer in CBC mode with a fixed derived IV (the
// comparison schemes CBC-SHA and CBC-SHAC of Figure 11).
func encryptCBC(block cipher.Block, data []byte, key Key) []byte {
	out := make([]byte, len(data))
	encryptCBCFrom(block, out, data, cbcIV(key))
	return out
}

// encryptCBCFrom encrypts a buffer suffix src into dst in CBC mode chained
// off prev, the ciphertext of the block immediately preceding the suffix (or
// the derived IV when the suffix starts the document). src may end in a
// partial block, which is encrypted zero-padded. Encrypting [0, len) with the
// IV is exactly encryptCBC; re-encrypting a suffix whose preceding
// ciphertext is unchanged reproduces, byte for byte, what a from-scratch
// encryption of the whole buffer would put there — the property
// chunk-granular updates rely on.
func encryptCBCFrom(block cipher.Block, dst, src, prev []byte) {
	mode := cipher.NewCBCEncrypter(block, prev)
	whole := len(src) - len(src)%BlockSize
	mode.CryptBlocks(dst[:whole], src[:whole])
	if whole < len(src) {
		var last [BlockSize]byte
		copy(last[:], src[whole:])
		mode.CryptBlocks(dst[whole:whole+BlockSize], last[:])
	}
}

// cbcIV derives the fixed CBC initialization vector of encryptCBC.
func cbcIV(key Key) []byte {
	iv := sha1.Sum(append([]byte("xmlac-iv"), key...))
	return iv[:BlockSize]
}

// decryptCBCRange decrypts CBC ciphertext blocks into dst (of the same
// length) given the ciphertext of the preceding block (or the IV for the
// first block of the document).
func decryptCBCRange(block cipher.Block, dst, ciphertext, prev []byte) {
	for off := 0; off < len(ciphertext); off += BlockSize {
		out := dst[off : off+BlockSize]
		block.Decrypt(out, ciphertext[off:off+BlockSize])
		for i := range out {
			out[i] ^= prev[i]
		}
		prev = ciphertext[off : off+BlockSize]
	}
}

// paddedLen is the length of n bytes zero-padded to a multiple of
// BlockSize.
func paddedLen(n int) int {
	return (n + BlockSize - 1) / BlockSize * BlockSize
}

// paddedRange returns bytes [start, end) of data zero-padded to a multiple
// of BlockSize: a subslice of data, or a copy when the range reaches into
// the padding.
func paddedRange(data []byte, start, end int) []byte {
	if end <= len(data) {
		return data[start:end]
	}
	out := make([]byte, end-start)
	if start < len(data) {
		copy(out, data[start:])
	}
	return out
}

// encryptDigest encrypts a chunk digest (padded to the block size) under the
// document key with a position tied to the chunk index so digests cannot be
// swapped between chunks.
func encryptDigest(block cipher.Block, digest []byte, chunkIndex uint64) []byte {
	buf := make([]byte, encryptedDigestSize)
	copy(buf, digest)
	// Use a distinct position space (high bit set) for digests.
	encryptPositionECB(block, buf, buf, 1<<62+chunkIndex*uint64(encryptedDigestSize/BlockSize))
	return buf
}

// decryptDigest reverses encryptDigest, decrypting through buf (scratch
// owned by the caller, so nothing escapes per digest). ok is false when enc
// does not have the size of an encrypted digest.
func decryptDigest(block cipher.Block, buf *[encryptedDigestSize]byte, enc []byte, chunkIndex uint64) (digest [DigestSize]byte, ok bool) {
	if len(enc) != encryptedDigestSize {
		return digest, false
	}
	first := 1<<62 + chunkIndex*uint64(encryptedDigestSize/BlockSize)
	for off := 0; off < encryptedDigestSize; off += BlockSize {
		decryptBlockAt(block, buf[off:off+BlockSize], enc[off:off+BlockSize], first+uint64(off/BlockSize))
	}
	copy(digest[:], buf[:DigestSize])
	return digest, true
}
