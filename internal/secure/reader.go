package secure

import (
	"bytes"
	"crypto/cipher"
	"crypto/sha1"
	"fmt"
	"io"

	"xmlac/internal/trace"
)

// Costs accounts for everything that crosses the SOE boundary or is computed
// inside it. The SOE cost model (internal/soe) converts these volumes into
// time using the bandwidth and throughput constants of Table 1.
type Costs struct {
	// BytesTransferred is the total number of bytes entering the SOE:
	// ciphertext, sibling hashes and encrypted digests.
	BytesTransferred int64
	// BytesDecrypted is the number of bytes decrypted inside the SOE
	// (requested blocks, whole chunks for CBC-SHA, encrypted digests).
	BytesDecrypted int64
	// BytesHashed is the number of bytes hashed inside the SOE for integrity
	// verification.
	BytesHashed int64
	// DigestsDecrypted counts decrypted chunk digests.
	DigestsDecrypted int64
	// FragmentsVerified counts fragment-level verifications (ECB-MHT).
	FragmentsVerified int64
}

// Reader is the SOE-side secure reader: it exposes the protected document as
// a plaintext io.ReaderAt (the interface the Skip-index decoder consumes),
// fetching ciphertext from the untrusted terminal on demand through a
// ChunkSource, decrypting only what is needed and verifying integrity
// according to the protection scheme. With the in-memory *Protected source
// the terminal is simulated; with a remote source (internal/remote) every
// CiphertextRange call translates into network transfer, so the bytes the
// Skip index avoids are bytes that never cross the wire.
// It implements skipindex.ByteSource.
//
// A reader's tables and buffers survive Reset, so a pooled reader serves a
// view without allocating beyond what its ChunkSource hands out.
type Reader struct {
	src   ChunkSource
	man   Manifest
	key   Key
	block cipher.Block
	iv    [BlockSize]byte // the CBC schemes' derived IV

	// verification state kept in the SOE: the decrypted chunk digests and,
	// under ECB-MHT, the authenticated leaves of the chunks touched and
	// which fragments were checked against them (a chunk's leaves take
	// 8 x 20 bytes, well within the SOE's RAM budget, so its records are
	// transferred and folded at most once per view). A chunk's
	// entry is current only when it carries the reader's epoch, and the
	// fragment states of the chunks touched in the current epoch sit in
	// frags: Reset moves to a new epoch and empties frags instead of
	// clearing anything, so re-arming a pooled reader costs the same however
	// much its previous view verified.
	epoch  uint64
	chunks map[int]chunkState
	frags  []fragState

	// The block cache holds the most recently decrypted plaintext blocks so
	// that the many small overlapping reads of the streaming decoder do not
	// transfer and decrypt the same block twice. The capacity is a few
	// hundred bytes, compatible with the SOE RAM budget; blocks are
	// decrypted straight into a fixed table whose slots are recycled in
	// first-in first-out order. blockSlot maps a cached block index to its
	// slot; blockKeys[slot] is the block a slot holds, -1 when empty.
	blockSlot     map[int64]int
	blockKeys     [blockCacheSize]int64
	blockPlain    [blockCacheSize][BlockSize]byte
	blockCachePos int

	// The SOE decrypts only ciphertext it hashed and still holds, never a
	// second fetch of it, which a lying source could answer differently.
	// Under ECB-MHT it holds the fragments the current ReadAt verified
	// (verifiedNow) and the last ctCacheSize fragments verified (held,
	// replaced in first-in first-out order); the decryption step decrypts
	// from them and does not charge their transfer a second time (the SOE
	// hashes and decrypts the incoming stream in one pass). Under the CBC
	// schemes it holds the last two chunks it read (cbc, the latest first):
	// a read that crosses a chunk boundary is often followed by one before
	// it.
	verifiedNow []heldFrag
	held        [ctCacheSize]heldFrag
	heldPos     int
	cbc         [2]heldChunk

	// Scratch space reused across calls: the plaintext a ReadAt serves, the
	// leaves of the Merkle tree a chunk's verification folds, a whole CBC
	// chunk and one encrypted digest.
	out       []byte
	leaves    [][DigestSize]byte
	chunk     []byte
	digestBuf [encryptedDigestSize]byte

	costs Costs

	// trace, when non-nil, charges decrypt/verify/hash-fetch time to the
	// evaluation's phase timers. Cleared by Reset; set per evaluation.
	trace *trace.Context
}

// chunkState is the verification state of one chunk.
type chunkState struct {
	epoch     uint64
	hasDigest bool
	digest    [DigestSize]byte
	// frags is the offset of the chunk's fragment states in Reader.frags;
	// -1 until its leaves are authenticated in the epoch.
	frags int
}

// fragState is the verification state of one fragment of a chunk: its
// authenticated leaf, and whether the fragment was fetched and checked
// against it in the epoch.
type fragState struct {
	verified bool
	leaf     [DigestSize]byte
}

// heldFrag is a verified ECB-MHT fragment's ciphertext as the SOE holds
// it: the slice CiphertextRange returned for the fragment at start, a stable
// snapshot under the ChunkSource contract, so holding it copies nothing.
// The cost model counts the bytes from from on as transferred: Appendix A
// sends a fragment's suffix with the terminal's hash state of its prefix.
type heldFrag struct {
	start, from int64
	ct          []byte
}

// heldChunk is a chunk the SOE verified under a CBC scheme: its ciphertext
// and, when it was checked, the ciphertext block before the chunk.
// CBC-SHA's plaintext digest checks that block; CBC-SHAC's ciphertext
// digest does not, so under CBC-SHAC it is kept only when it is the IV or
// ends the held chunk before.
type heldChunk struct {
	chunk    int
	ct, prev []byte
}

func (h *heldChunk) holds(chunk int) bool { return h.ct != nil && h.chunk == chunk }

// ctCacheSize is the number of fragments of ciphertext the SOE retains
// beyond the current ReadAt (4 x 256 bytes = 1 KB of RAM).
const ctCacheSize = 4

// hold keeps a verified fragment for the next few reads, in place of the
// fragment held longest.
func (r *Reader) hold(h heldFrag) {
	r.held[r.heldPos] = h
	r.heldPos = (r.heldPos + 1) % ctCacheSize
}

// heldAt returns the held fragment containing ciphertext offset off.
func (r *Reader) heldAt(off int64) (heldFrag, bool) {
	for _, h := range r.verifiedNow {
		if off >= h.start && off < h.start+int64(len(h.ct)) {
			return h, true
		}
	}
	for _, h := range r.held {
		if off >= h.start && off < h.start+int64(len(h.ct)) {
			return h, true
		}
	}
	return heldFrag{}, false
}

// stateOf returns the current epoch's state of a chunk; the caller
// stores it back after changing it.
func (r *Reader) stateOf(chunk int) chunkState {
	if cs, ok := r.chunks[chunk]; ok && cs.epoch == r.epoch {
		return cs
	}
	return chunkState{epoch: r.epoch, frags: -1}
}

// blockCacheSize is the number of 8-byte plaintext blocks the SOE keeps
// (512 bytes of RAM).
const blockCacheSize = 64

func (r *Reader) cacheGet(block int64) ([]byte, bool) {
	slot, ok := r.blockSlot[block]
	if !ok {
		return nil, false
	}
	return r.blockPlain[slot][:], true
}

// cacheSlot evicts the oldest cached block and hands its slot to block; the
// caller decrypts the block into the returned bytes.
func (r *Reader) cacheSlot(block int64) []byte {
	slot := r.blockCachePos
	if old := r.blockKeys[slot]; old >= 0 {
		delete(r.blockSlot, old)
	}
	r.blockKeys[slot] = block
	r.blockSlot[block] = slot
	r.blockCachePos = (slot + 1) % blockCacheSize
	return r.blockPlain[slot][:]
}

// NewReader builds a secure reader over a chunk source (an in-memory
// *Protected document or a remote blob).
func NewReader(src ChunkSource, key Key) (*Reader, error) {
	r := &Reader{}
	if err := r.Reset(src, key); err != nil {
		return nil, err
	}
	return r, nil
}

// Reset re-arms the reader over a (possibly different) chunk source and
// key, reusing the verification and cache tables of the previous run instead
// of reallocating them. The block cipher is rebuilt only when the key
// changes. Reset makes the reader sync.Pool-friendly: a server evaluating
// many views over protected documents pays the map allocations once per
// pooled reader.
func (r *Reader) Reset(src ChunkSource, key Key) error {
	if r.block == nil || !bytes.Equal(r.key, key) {
		block, err := blockCipher(key)
		if err != nil {
			return err
		}
		r.block = block
		r.key = append(r.key[:0], key...)
		copy(r.iv[:], cbcIV(key))
	}
	r.src = src
	r.man = src.Manifest()
	r.costs = Costs{}
	r.verifiedNow = r.verifiedNow[:0]
	r.held = [ctCacheSize]heldFrag{}
	r.heldPos = 0
	r.cbc = [2]heldChunk{}
	r.trace = nil
	r.epoch++
	r.frags = r.frags[:0]
	if r.chunks == nil {
		r.chunks = map[int]chunkState{}
		r.blockSlot = map[int64]int{}
	} else {
		clear(r.blockSlot)
	}
	for i := range r.blockKeys {
		r.blockKeys[i] = -1
	}
	r.blockCachePos = 0
	return nil
}

// Costs returns the accumulated cost record.
func (r *Reader) Costs() Costs { return r.costs }

// SetTrace attaches (or detaches, with nil) the tracing context that
// decrypt, verify and hash-fetch time is charged to.
func (r *Reader) SetTrace(t *trace.Context) { r.trace = t }

// Size implements skipindex.ByteSource.
func (r *Reader) Size() int64 { return int64(r.man.PlainLen) }

// ReadAt implements io.ReaderAt over the plaintext.
func (r *Reader) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("secure: negative offset")
	}
	if off >= int64(r.man.PlainLen) {
		return 0, io.EOF
	}
	n := len(p)
	if off+int64(n) > int64(r.man.PlainLen) {
		n = int(int64(r.man.PlainLen) - off)
	}
	if n == 0 {
		return 0, nil
	}
	r.verifiedNow = r.verifiedNow[:0]
	firstBlock := off / BlockSize
	lastBlock := (off + int64(n) - 1) / BlockSize
	plain, err := r.readBlocks(firstBlock, lastBlock)
	if err != nil {
		return 0, err
	}
	copy(p[:n], plain[off-firstBlock*BlockSize:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// readBlocks returns the decrypted bytes of blocks [first, last] inclusive,
// verifying integrity according to the scheme. The bytes live in the
// reader's scratch space and are valid until the next call.
func (r *Reader) readBlocks(first, last int64) ([]byte, error) {
	start := first * BlockSize
	end := (last + 1) * BlockSize
	if end > r.man.CiphertextLen {
		end = r.man.CiphertextLen
	}
	switch r.man.Scheme {
	case SchemeECB:
		return r.readECB(start, end)
	case SchemeECBMHT:
		if err := r.verifyMHT(start, end); err != nil {
			return nil, err
		}
		return r.readECB(start, end)
	case SchemeCBCSHA:
		return r.readCBC(start, end, true)
	case SchemeCBCSHAC:
		return r.readCBC(start, end, false)
	default:
		return nil, fmt.Errorf("secure: unknown scheme %v", r.man.Scheme)
	}
}

// readECB decrypts the ciphertext range with the position-XOR ECB
// construction (random access, block granularity): under ECB-MHT from the
// fragments verifyMHT verified, under ECB from a fetch. Recently decrypted
// blocks are served from the SOE-side block cache without re-transfer.
func (r *Reader) readECB(start, end int64) ([]byte, error) {
	defer r.trace.Enter(r.trace.Enter(trace.PhaseDecrypt))
	out := r.out[:0]
	for off := start; off < end; off += BlockSize {
		blockIdx := off / BlockSize
		if plain, ok := r.cacheGet(blockIdx); ok {
			out = append(out, plain...)
			continue
		}
		var ct []byte
		if r.man.Scheme == SchemeECBMHT {
			h, err := r.heldFragment(off)
			if err != nil {
				return nil, err
			}
			ct = h.ct[off-h.start:]
			if off < h.from {
				r.costs.BytesTransferred += BlockSize
			}
		} else {
			var err error
			if ct, err = r.src.CiphertextRange(off, BlockSize); err != nil {
				return nil, err
			}
			r.costs.BytesTransferred += BlockSize
		}
		r.costs.BytesDecrypted += BlockSize
		plain := r.cacheSlot(blockIdx)
		decryptBlockAt(r.block, plain, ct, uint64(blockIdx))
		out = append(out, plain...)
	}
	r.out = out
	return out, nil
}

// verifyMHT verifies the fragments overlapping [start, end) with the Merkle
// hash tree protocol of Appendix A. On a chunk's first touch in the view the
// SOE authenticates the chunk's leaf records (chunkFrags); each fragment the
// range needs is then fetched once and checked against its leaf (fragment).
func (r *Reader) verifyMHT(start, end int64) error {
	defer r.trace.Enter(r.trace.Enter(trace.PhaseVerify))
	chunkSize := int64(r.man.ChunkSize)
	fragSize := int64(r.man.FragmentSize)
	for chunk := int(start / chunkSize); chunk <= int((end-1)/chunkSize); chunk++ {
		cStart, cEnd := r.man.ChunkBounds(chunk)
		first := int((max(start, cStart) - cStart) / fragSize)
		last := int((min(end, cEnd) - 1 - cStart) / fragSize)
		frags, err := r.chunkFrags(chunk, last-first+1)
		if err != nil {
			return err
		}
		for f := first; f <= last; f++ {
			if frags[f].verified {
				continue
			}
			h, err := r.fragment(chunk, f, start)
			if err != nil {
				return err
			}
			frags[f].verified = true
			r.verifiedNow = append(r.verifiedNow, h)
			r.costs.FragmentsVerified++
		}
	}
	return nil
}

// chunkFrags returns the fragment states of a chunk. On the chunk's first
// touch in the view it authenticates them: it takes the chunk's leaf records
// from the terminal, folds them to the Merkle root and compares the root
// with the decrypted chunk digest. One match authenticates every leaf of the
// chunk, and the SOE keeps them (8 x 20 bytes per chunk), so no later read
// of the chunk asks for its records or folds its root again. touched is the
// number of fragments the first read overlaps, which the SOE hashes itself.
func (r *Reader) chunkFrags(chunk, touched int) ([]fragState, error) {
	numFrags := r.man.NumFragments(chunk)
	if cs := r.stateOf(chunk); cs.frags >= 0 {
		return r.frags[cs.frags : cs.frags+numFrags], nil
	}
	records, err := r.fragmentHashes(chunk)
	if err != nil {
		return nil, err
	}
	if len(records) != numFrags*DigestSize {
		return nil, fmt.Errorf("%w: chunk %d: %d bytes of fragment hashes for %d fragments", ErrIntegrity, chunk, len(records), numFrags)
	}
	// The cost charged is the paper's Merkle co-path of
	// ceil(log2(#fragments)) digests, or the leaves of the fragments the SOE
	// does not hash itself when they are fewer.
	r.costs.BytesTransferred += int64(min(bitsLen(numFrags), numFrags-touched)) * DigestSize
	leaves := r.leaves[:0]
	for f := range numFrags {
		leaves = append(leaves, [DigestSize]byte(records[f*DigestSize:]))
	}
	r.leaves = leaves
	root := merkleCombine(leaves)
	r.costs.BytesHashed += int64(numFrags * DigestSize)
	digest, err := r.chunkDigest(chunk)
	if err != nil {
		return nil, err
	}
	if root != digest {
		return nil, fmt.Errorf("%w: chunk %d Merkle root mismatch", ErrIntegrity, chunk)
	}
	// The states are allocated only now, after the terminal sent a record
	// per fragment: a hostile layout costs the SOE no more memory than the
	// records it actually transfers.
	cs := r.stateOf(chunk)
	cs.frags = len(r.frags)
	for f := range numFrags {
		r.frags = append(r.frags, fragState{leaf: [DigestSize]byte(records[f*DigestSize:])})
	}
	r.chunks[chunk] = cs
	return r.frags[cs.frags:], nil
}

// fragmentHashes fetches a chunk's leaf records from the terminal, charged
// to PhaseHashFetch.
func (r *Reader) fragmentHashes(chunk int) ([]byte, error) {
	defer r.trace.Enter(r.trace.Enter(trace.PhaseHashFetch))
	return r.src.FragmentHashes(chunk)
}

// fragment fetches fragment f of a chunk whose leaves chunkFrags
// authenticated, charges what crosses the SOE boundary, checks the fragment
// against its leaf and holds it. The SOE receives the fragment from offset
// from (or its start, whichever is later) on, together with the terminal's
// intermediate hash of the prefix (Appendix A). The check still hashes the
// whole fragment (the prefix-state hand-off is modelled in the cost
// accounting), so tampering anywhere in the fragment is detected.
func (r *Reader) fragment(chunk, f int, from int64) (heldFrag, error) {
	cStart, cEnd := r.man.ChunkBounds(chunk)
	fStart := cStart + int64(f)*int64(r.man.FragmentSize)
	fEnd := min(fStart+int64(r.man.FragmentSize), cEnd)
	ct, err := r.src.CiphertextRange(fStart, fEnd-fStart)
	if err != nil {
		return heldFrag{}, err
	}
	from = max(from, fStart)
	r.costs.BytesTransferred += fEnd - from
	r.costs.BytesHashed += fEnd - from
	if from > fStart {
		// Intermediate SHA-1 state of the prefix, computed by the terminal.
		r.costs.BytesTransferred += 24
	}
	if sha1.Sum(ct) != r.frags[r.stateOf(chunk).frags+f].leaf {
		return heldFrag{}, fmt.Errorf("%w: chunk %d fragment %d does not match its leaf", ErrIntegrity, chunk, f)
	}
	h := heldFrag{start: fStart, from: from, ct: ct}
	r.hold(h)
	return h, nil
}

// heldFragment returns the held fragment containing ciphertext offset off.
// A fragment verified earlier in the view but no longer held is fetched
// again, whole.
func (r *Reader) heldFragment(off int64) (heldFrag, error) {
	if h, ok := r.heldAt(off); ok {
		return h, nil
	}
	defer r.trace.Enter(r.trace.Enter(trace.PhaseVerify))
	chunk := int(off / int64(r.man.ChunkSize))
	cStart, _ := r.man.ChunkBounds(chunk)
	return r.fragment(chunk, int((off-cStart)/int64(r.man.FragmentSize)), 0)
}

// chunkDigest returns the decrypted digest of a chunk, fetching and
// decrypting it the first time.
func (r *Reader) chunkDigest(chunk int) ([DigestSize]byte, error) {
	cs := r.stateOf(chunk)
	if cs.hasDigest {
		return cs.digest, nil
	}
	if chunk >= r.man.NumDigests {
		return [DigestSize]byte{}, fmt.Errorf("%w: missing digest for chunk %d", ErrIntegrity, chunk)
	}
	enc, err := r.src.ChunkDigest(chunk)
	if err != nil {
		return [DigestSize]byte{}, err
	}
	r.costs.BytesTransferred += int64(len(enc))
	r.costs.BytesDecrypted += int64(len(enc))
	r.costs.DigestsDecrypted++
	d, ok := decryptDigest(r.block, &r.digestBuf, enc, uint64(chunk))
	if !ok {
		return d, fmt.Errorf("%w: chunk %d digest is %d bytes", ErrIntegrity, chunk, len(enc))
	}
	cs.digest, cs.hasDigest = d, true
	r.chunks[chunk] = cs
	return d, nil
}

// readCBC serves a plaintext range under the CBC schemes, chunk by chunk
// from the held chunk.
func (r *Reader) readCBC(start, end int64, hashPlaintext bool) ([]byte, error) {
	chunkSize := int64(r.man.ChunkSize)
	out := r.out[:0]
	for chunk := int(start / chunkSize); chunk <= int((end-1)/chunkSize); chunk++ {
		moved, err := r.holdCBCChunk(chunk, hashPlaintext)
		if err != nil {
			return nil, err
		}
		out, err = r.serveCBCRange(out, start, end, moved)
		if err != nil {
			return nil, err
		}
	}
	r.out = out
	return out, nil
}

// holdCBCChunk makes chunk the latest held chunk. A chunk not held is
// fetched whole and checked against its digest: CBC-SHA hashes the
// plaintext (whole-chunk decryption required), CBC-SHAC hashes the
// ciphertext (whole-chunk transfer but partial decryption). That is the
// chunk's verification on its first touch, and on a later one it keeps the
// SOE from decrypting bytes it did not hash. It reports whether it moved
// the chunk into the SOE, so the serve step does not charge those bytes
// again.
func (r *Reader) holdCBCChunk(chunk int, hashPlaintext bool) (moved bool, err error) {
	if r.cbc[1].holds(chunk) {
		r.cbc[0], r.cbc[1] = r.cbc[1], r.cbc[0]
	}
	if r.cbc[0].holds(chunk) {
		return false, nil
	}
	defer r.trace.Enter(r.trace.Enter(trace.PhaseVerify))
	cStart, cEnd := r.man.ChunkBounds(chunk)
	chunkLen := cEnd - cStart
	r.costs.BytesTransferred += chunkLen
	digest, err := r.chunkDigest(chunk)
	if err != nil {
		return true, err
	}
	prev := r.prevBlock(chunk)
	if prev == nil && hashPlaintext {
		// CBC-SHA's digest covers the chunk's first plaintext block, which
		// depends on the block before the chunk.
		if prev, err = r.src.CiphertextRange(cStart-BlockSize, BlockSize); err != nil {
			return true, err
		}
	}
	ct, err := r.src.CiphertextRange(cStart, chunkLen)
	if err != nil {
		return true, err
	}
	var computed [DigestSize]byte
	if hashPlaintext {
		if cap(r.chunk) < len(ct) {
			r.chunk = make([]byte, len(ct))
		}
		plain := r.chunk[:len(ct)]
		decryptCBCRange(r.block, plain, ct, prev)
		r.costs.BytesDecrypted += chunkLen
		r.costs.BytesHashed += chunkLen
		computed = sha1.Sum(plain)
	} else {
		r.costs.BytesHashed += chunkLen
		computed = sha1.Sum(ct)
	}
	if computed != digest {
		return true, fmt.Errorf("%w: chunk %d digest mismatch", ErrIntegrity, chunk)
	}
	r.cbc[1], r.cbc[0] = r.cbc[0], heldChunk{chunk: chunk, ct: ct, prev: prev}
	return true, nil
}

// prevBlock returns the ciphertext block before chunk's first block when
// the SOE holds it: the IV for chunk 0, the last block of the chunk before
// when that chunk is held, and nil otherwise.
func (r *Reader) prevBlock(chunk int) []byte {
	if chunk == 0 {
		return r.iv[:]
	}
	for _, h := range r.cbc {
		if h.holds(chunk - 1) {
			return h.ct[len(h.ct)-BlockSize:]
		}
	}
	return nil
}

// serveCBCRange decrypts the blocks of [start, end) that fall in the held
// chunk, from its held ciphertext, and appends them to out.
func (r *Reader) serveCBCRange(out []byte, start, end int64, moved bool) ([]byte, error) {
	defer r.trace.Enter(r.trace.Enter(trace.PhaseDecrypt))
	h := &r.cbc[0]
	cStart, cEnd := r.man.ChunkBounds(h.chunk)
	lo := max(start, cStart)
	hi := min(end, cEnd)
	// CBC random access needs the preceding ciphertext block.
	if lo >= BlockSize && !moved {
		r.costs.BytesTransferred += BlockSize
	}
	for off := lo; off < hi; off += BlockSize {
		blockIdx := off / BlockSize
		if plain, ok := r.cacheGet(blockIdx); ok {
			out = append(out, plain...)
			continue
		}
		if !moved {
			// Revisit of the held chunk: only the requested blocks travel
			// to the SOE.
			r.costs.BytesTransferred += BlockSize
		}
		r.costs.BytesDecrypted += BlockSize
		i := off - cStart
		prev := h.prev
		if i > 0 {
			prev = h.ct[i-BlockSize : i]
		} else if prev == nil {
			// CBC-SHAC: the chunk's digest does not cover this block.
			var err error
			if prev, err = r.src.CiphertextRange(cStart-BlockSize, BlockSize); err != nil {
				return nil, err
			}
		}
		plain := r.cacheSlot(blockIdx)
		decryptCBCRange(r.block, plain, h.ct[i:i+BlockSize], prev)
		out = append(out, plain...)
	}
	return out, nil
}

// bitsLen returns ceil(log2(n)) for n >= 1.
func bitsLen(n int) int {
	bits := 0
	for v := n - 1; v > 0; v >>= 1 {
		bits++
	}
	return bits
}

// Decrypt fully decrypts a protected document (publisher-side utility and
// test helper; verifies every chunk on the way).
func Decrypt(prot *Protected, key Key) ([]byte, error) {
	r, err := NewReader(prot, key)
	if err != nil {
		return nil, err
	}
	plainLen := r.man.PlainLen
	out := make([]byte, plainLen)
	const step = 4096
	for off := 0; off < plainLen; off += step {
		n := step
		if off+n > plainLen {
			n = plainLen - off
		}
		if _, err := r.ReadAt(out[off:off+n], int64(off)); err != nil && err != io.EOF {
			return nil, err
		}
	}
	return out, nil
}
