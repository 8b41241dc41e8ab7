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
	// ChunksVerified counts chunk-level verifications.
	ChunksVerified int64
	// FragmentsVerified counts fragment-level verifications (ECB-MHT).
	FragmentsVerified int64
}

// Add accumulates another cost record.
func (c *Costs) Add(o Costs) {
	c.BytesTransferred += o.BytesTransferred
	c.BytesDecrypted += o.BytesDecrypted
	c.BytesHashed += o.BytesHashed
	c.DigestsDecrypted += o.DigestsDecrypted
	c.ChunksVerified += o.ChunksVerified
	c.FragmentsVerified += o.FragmentsVerified
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

	// verification state kept in the SOE: which chunks (CBC schemes) and
	// fragments (ECB-MHT) are verified, the decrypted chunk digests and the
	// fragment leaf hashes of the chunks being worked on (the SOE keeps the
	// leaves of the current chunk, 8 x 20 bytes, well within its RAM budget,
	// so sibling hashes are transferred at most once per chunk). A chunk's
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

	// justFetched lists the ciphertext block ranges that the current ReadAt
	// call already pulled into the SOE for integrity verification, so the
	// decryption step of the same call does not charge their transfer a
	// second time (the SOE hashes and decrypts the incoming stream in one
	// pass).
	justFetched []blockRange

	// ctCache keeps the ciphertext byte ranges of the last few fragments
	// transferred for Merkle verification (ECB-MHT): subsequent reads inside
	// those ranges decrypt from the copy already inside the SOE instead of
	// transferring the bytes again. Keyed by fragment index; bounded by
	// ctCacheSize.
	ctCache     map[int64][2]int64
	ctCacheKeys []int64
	ctCachePos  int

	// Scratch space reused across calls: the plaintext a ReadAt serves, the
	// fragments one verification hashes and their leaves, the leaves of the
	// Merkle tree it folds, a whole CBC chunk and one encrypted digest.
	out       []byte
	newFrags  []int
	newLeaves [][DigestSize]byte
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
	verified  bool
	hasDigest bool
	digest    [DigestSize]byte
	// frags is the offset of the chunk's fragment states in Reader.frags;
	// -1 until its first Merkle verification in the epoch.
	frags int
}

// fragState is the verification state of one fragment of a chunk.
type fragState struct {
	verified bool
	hasLeaf  bool
	leaf     [DigestSize]byte
}

// blockRange is the half-open block index range [from, to).
type blockRange struct{ from, to int64 }

// ctCacheSize is the number of fragments of ciphertext the SOE retains
// (4 x 256 bytes = 1 KB of RAM).
const ctCacheSize = 4

func (r *Reader) ctCachePut(frag, from, to int64) {
	if r.ctCacheKeys == nil {
		r.ctCacheKeys = make([]int64, ctCacheSize)
		for i := range r.ctCacheKeys {
			r.ctCacheKeys[i] = -1
		}
	}
	if old := r.ctCacheKeys[r.ctCachePos]; old >= 0 {
		delete(r.ctCache, old)
	}
	r.ctCacheKeys[r.ctCachePos] = frag
	r.ctCachePos = (r.ctCachePos + 1) % ctCacheSize
	r.ctCache[frag] = [2]int64{from, to}
}

// inCtCache reports whether the ciphertext byte at the given offset is still
// held by the SOE from a previous fragment verification.
func (r *Reader) inCtCache(off int64) bool {
	if r.man.FragmentSize == 0 {
		return false
	}
	rng, ok := r.ctCache[off/int64(r.man.FragmentSize)]
	return ok && off >= rng[0] && off < rng[1]
}

// stateOf returns the current epoch's state of a chunk; the caller
// stores it back after changing it.
func (r *Reader) stateOf(chunk int) chunkState {
	if cs, ok := r.chunks[chunk]; ok && cs.epoch == r.epoch {
		return cs
	}
	return chunkState{epoch: r.epoch, frags: -1}
}

// fetched reports whether the current ReadAt call already transferred the
// ciphertext of a block.
func (r *Reader) fetched(block int64) bool {
	for _, br := range r.justFetched {
		if block >= br.from && block < br.to {
			return true
		}
	}
	return false
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
	r.justFetched = r.justFetched[:0]
	r.trace = nil
	r.epoch++
	r.frags = r.frags[:0]
	if r.chunks == nil {
		r.chunks = map[int]chunkState{}
		r.blockSlot = map[int64]int{}
		r.ctCache = map[int64][2]int64{}
	} else {
		clear(r.blockSlot)
		clear(r.ctCache)
	}
	for i := range r.blockKeys {
		r.blockKeys[i] = -1
	}
	r.blockCachePos = 0
	for i := range r.ctCacheKeys {
		r.ctCacheKeys[i] = -1
	}
	r.ctCachePos = 0
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
	r.justFetched = r.justFetched[:0]
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

// readECB fetches and decrypts the ciphertext range with the position-XOR
// ECB construction (random access, block granularity). Recently decrypted
// blocks are served from the SOE-side block cache without re-transfer.
func (r *Reader) readECB(start, end int64) ([]byte, error) {
	r.trace.Begin(trace.PhaseDecrypt)
	defer r.trace.End()
	out := r.out[:0]
	for off := start; off < end; off += BlockSize {
		blockIdx := off / BlockSize
		if plain, ok := r.cacheGet(blockIdx); ok {
			out = append(out, plain...)
			continue
		}
		ct, err := r.src.CiphertextRange(off, BlockSize)
		if err != nil {
			return nil, err
		}
		if !r.fetched(blockIdx) && !r.inCtCache(off) {
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
// hash tree protocol of Appendix A: the SOE hashes the fragments it fetches,
// the terminal provides the hashes of the other fragments, and the SOE
// recomputes and compares the (decrypted) chunk digest.
func (r *Reader) verifyMHT(start, end int64) error {
	r.trace.Begin(trace.PhaseVerify)
	defer r.trace.End()
	chunkSize := int64(r.man.ChunkSize)
	fragSize := int64(r.man.FragmentSize)
	for chunk := int(start / chunkSize); chunk <= int((end-1)/chunkSize); chunk++ {
		cStart, cEnd := r.man.ChunkBounds(chunk)
		numFrags := r.man.NumFragments(chunk)
		// The chunk's fragment states exist once it has been through a
		// verification in this epoch; until then no fragment is verified.
		var frags []fragState
		if cs := r.stateOf(chunk); cs.frags >= 0 {
			frags = r.frags[cs.frags : cs.frags+numFrags]
		}
		// Fragments of this chunk overlapped by the requested range and not
		// yet verified.
		lo := max(start, cStart)
		hi := min(end, cEnd)
		newFrags := r.newFrags[:0]
		for f := int((lo - cStart) / fragSize); f <= int((hi-1-cStart)/fragSize); f++ {
			if frags == nil || !frags[f].verified {
				newFrags = append(newFrags, f)
			}
		}
		r.newFrags = newFrags
		if len(newFrags) == 0 {
			continue
		}
		newLeaves := r.newLeaves[:0]
		// The SOE receives each new fragment from the position of interest
		// to the end of the fragment, together with the terminal's
		// intermediate hash of the prefix (Appendix A), hashes it and keeps
		// the leaf. The verification below still hashes the whole fragment
		// (the prefix-state hand-off is modelled in the cost accounting);
		// tampering anywhere in the fragment therefore remains detected.
		for _, f := range newFrags {
			fStart := cStart + int64(f)*fragSize
			fEnd := fStart + fragSize
			if fEnd > cEnd {
				fEnd = cEnd
			}
			frag, err := r.src.CiphertextRange(fStart, fEnd-fStart)
			if err != nil {
				return err
			}
			fetchFrom := fStart
			if start > fetchFrom && start < fEnd {
				fetchFrom = start
			}
			suffix := fEnd - fetchFrom
			r.costs.BytesTransferred += suffix
			r.costs.BytesHashed += suffix
			if fetchFrom > fStart {
				// Intermediate SHA-1 state of the prefix, computed by the
				// terminal.
				r.costs.BytesTransferred += 24
			}
			r.justFetched = append(r.justFetched, blockRange{fetchFrom / BlockSize, fEnd / BlockSize})
			// The transferred ciphertext stays in the SOE for the next few
			// reads so it is not paid for twice.
			r.ctCachePut(cStart/fragSize+int64(f), fetchFrom, fEnd)
			newLeaves = append(newLeaves, sha1.Sum(frag))
			r.costs.FragmentsVerified++
		}
		r.newLeaves = newLeaves
		// The terminal provides the hashes needed to recompute the root: a
		// Merkle co-path of ceil(log2(#fragments)) digests per verification
		// (the flat implementation below exchanges the missing leaves, but
		// the cost charged is the logarithmic co-path of the paper; the leaf
		// cache makes later verifications of the same chunk cheaper).
		r.trace.Begin(trace.PhaseHashFetch)
		all, err := r.src.FragmentHashes(chunk)
		r.trace.End()
		if err != nil {
			return err
		}
		if len(all) != numFrags*DigestSize {
			return fmt.Errorf("%w: chunk %d: %d bytes of fragment hashes for %d fragments", ErrIntegrity, chunk, len(all), numFrags)
		}
		// The states are allocated only now, after the terminal sent a hash
		// per fragment: a hostile layout costs the SOE no more memory than
		// the hashes it actually transfers.
		if frags == nil {
			cs := r.stateOf(chunk)
			cs.frags = len(r.frags)
			r.frags = append(r.frags, make([]fragState, numFrags)...)
			r.chunks[chunk] = cs
			frags = r.frags[cs.frags : cs.frags+numFrags]
		}
		for i, f := range newFrags {
			frags[f].leaf, frags[f].hasLeaf = newLeaves[i], true
		}
		missing := 0
		for f := range frags {
			if !frags[f].hasLeaf {
				missing++
			}
		}
		coPath := int64(bitsLen(numFrags))
		if int64(missing) < coPath {
			coPath = int64(missing)
		}
		r.costs.BytesTransferred += coPath * DigestSize
		// Recompute the root from the leaves in fragment order.
		leaves := r.leaves[:0]
		for f := range frags {
			if !frags[f].hasLeaf {
				frags[f].leaf, frags[f].hasLeaf = [DigestSize]byte(all[f*DigestSize:]), true
			}
			leaves = append(leaves, frags[f].leaf)
		}
		r.leaves = leaves
		root := merkleCombine(leaves)
		r.costs.BytesHashed += int64(numFrags * DigestSize)
		digest, err := r.chunkDigest(chunk)
		if err != nil {
			return err
		}
		if root != digest {
			return fmt.Errorf("%w: chunk %d Merkle root mismatch", ErrIntegrity, chunk)
		}
		for _, f := range newFrags {
			frags[f].verified = true
		}
		r.markVerified(chunk)
	}
	return nil
}

// markVerified records a chunk's first verification.
func (r *Reader) markVerified(chunk int) {
	if cs := r.stateOf(chunk); !cs.verified {
		cs.verified = true
		r.chunks[chunk] = cs
		r.costs.ChunksVerified++
	}
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

// readCBC serves a plaintext range under the CBC schemes. Chunks touched for
// the first time are verified: CBC-SHA hashes the plaintext (whole-chunk
// decryption required), CBC-SHAC hashes the ciphertext (whole-chunk transfer
// but partial decryption).
func (r *Reader) readCBC(start, end int64, hashPlaintext bool) ([]byte, error) {
	chunkSize := int64(r.man.ChunkSize)
	out := r.out[:0]
	for chunk := int(start / chunkSize); chunk <= int((end-1)/chunkSize); chunk++ {
		cStart, cEnd := r.man.ChunkBounds(chunk)
		wholeChunkTransferred, err := r.verifyCBCChunk(chunk, hashPlaintext)
		if err != nil {
			return nil, err
		}
		out, err = r.serveCBCRange(out, cStart, cEnd, start, end, wholeChunkTransferred)
		if err != nil {
			return nil, err
		}
	}
	r.out = out
	return out, nil
}

// verifyCBCChunk verifies a chunk on first touch: CBC-SHA hashes the
// plaintext (whole-chunk decryption required), CBC-SHAC hashes the
// ciphertext (whole-chunk transfer but partial decryption). It reports
// whether this call transferred the whole chunk into the SOE (so the serve
// step does not charge those bytes again).
func (r *Reader) verifyCBCChunk(chunk int, hashPlaintext bool) (wholeChunkTransferred bool, err error) {
	if r.stateOf(chunk).verified {
		return false, nil
	}
	r.trace.Begin(trace.PhaseVerify)
	defer r.trace.End()
	cStart, cEnd := r.man.ChunkBounds(chunk)
	chunkLen := cEnd - cStart
	r.costs.BytesTransferred += chunkLen
	digest, err := r.chunkDigest(chunk)
	if err != nil {
		return true, err
	}
	var computed [DigestSize]byte
	if hashPlaintext {
		plain, err := r.decryptCBCChunk(chunk)
		if err != nil {
			return true, err
		}
		r.costs.BytesDecrypted += chunkLen
		r.costs.BytesHashed += int64(len(plain))
		computed = sha1.Sum(plain)
	} else {
		chunkBytes, err := r.src.CiphertextRange(cStart, chunkLen)
		if err != nil {
			return true, err
		}
		r.costs.BytesHashed += chunkLen
		computed = sha1.Sum(chunkBytes)
	}
	if computed != digest {
		return true, fmt.Errorf("%w: chunk %d digest mismatch", ErrIntegrity, chunk)
	}
	r.markVerified(chunk)
	return true, nil
}

// serveCBCRange decrypts and appends the blocks of [start, end) that fall in
// chunk [cStart, cEnd) to out.
func (r *Reader) serveCBCRange(out []byte, cStart, cEnd, start, end int64, wholeChunkTransferred bool) ([]byte, error) {
	r.trace.Begin(trace.PhaseDecrypt)
	defer r.trace.End()
	lo := max(start, cStart)
	hi := min(end, cEnd)
	// CBC random access needs the preceding ciphertext block.
	firstBlock := lo / BlockSize
	prev, err := r.prevCBCBlock(firstBlock)
	if err != nil {
		return nil, err
	}
	if firstBlock > 0 && !wholeChunkTransferred {
		r.costs.BytesTransferred += BlockSize
	}
	for off := lo; off < hi; off += BlockSize {
		blockIdx := off / BlockSize
		if plain, ok := r.cacheGet(blockIdx); ok {
			out = append(out, plain...)
			continue
		}
		if !wholeChunkTransferred {
			// Revisit of an already verified chunk: only the requested
			// blocks travel to the SOE.
			r.costs.BytesTransferred += BlockSize
		}
		r.costs.BytesDecrypted += BlockSize
		prevBlock := prev
		if off != lo {
			if prevBlock, err = r.src.CiphertextRange(off-BlockSize, BlockSize); err != nil {
				return nil, err
			}
		}
		ct, err := r.src.CiphertextRange(off, BlockSize)
		if err != nil {
			return nil, err
		}
		plain := r.cacheSlot(blockIdx)
		decryptCBCRange(r.block, plain, ct, prevBlock)
		out = append(out, plain...)
	}
	return out, nil
}

// prevCBCBlock returns the ciphertext block preceding a block, or the IV
// for the document's first block.
func (r *Reader) prevCBCBlock(block int64) ([]byte, error) {
	if block == 0 {
		return r.iv[:], nil
	}
	return r.src.CiphertextRange((block-1)*BlockSize, BlockSize)
}

// bitsLen returns ceil(log2(n)) for n >= 1.
func bitsLen(n int) int {
	bits := 0
	for v := n - 1; v > 0; v >>= 1 {
		bits++
	}
	return bits
}

// decryptCBCChunk decrypts a whole chunk (CBC-SHA verification path) into
// the reader's chunk scratch.
func (r *Reader) decryptCBCChunk(chunk int) ([]byte, error) {
	cStart, cEnd := r.man.ChunkBounds(chunk)
	prev, err := r.prevCBCBlock(cStart / BlockSize)
	if err != nil {
		return nil, err
	}
	ct, err := r.src.CiphertextRange(cStart, cEnd-cStart)
	if err != nil {
		return nil, err
	}
	if cap(r.chunk) < len(ct) {
		r.chunk = make([]byte, len(ct))
	}
	plain := r.chunk[:len(ct)]
	decryptCBCRange(r.block, plain, ct, prev)
	return plain, nil
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
