package secure

import (
	"bytes"
	"crypto/sha1"
	"fmt"
	"math"
)

// In-place document updates, chunk-granular. The paper's encryption layout
// is deliberately chunked (section 6 / Appendix A) so that an edit
// re-encrypts only the chunks it touches and patches only the affected
// Merkle roots; everything else of the previous version — ciphertext bytes
// and encrypted chunk digests alike — is carried over verbatim. The
// position-XOR ECB construction makes that reuse sound: a block's ciphertext
// depends only on its plaintext and its absolute position, so a chunk whose
// padded plaintext bytes are unchanged at unchanged offsets encrypts to the
// very same bytes a from-scratch Protect would produce. Update exploits
// exactly that, which is why an updated document is byte-identical (modulo
// the version stamp) to protecting the edited plaintext from scratch — the
// property the differential update harness pins.
//
// The CBC comparison schemes chain ciphertext across the whole document, so
// for them only the chunks before the first change can be reused; every
// chunk from the first dirty one onward is re-encrypted (chained off the
// reused prefix, again reproducing the from-scratch bytes). That asymmetry
// is the paper's point: random in-place updates are a benefit of the
// position-aware ECB-MHT scheme, not of the state-of-the-art baselines.
//
// Because a clean chunk keeps its encrypted digest and a dirty one gets a
// fresh one, two versions' digest tables say which chunks changed between
// them: ChangedChunks reads that off, so a remote chunk cache needs no
// update history from the store.

// Delta describes what an Update changed, in terms the untrusted side can
// use: which chunks of the new layout carry fresh ciphertext (and fresh
// digests), and the new sizes. A store logs it in the record of each
// update and answers the update with it; nothing in a Delta is secret.
type Delta struct {
	// FromVersion and ToVersion bracket the update.
	FromVersion uint64
	ToVersion   uint64
	// NewPlainLen and NewCiphertextLen describe the new layout.
	NewPlainLen      int
	NewCiphertextLen int64
	// NumChunks is the chunk count of the new layout.
	NumChunks int
	// DirtyChunks lists, in ascending order, the chunk indices (new layout)
	// whose ciphertext differs from the previous version. Chunks beyond the
	// previous layout's chunk count are always dirty; chunks the new layout
	// dropped are implied by NumChunks.
	DirtyChunks []int
	// BytesReencrypted is the ciphertext volume of the dirty chunks;
	// BytesReused is the volume copied verbatim from the previous version.
	BytesReencrypted int64
	BytesReused      int64
}

// deltaMagic identifies a marshalled Delta.
var deltaMagic = []byte("XDLT")

const deltaVersion = 1

// Marshal serializes the delta: the form a store's update record carries.
// Like the container, everything in it is public.
func (d *Delta) Marshal() []byte {
	out := make([]byte, 0, 64+4*len(d.DirtyChunks))
	out = append(out, deltaMagic...)
	out = append(out, deltaVersion)
	out = appendUint64(out, d.FromVersion)
	out = appendUint64(out, d.ToVersion)
	out = appendUint64(out, uint64(d.NewPlainLen))
	out = appendUint64(out, uint64(d.NewCiphertextLen))
	out = appendUint32(out, uint32(d.NumChunks))
	out = appendUint32(out, uint32(len(d.DirtyChunks)))
	for _, c := range d.DirtyChunks {
		out = appendUint32(out, uint32(c))
	}
	out = appendUint64(out, uint64(d.BytesReencrypted))
	out = appendUint64(out, uint64(d.BytesReused))
	return out
}

// maxDeltaChunks is the largest chunk count UnmarshalDelta accepts.
const maxDeltaChunks = 1 << 26

// UnmarshalDelta parses a marshalled delta, validating its invariants
// (ascending dirty chunk indices inside the layout, plausible counts,
// lengths a signed integer holds, no trailing bytes). A store's recovery
// decodes the deltas of the update records it replays from disk, so
// everything it accepts is exactly what Marshal writes.
func UnmarshalDelta(data []byte) (*Delta, error) {
	r := &byteReader{data: data}
	m, err := r.take(len(deltaMagic))
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(m, deltaMagic) {
		return nil, fmt.Errorf("secure: not a delta (bad magic)")
	}
	v, err := r.byte()
	if err != nil {
		return nil, err
	}
	if v != deltaVersion {
		return nil, fmt.Errorf("secure: unsupported delta version %d", v)
	}
	d := &Delta{}
	if d.FromVersion, err = r.uint64(); err != nil {
		return nil, err
	}
	if d.ToVersion, err = r.uint64(); err != nil {
		return nil, err
	}
	if d.ToVersion <= d.FromVersion {
		return nil, fmt.Errorf("secure: delta versions not increasing (%d -> %d)", d.FromVersion, d.ToVersion)
	}
	plainLen, err := r.uint64()
	if err != nil {
		return nil, err
	}
	ctLen, err := r.uint64()
	if err != nil {
		return nil, err
	}
	if ctLen > math.MaxInt64 || plainLen > math.MaxInt {
		return nil, fmt.Errorf("secure: delta lengths %d and %d out of range", plainLen, ctLen)
	}
	if plainLen > ctLen {
		return nil, fmt.Errorf("secure: delta plaintext length %d exceeds ciphertext length %d", plainLen, ctLen)
	}
	d.NewPlainLen = int(plainLen)
	d.NewCiphertextLen = int64(ctLen)
	numChunks, err := r.uint32()
	if err != nil {
		return nil, err
	}
	if numChunks > maxDeltaChunks {
		return nil, fmt.Errorf("secure: implausible chunk count %d", numChunks)
	}
	d.NumChunks = int(numChunks)
	nDirty, err := r.uint32()
	if err != nil {
		return nil, err
	}
	if nDirty > numChunks {
		return nil, fmt.Errorf("secure: %d dirty chunks in a %d-chunk layout", nDirty, numChunks)
	}
	prev := -1
	for i := uint32(0); i < nDirty; i++ {
		c, err := r.uint32()
		if err != nil {
			return nil, err
		}
		if int(c) <= prev || c >= numChunks {
			return nil, fmt.Errorf("secure: dirty chunk %d out of order or out of range", c)
		}
		prev = int(c)
		d.DirtyChunks = append(d.DirtyChunks, int(c))
	}
	reenc, err := r.uint64()
	if err != nil {
		return nil, err
	}
	reused, err := r.uint64()
	if err != nil {
		return nil, err
	}
	if reenc > math.MaxInt64 || reused > math.MaxInt64 {
		return nil, fmt.Errorf("secure: delta byte counts %d and %d out of range", reenc, reused)
	}
	if r.pos != len(data) {
		return nil, fmt.Errorf("secure: %d trailing bytes after the delta", len(data)-r.pos)
	}
	d.BytesReencrypted = int64(reenc)
	d.BytesReused = int64(reused)
	return d, nil
}

// dirtyChunks returns, in ascending order, the chunks of an n-chunk layout
// under scheme that are dirty: those whose own content changed
// (unchanged(i) is false) and, under the chained CBC schemes, every chunk
// after the first dirty one, whose ciphertext depends on everything before
// it. Update and ChangedChunks both classify through here.
func dirtyChunks(scheme Scheme, n int, unchanged func(i int) bool) []int {
	chained := scheme == SchemeCBCSHA || scheme == SchemeCBCSHAC
	var dirty []int
	for i := 0; i < n; i++ {
		if (chained && len(dirty) > 0) || !unchanged(i) {
			dirty = append(dirty, i)
		}
	}
	return dirty
}

// ChangedChunks returns, in ascending order, the chunks of version cur that
// a chunk cache holding version old must drop: those whose ciphertext may
// differ between the two, read off their layouts and encrypted digest
// tables. A chunk is clean when both layouts share the scheme, ChunkSize and
// FragmentSize, the chunk has the same bounds in both, its encrypted digest
// is byte-identical in both tables, and (the chained rule of dirtyChunks)
// no earlier chunk is dirty. SchemeECB has no digests, so every chunk is
// dirty. Under the other schemes a digest covers its chunk's content and is
// bound to its index, so for one Update the result is the Delta's
// DirtyChunks, and across several it names no more than their union.
//
// The tables come from an untrusted store and nothing here verifies them. A
// cache may still keep a clean chunk's pages: the reader checks every byte
// against cur's table before it decrypts it, so a wrong "clean" ends as
// ErrIntegrity, never as altered plaintext.
func ChangedChunks(old, cur Manifest, oldDigests, curDigests [][]byte) []int {
	sameLayout := old.Scheme == cur.Scheme && old.ChunkSize == cur.ChunkSize && old.FragmentSize == cur.FragmentSize
	return dirtyChunks(cur.Scheme, cur.NumChunks(), func(i int) bool {
		if !sameLayout || i >= len(oldDigests) || i >= len(curDigests) {
			return false
		}
		oStart, oEnd := old.ChunkBounds(i)
		start, end := cur.ChunkBounds(i)
		return oStart == start && oEnd == end && bytes.Equal(oldDigests[i], curDigests[i])
	})
}

// Update re-protects an edited document against its previous protected form,
// re-encrypting only the chunks whose padded plaintext changed and reusing
// everything else — ciphertext and encrypted digests — verbatim. oldPlain
// must be the exact plaintext old was protected from (the publisher caches
// it; Decrypt recovers it); newPlain is the edited plaintext. The returned
// document is what Protect(newPlain) would build, byte for byte, except for
// its Version (old.Version+1 instead of 1); old is never modified, so
// readers holding it keep a consistent snapshot.
func Update(old *Protected, oldPlain, newPlain []byte, key Key) (*Protected, *Delta, error) {
	if old == nil {
		return nil, nil, fmt.Errorf("secure: updating a nil document")
	}
	if len(oldPlain) != old.PlainLen {
		return nil, nil, fmt.Errorf("secure: stale plaintext: %d bytes, protected document says %d", len(oldPlain), old.PlainLen)
	}
	if len(newPlain) == 0 {
		return nil, nil, fmt.Errorf("secure: cannot update to an empty document")
	}
	block, err := blockCipher(key)
	if err != nil {
		return nil, nil, err
	}
	np := &Protected{
		Scheme:       old.Scheme,
		PlainLen:     len(newPlain),
		ChunkSize:    old.ChunkSize,
		FragmentSize: old.FragmentSize,
		Version:      old.docVersion() + 1,
		Ciphertext:   make([]byte, paddedLen(len(newPlain))),
	}
	nChunks := np.NumChunks()
	delta := &Delta{
		FromVersion:      old.docVersion(),
		ToVersion:        np.Version,
		NewPlainLen:      np.PlainLen,
		NewCiphertextLen: int64(len(np.Ciphertext)),
		NumChunks:        nChunks,
	}

	// Classify every chunk of the new layout. A chunk's own content is
	// unchanged when the old layout has a chunk at the same index covering
	// the same byte range with identical padded plaintext.
	delta.DirtyChunks = dirtyChunks(old.Scheme, nChunks, func(i int) bool {
		if i >= old.NumChunks() {
			return false
		}
		start, end := np.chunkBounds(i)
		oStart, oEnd := old.chunkBounds(i)
		return oStart == start && oEnd == end && bytes.Equal(paddedRange(oldPlain, start, end), paddedRange(newPlain, start, end))
	})
	dirty := make([]bool, nChunks)
	for _, i := range delta.DirtyChunks {
		dirty[i] = true
	}

	// Rebuild the ciphertext: clean chunks copy over, dirty chunks encrypt
	// from the new plaintext at their absolute positions (ECB) or chained
	// off the reused prefix (CBC).
	for i := 0; i < nChunks; i++ {
		start, end := np.chunkBounds(i)
		if dirty[i] {
			delta.BytesReencrypted += int64(end - start)
			continue
		}
		delta.BytesReused += int64(end - start)
		copy(np.Ciphertext[start:end], old.Ciphertext[start:end])
	}
	switch old.Scheme {
	case SchemeECB, SchemeECBMHT:
		for i := 0; i < nChunks; i++ {
			if !dirty[i] {
				continue
			}
			start, end := np.chunkBounds(i)
			encryptPositionECB(block, np.Ciphertext[start:end], paddedRange(newPlain, start, end), uint64(start)/BlockSize)
		}
	case SchemeCBCSHA, SchemeCBCSHAC:
		if len(delta.DirtyChunks) > 0 {
			start, _ := np.chunkBounds(delta.DirtyChunks[0])
			prev := cbcIV(key)
			if start > 0 {
				prev = np.Ciphertext[start-BlockSize : start]
			}
			encryptCBCFrom(block, np.Ciphertext[start:], newPlain[start:], prev)
		}
	default:
		return nil, nil, fmt.Errorf("secure: unknown scheme %v", old.Scheme)
	}

	// Rebuild the digest table and the leaf table: clean chunks keep their
	// encrypted digest and their leaves (content and chunk index
	// unchanged), dirty chunks recompute exactly as Protect does.
	if old.Scheme != SchemeECB {
		np.ChunkDigests = make([][]byte, nChunks)
		if old.Scheme == SchemeECBMHT {
			np.leaves = make([]byte, 0, np.leafTableLen())
		}
		for i := 0; i < nChunks; i++ {
			start, end := np.chunkBounds(i)
			if !dirty[i] {
				np.ChunkDigests[i] = old.ChunkDigests[i]
				if old.Scheme == SchemeECBMHT {
					np.leaves = append(np.leaves, old.chunkLeaves(i)...)
				}
				continue
			}
			var digest [DigestSize]byte
			switch old.Scheme {
			case SchemeCBCSHA:
				digest = sha1.Sum(paddedRange(newPlain, start, end))
			case SchemeCBCSHAC:
				digest = sha1.Sum(np.Ciphertext[start:end])
			case SchemeECBMHT:
				np.leaves = appendLeaves(np.leaves, np.Ciphertext[start:end], np.FragmentSize)
				digest = merkleRoot(np.chunkLeaves(i))
			}
			np.ChunkDigests[i] = encryptDigest(block, digest[:], uint64(i))
		}
	}
	return np, delta, nil
}
