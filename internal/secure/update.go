package secure

import (
	"bytes"
	"crypto/sha1"
	"fmt"
	"math"
	"sort"
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

// Delta describes what an Update changed, in terms the untrusted side can
// use: which chunks of the new layout carry fresh ciphertext (and fresh
// digests), and the new sizes. A remote chunk cache holding version
// FromVersion applies the delta by evicting only the dirty chunks instead of
// flushing; nothing in a Delta is secret.
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

// Marshal serializes the delta for the wire (GET /docs/{id}/delta). Like the
// container, everything in it is public.
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

// MaxDeltaLen is the length of the longest marshalled delta into a layout
// of numChunks chunks, the one that names every chunk dirty. A count outside
// what UnmarshalDelta accepts, such as one computed from a lying manifest,
// is clamped to that range, so the length never overflows.
func MaxDeltaLen(numChunks int) int64 {
	numChunks = min(max(numChunks, 0), maxDeltaChunks)
	return int64(len(deltaMagic)) + 1 + 4*8 + 2*4 + 4*int64(numChunks) + 2*8
}

// UnmarshalDelta parses a marshalled delta, validating its invariants
// (ascending dirty chunk indices inside the layout, plausible counts,
// lengths a signed integer holds, no trailing bytes). Clients decode deltas
// an untrusted store serves, so everything it accepts is exactly what
// Marshal writes.
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

// MergeDeltas folds a chain of consecutive deltas (a.ToVersion ==
// b.FromVersion, and so on) into one delta from the first version to the
// last: a chunk is dirty overall if any step dirtied it and it still exists
// in the final layout. A cache at the chain's first version applies the
// merged delta exactly as it would apply the steps one by one.
func MergeDeltas(steps []*Delta) (*Delta, error) {
	if len(steps) == 0 {
		return nil, fmt.Errorf("secure: merging an empty delta chain")
	}
	out := &Delta{
		FromVersion:      steps[0].FromVersion,
		ToVersion:        steps[len(steps)-1].ToVersion,
		NewPlainLen:      steps[len(steps)-1].NewPlainLen,
		NewCiphertextLen: steps[len(steps)-1].NewCiphertextLen,
		NumChunks:        steps[len(steps)-1].NumChunks,
	}
	dirty := map[int]struct{}{}
	for i, st := range steps {
		if i > 0 && st.FromVersion != steps[i-1].ToVersion {
			return nil, fmt.Errorf("secure: delta chain broken at step %d (%d -> %d after ...%d)",
				i, st.FromVersion, st.ToVersion, steps[i-1].ToVersion)
		}
		for _, c := range st.DirtyChunks {
			dirty[c] = struct{}{}
		}
		out.BytesReencrypted += st.BytesReencrypted
		out.BytesReused += st.BytesReused
	}
	for c := range dirty {
		if c < out.NumChunks {
			out.DirtyChunks = append(out.DirtyChunks, c)
		}
	}
	sort.Ints(out.DirtyChunks)
	return out, nil
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

	// Classify every chunk of the new layout. A chunk is clean when the old
	// layout has a chunk at the same index covering the same byte range with
	// identical padded plaintext; under CBC chaining every chunk after the
	// first dirty one is dirty too (its ciphertext depends on everything
	// before it).
	chained := old.Scheme == SchemeCBCSHA || old.Scheme == SchemeCBCSHAC
	dirty := make([]bool, nChunks)
	seenDirty := false
	for i := 0; i < nChunks; i++ {
		start, end := np.chunkBounds(i)
		isClean := !(chained && seenDirty) && i < old.NumChunks()
		if isClean {
			oStart, oEnd := old.chunkBounds(i)
			isClean = oStart == start && oEnd == end && bytes.Equal(paddedRange(oldPlain, start, end), paddedRange(newPlain, start, end))
		}
		if !isClean {
			dirty[i] = true
			seenDirty = true
			delta.DirtyChunks = append(delta.DirtyChunks, i)
			delta.BytesReencrypted += int64(end - start)
		} else {
			delta.BytesReused += int64(end - start)
		}
	}

	// Rebuild the ciphertext: clean chunks copy over, dirty chunks encrypt
	// from the new plaintext at their absolute positions (ECB) or chained
	// off the reused prefix (CBC).
	for i := 0; i < nChunks; i++ {
		start, end := np.chunkBounds(i)
		if !dirty[i] {
			copy(np.Ciphertext[start:end], old.Ciphertext[start:end])
		}
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

	// Rebuild the digest table: clean chunks keep their encrypted digest
	// (content and chunk index unchanged), dirty chunks recompute exactly as
	// Protect does.
	if old.Scheme != SchemeECB {
		np.ChunkDigests = make([][]byte, nChunks)
		for i := 0; i < nChunks; i++ {
			start, end := np.chunkBounds(i)
			if !dirty[i] {
				np.ChunkDigests[i] = old.ChunkDigests[i]
				continue
			}
			var digest [DigestSize]byte
			switch old.Scheme {
			case SchemeCBCSHA:
				digest = sha1.Sum(paddedRange(newPlain, start, end))
			case SchemeCBCSHAC:
				digest = sha1.Sum(np.Ciphertext[start:end])
			case SchemeECBMHT:
				digest = merkleRoot(np.Ciphertext[start:end], np.FragmentSize)
			}
			np.ChunkDigests[i] = encryptDigest(block, digest[:], uint64(i))
		}
	}
	return np, delta, nil
}
