package secure

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// fuzzSeedContainers builds the canonical seed inputs of FuzzManifest: valid
// container prefixes for every scheme (v2 and a hand-built v1), their
// truncations, and structured junk. The committed files under
// testdata/fuzz/FuzzManifest hold the same inputs, so the corpus survives
// format changes by regenerating from here.
func fuzzSeedContainers() [][]byte {
	var seeds [][]byte
	key := DeriveKey("fuzz-manifest")
	plain := make([]byte, 3*DefaultChunkSize+123)
	for i := range plain {
		plain[i] = byte(i * 31)
	}
	for _, scheme := range Schemes() {
		prot, err := Protect(plain, key, ProtectOptions{Scheme: scheme})
		if err != nil {
			continue
		}
		blob := prot.Marshal()
		prefix := blob[:prot.CiphertextOffset()]
		seeds = append(seeds, append([]byte(nil), prefix...))
		seeds = append(seeds, append([]byte(nil), prefix[:len(prefix)/2]...))
		seeds = append(seeds, append([]byte(nil), blob...))
	}
	// A v1 container prefix (no docVersion field).
	prot, err := Protect(plain, key, ProtectOptions{Scheme: SchemeECBMHT})
	if err == nil {
		blob := prot.Marshal()
		v1 := append([]byte(nil), blob[:4]...)
		v1 = append(v1, containerVersion1)
		v1 = append(v1, blob[5:22]...)
		v1 = append(v1, blob[30:]...)
		seeds = append(seeds, v1[:int(prot.CiphertextOffset())-8])
	}
	// The ECB prefix relabelled ECB-MHT: an integrity scheme without digests.
	relabelled := append([]byte(nil), seeds[0]...)
	relabelled[5] = byte(SchemeECBMHT)
	seeds = append(seeds,
		[]byte{},
		[]byte("XSEC"),
		[]byte("NOPE garbage"),
		append([]byte("XSEC\x02\x03"), bytes.Repeat([]byte{0xff}, 40)...),
		append([]byte("XSEC\x01\x00"), bytes.Repeat([]byte{0x00}, 40)...),
		relabelled,
	)
	return seeds
}

// FuzzManifest drives UnmarshalManifest over arbitrary bytes. The manifest
// parser is the first thing a remote SOE client runs on data an untrusted
// blob server controls, so it must never panic and every manifest it accepts
// must be internally consistent: sizes non-negative, the plaintext inside
// the ciphertext, the digest table inside the declared prefix with one
// digest per chunk (none for ECB), and the chunk/fragment arithmetic
// (NumChunks, ChunkBounds, NumFragments) safe to evaluate over the whole
// layout.
func FuzzManifest(f *testing.F) {
	for _, seed := range fuzzSeedContainers() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		man, digests, ctOff, err := UnmarshalManifest(data)
		if err != nil {
			return
		}
		if ctOff <= 0 || ctOff > int64(len(data)) {
			t.Fatalf("accepted manifest with ciphertext offset %d over %d prefix bytes", ctOff, len(data))
		}
		if man.PlainLen < 0 || int64(man.PlainLen) > man.CiphertextLen {
			t.Fatalf("accepted manifest with plaintext %d over ciphertext %d", man.PlainLen, man.CiphertextLen)
		}
		if man.NumDigests != len(digests) {
			t.Fatalf("manifest says %d digests, parser returned %d", man.NumDigests, len(digests))
		}
		wantDigests := man.NumChunks()
		if man.Scheme == SchemeECB {
			wantDigests = 0
		}
		if man.NumDigests != wantDigests {
			t.Fatalf("accepted %d digests for %d chunks under %v", man.NumDigests, man.NumChunks(), man.Scheme)
		}
		if man.Version == 0 {
			t.Fatal("accepted manifest with document version 0")
		}
		n := man.NumChunks()
		if n < 0 {
			t.Fatalf("negative chunk count %d", n)
		}
		// The layout arithmetic must stay in bounds over every chunk a
		// reader could touch (capped so a huge declared layout cannot turn
		// the fuzz body into a long loop).
		for i := 0; i < n && i < 4096; i++ {
			start, end := man.ChunkBounds(i)
			if start < 0 || end < start || end > man.CiphertextLen {
				t.Fatalf("chunk %d bounds [%d, %d) outside ciphertext %d", i, start, end, man.CiphertextLen)
			}
			if frags := man.NumFragments(i); frags < 0 {
				t.Fatalf("chunk %d has %d fragments", i, frags)
			}
		}
		// An accepted prefix must round-trip through the container marshal:
		// rebuilding a document with the parsed layout and unmarshalling it
		// again yields the same manifest. (Capped: a large declared
		// ciphertext is legitimate, but allocating it here would only slow
		// the fuzzer down.)
		if man.CiphertextLen > 1<<20 {
			return
		}
		rebuilt := &Protected{
			Scheme:       man.Scheme,
			ChunkSize:    man.ChunkSize,
			FragmentSize: man.FragmentSize,
			PlainLen:     man.PlainLen,
			Version:      man.Version,
			ChunkDigests: digests,
			Ciphertext:   make([]byte, man.CiphertextLen),
		}
		man2, digests2, _, err := UnmarshalManifest(rebuilt.Marshal())
		if err != nil {
			t.Fatalf("re-marshalled accepted manifest no longer parses: %v", err)
		}
		if man2 != man || len(digests2) != len(digests) {
			t.Fatalf("manifest round trip mismatch: %+v vs %+v", man2, man)
		}
	})
}

// fuzzSeedDeltas builds the canonical seed inputs of FuzzDelta: deltas from
// Update for every scheme and edit shape, the merge of an update chain,
// their truncations, and the out-of-range and trailing-byte inputs
// UnmarshalDelta once accepted. The committed files under
// testdata/fuzz/FuzzDelta hold the same inputs.
func fuzzSeedDeltas() [][]byte {
	var seeds [][]byte
	key := DeriveKey("fuzz-delta")
	plain := samplePlaintext(4*DefaultChunkSize + 77)
	for _, scheme := range Schemes() {
		prot, err := Protect(plain, key, ProtectOptions{Scheme: scheme})
		if err != nil {
			continue
		}
		var chain []*Delta
		cur := plain
		for _, kind := range []string{"same-length", "insert", "truncate"} {
			next := mutate(cur, kind)
			updated, delta, err := Update(prot, cur, next, key)
			if err != nil {
				break
			}
			seeds = append(seeds, delta.Marshal())
			chain = append(chain, delta)
			prot, cur = updated, next
		}
		if merged, err := MergeDeltas(chain); err == nil {
			wire := merged.Marshal()
			seeds = append(seeds, wire, wire[:len(wire)/2])
		}
	}
	valid := seeds[0]
	maxed := func(off int) []byte {
		out := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint64(out[off:], math.MaxUint64)
		return out
	}
	seeds = append(seeds,
		maxed(29),            // ciphertext length 2^64-1
		maxed(len(valid)-16), // bytes re-encrypted 2^64-1
		maxed(len(valid)-8),  // bytes reused 2^64-1
		append(append([]byte(nil), valid...), 1, 2, 3),
		[]byte{},
		[]byte("XDLT"),
	)
	return seeds
}

// FuzzDelta drives UnmarshalDelta over arbitrary bytes. A remote SOE client
// decodes the deltas an untrusted store serves (GET /docs/{id}/delta), so
// the decoder must never panic, and every delta it accepts must be exactly
// what Marshal writes: non-negative lengths, dirty chunks ascending and
// inside the layout, and no byte left over.
func FuzzDelta(f *testing.F) {
	for _, seed := range fuzzSeedDeltas() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := UnmarshalDelta(data)
		if err != nil {
			return
		}
		if !bytes.Equal(d.Marshal(), data) {
			t.Fatalf("accepted delta %+v does not marshal back to its input", d)
		}
		if d.NewPlainLen < 0 || d.NewCiphertextLen < 0 || d.NumChunks < 0 ||
			d.BytesReencrypted < 0 || d.BytesReused < 0 {
			t.Fatalf("accepted delta with a negative length: %+v", d)
		}
		prev := -1
		for _, c := range d.DirtyChunks {
			if c <= prev || c >= d.NumChunks {
				t.Fatalf("accepted dirty chunks %v in a %d-chunk layout", d.DirtyChunks, d.NumChunks)
			}
			prev = c
		}
	})
}
