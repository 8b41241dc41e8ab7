package secure

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// protectEqualModuloVersion asserts that an updated document is byte-for-byte
// what Protect would build from the new plaintext: same ciphertext, same
// encrypted digest table, same layout. Only the version stamp may differ.
func protectEqualModuloVersion(t *testing.T, got *Protected, newPlain []byte, key Key, scheme Scheme) {
	t.Helper()
	want, err := Protect(newPlain, key, ProtectOptions{Scheme: scheme, ChunkSize: got.ChunkSize, FragmentSize: got.FragmentSize})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Ciphertext, want.Ciphertext) {
		t.Fatalf("%s: updated ciphertext differs from a from-scratch Protect", scheme)
	}
	if len(got.ChunkDigests) != len(want.ChunkDigests) {
		t.Fatalf("%s: %d digests after update, from-scratch has %d", scheme, len(got.ChunkDigests), len(want.ChunkDigests))
	}
	for i := range got.ChunkDigests {
		if !bytes.Equal(got.ChunkDigests[i], want.ChunkDigests[i]) {
			t.Fatalf("%s: digest of chunk %d differs from a from-scratch Protect", scheme, i)
		}
	}
	if got.PlainLen != want.PlainLen || got.ChunkSize != want.ChunkSize || got.FragmentSize != want.FragmentSize {
		t.Fatalf("%s: layout mismatch after update", scheme)
	}
}

// mutate applies one synthetic edit to a copy of the plaintext.
func mutate(plain []byte, kind string) []byte {
	out := append([]byte(nil), plain...)
	switch kind {
	case "same-length":
		mid := len(out) / 2
		for i := 0; i < 64 && mid+i < len(out); i++ {
			out[mid+i] ^= 0x5a
		}
	case "insert":
		mid := len(out) / 3
		ins := bytes.Repeat([]byte{0xAB}, 300)
		out = append(out[:mid:mid], append(ins, out[mid:]...)...)
	case "delete":
		mid := len(out) / 3
		end := mid + 500
		if end > len(out)-1 {
			end = len(out) - 1
		}
		out = append(out[:mid:mid], out[end:]...)
	case "append":
		out = append(out, bytes.Repeat([]byte{0xCD}, 5000)...)
	case "truncate":
		out = out[:len(out)-len(out)/4]
	case "head":
		out[0] ^= 1
	}
	return out
}

// TestUpdateMatchesFromScratch drives Update through every scheme and edit
// shape: the result must be what Protect builds from scratch, with the
// version bumped, and the delta must name exactly the chunks that changed.
func TestUpdateMatchesFromScratch(t *testing.T) {
	plain := samplePlaintext(3 * DefaultChunkSize * 4) // 12 chunks
	key := testKey()
	for _, scheme := range Schemes() {
		for _, kind := range []string{"same-length", "insert", "delete", "append", "truncate", "head"} {
			t.Run(fmt.Sprintf("%s/%s", scheme, kind), func(t *testing.T) {
				old, err := Protect(plain, key, ProtectOptions{Scheme: scheme})
				if err != nil {
					t.Fatal(err)
				}
				newPlain := mutate(plain, kind)
				updated, delta, err := Update(old, plain, newPlain, key)
				if err != nil {
					t.Fatal(err)
				}
				protectEqualModuloVersion(t, updated, newPlain, key, scheme)
				if updated.Version != 2 || delta.FromVersion != 1 || delta.ToVersion != 2 {
					t.Fatalf("version chain broken: doc %d, delta %d->%d", updated.Version, delta.FromVersion, delta.ToVersion)
				}
				if delta.NumChunks != updated.NumChunks() || delta.NewCiphertextLen != int64(len(updated.Ciphertext)) {
					t.Fatalf("delta layout %d chunks / %d bytes, document has %d / %d",
						delta.NumChunks, delta.NewCiphertextLen, updated.NumChunks(), len(updated.Ciphertext))
				}
				// The delta's dirty set must be exact: every chunk not named
				// must be byte-identical to the old version's same chunk.
				dirtySet := map[int]bool{}
				for _, c := range delta.DirtyChunks {
					dirtySet[c] = true
				}
				for i := 0; i < updated.NumChunks(); i++ {
					start, end := updated.chunkBounds(i)
					same := i < old.NumChunks()
					if same {
						oStart, oEnd := old.chunkBounds(i)
						same = oStart == start && oEnd == end &&
							bytes.Equal(old.Ciphertext[start:end], updated.Ciphertext[start:end])
					}
					// A chunk may be named dirty yet re-encrypt to identical
					// bytes (CBC chains everything after the edit point), but
					// a changed chunk missing from the delta is a cache
					// poisoning bug.
					if !dirtySet[i] && !same {
						t.Fatalf("chunk %d changed but is not in the delta", i)
					}
				}
				if delta.BytesReencrypted+delta.BytesReused != int64(len(updated.Ciphertext)) {
					t.Fatalf("delta byte accounting %d+%d does not cover %d ciphertext bytes",
						delta.BytesReencrypted, delta.BytesReused, len(updated.Ciphertext))
				}
				// A same-length ECB edit must be near-minimal: the 64 flipped
				// bytes live in one or two chunks.
				if kind == "same-length" && (scheme == SchemeECB || scheme == SchemeECBMHT) {
					if len(delta.DirtyChunks) > 2 {
						t.Fatalf("same-length edit dirtied %d chunks, want <= 2", len(delta.DirtyChunks))
					}
				}
				// The old document must be untouched (readers hold it).
				reProt, err := Protect(plain, key, ProtectOptions{Scheme: scheme})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(old.Ciphertext, reProt.Ciphertext) {
					t.Fatal("Update mutated the previous version in place")
				}
				// And the updated document must decrypt to the new plaintext.
				got, err := Decrypt(updated, key)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, newPlain) {
					t.Fatal("updated document does not decrypt to the edited plaintext")
				}
			})
		}
	}
}

// TestUpdateChain applies a sequence of updates and checks the version chain
// and the merged delta against recomputing from the first version.
func TestUpdateChain(t *testing.T) {
	plain := samplePlaintext(6 * DefaultChunkSize)
	key := testKey()
	prot, err := Protect(plain, key, ProtectOptions{Scheme: SchemeECBMHT})
	if err != nil {
		t.Fatal(err)
	}
	first := prot
	cur := plain
	var steps []*Delta
	for i, kind := range []string{"same-length", "insert", "truncate"} {
		next := mutate(cur, kind)
		updated, delta, err := Update(prot, cur, next, key)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if updated.Version != uint64(i+2) {
			t.Fatalf("step %d: version %d, want %d", i, updated.Version, i+2)
		}
		steps = append(steps, delta)
		prot, cur = updated, next
	}
	merged, err := MergeDeltas(steps)
	if err != nil {
		t.Fatal(err)
	}
	if merged.FromVersion != 1 || merged.ToVersion != 4 || merged.NumChunks != prot.NumChunks() {
		t.Fatalf("merged delta %d->%d over %d chunks, want 1->4 over %d", merged.FromVersion, merged.ToVersion, merged.NumChunks, prot.NumChunks())
	}
	// Applying the merged delta to the first version's ciphertext must
	// reproduce the final one: every chunk not named dirty is byte-identical
	// between version 1 and version 4.
	dirtySet := map[int]bool{}
	for _, c := range merged.DirtyChunks {
		dirtySet[c] = true
	}
	for i := 0; i < prot.NumChunks(); i++ {
		if dirtySet[i] {
			continue
		}
		start, end := prot.chunkBounds(i)
		if i >= first.NumChunks() {
			t.Fatalf("clean chunk %d does not exist in the first version", i)
		}
		oStart, oEnd := first.chunkBounds(i)
		if oStart != start || oEnd != end || !bytes.Equal(first.Ciphertext[start:end], prot.Ciphertext[start:end]) {
			t.Fatalf("chunk %d clean in the merged delta but changed between versions 1 and 4", i)
		}
	}
	// A broken chain must be rejected.
	if _, err := MergeDeltas([]*Delta{steps[0], steps[2]}); err == nil {
		t.Fatal("merging a broken delta chain must fail")
	}
}

// TestDeltaMarshalRoundTrip pins the delta wire format.
func TestDeltaMarshalRoundTrip(t *testing.T) {
	d := &Delta{
		FromVersion:      3,
		ToVersion:        7,
		NewPlainLen:      12345,
		NewCiphertextLen: 12352,
		NumChunks:        7,
		DirtyChunks:      []int{0, 2, 6},
		BytesReencrypted: 6144,
		BytesReused:      6208,
	}
	back, err := UnmarshalDelta(d.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if back.FromVersion != d.FromVersion || back.ToVersion != d.ToVersion ||
		back.NewPlainLen != d.NewPlainLen || back.NewCiphertextLen != d.NewCiphertextLen ||
		back.NumChunks != d.NumChunks || len(back.DirtyChunks) != len(d.DirtyChunks) ||
		back.BytesReencrypted != d.BytesReencrypted || back.BytesReused != d.BytesReused {
		t.Fatalf("round trip mismatch: %+v vs %+v", back, d)
	}
	for i := range d.DirtyChunks {
		if back.DirtyChunks[i] != d.DirtyChunks[i] {
			t.Fatalf("dirty chunk %d: %d vs %d", i, back.DirtyChunks[i], d.DirtyChunks[i])
		}
	}
	// MaxDeltaLen is the length of a delta naming every chunk dirty.
	d.DirtyChunks = []int{0, 1, 2, 3, 4, 5, 6}
	if got, want := int64(len(d.Marshal())), MaxDeltaLen(d.NumChunks); got != want {
		t.Fatalf("an all-dirty delta of %d chunks is %d bytes, MaxDeltaLen says %d", d.NumChunks, got, want)
	}
	// A chunk count from a lying manifest never yields a bound past the
	// longest delta UnmarshalDelta accepts, nor one that overflowed.
	for _, n := range []int{-1, maxDeltaChunks + 1, 1<<62 + 1<<60, math.MaxInt} {
		if got := MaxDeltaLen(n); got < MaxDeltaLen(0) || got > MaxDeltaLen(maxDeltaChunks) {
			t.Fatalf("MaxDeltaLen(%d) = %d, outside [%d, %d]", n, got, MaxDeltaLen(0), MaxDeltaLen(maxDeltaChunks))
		}
	}
	for name, corrupt := range map[string][]byte{
		"empty":     {},
		"bad magic": append([]byte("NOPE"), d.Marshal()[4:]...),
		"truncated": d.Marshal()[:10],
	} {
		if _, err := UnmarshalDelta(corrupt); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// TestUnmarshalDeltaRejectsOutOfRangeAndTrailing: a delta comes from the
// untrusted store, so a length no signed integer holds (which would decode
// negative) and bytes after the delta's end are errors, not values.
func TestUnmarshalDeltaRejectsOutOfRangeAndTrailing(t *testing.T) {
	valid := (&Delta{FromVersion: 1, ToVersion: 2, NewPlainLen: 100, NewCiphertextLen: 112,
		NumChunks: 1, DirtyChunks: []int{0}, BytesReencrypted: 112}).Marshal()
	if _, err := UnmarshalDelta(valid); err != nil {
		t.Fatal(err)
	}
	// Field offsets in the wire format: magic (4), version (1), from and
	// to versions (8 each), plaintext and ciphertext lengths (8 each), chunk
	// count and dirty count (4 each), one dirty index (4), then the
	// re-encrypted and reused byte counts (8 each).
	const plainOff, ctOff, reencOff, reusedOff = 21, 29, 49, 57
	set := func(v uint64, offs ...int) []byte {
		out := append([]byte(nil), valid...)
		for _, off := range offs {
			binary.LittleEndian.PutUint64(out[off:], v)
		}
		return out
	}
	for name, data := range map[string][]byte{
		"ciphertext length 2^64-1":  set(math.MaxUint64, ctOff),
		"ciphertext length 2^63":    set(1<<63, ctOff),
		"both lengths 2^64-1":       set(math.MaxUint64, plainOff, ctOff),
		"bytes re-encrypted 2^64-1": set(math.MaxUint64, reencOff),
		"bytes reused 2^64-1":       set(math.MaxUint64, reusedOff),
		"three trailing bytes":      append(append([]byte(nil), valid...), 1, 2, 3),
	} {
		if d, err := UnmarshalDelta(data); err == nil {
			t.Errorf("%s: accepted %+v", name, d)
		}
	}
	// The largest lengths a signed integer holds still decode.
	d, err := UnmarshalDelta(set(math.MaxInt64, ctOff, reencOff, reusedOff))
	if err != nil || d.NewCiphertextLen != math.MaxInt64 || d.BytesReencrypted != math.MaxInt64 {
		t.Fatalf("lengths of 2^63-1: %+v, %v", d, err)
	}
}

// TestUpdateRejectsStalePlaintext: handing Update a plaintext that does not
// match the protected document is a programming error it must catch.
func TestUpdateRejectsStalePlaintext(t *testing.T) {
	plain := samplePlaintext(5000)
	key := testKey()
	prot, err := Protect(plain, key, ProtectOptions{Scheme: SchemeECBMHT})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Update(prot, plain[:100], plain, key); err == nil {
		t.Fatal("expected an error for a stale plaintext")
	}
	if _, _, err := Update(prot, plain, nil, key); err == nil {
		t.Fatal("expected an error for an empty new plaintext")
	}
}

// TestContainerVersionRoundTrip: the v2 container carries the document
// version; a v1 container (written before versioning) reads as version 1.
func TestContainerVersionRoundTrip(t *testing.T) {
	plain := samplePlaintext(4000)
	key := testKey()
	prot, err := Protect(plain, key, ProtectOptions{Scheme: SchemeECBMHT})
	if err != nil {
		t.Fatal(err)
	}
	updated, _, err := Update(prot, plain, mutate(plain, "same-length"), key)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(updated.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if back.Version != 2 {
		t.Fatalf("unmarshalled version %d, want 2", back.Version)
	}
	man, _, _, err := UnmarshalManifest(updated.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if man.Version != 2 {
		t.Fatalf("manifest version %d, want 2", man.Version)
	}
	// Hand-build a v1 container: the v2 bytes with the docVersion field cut
	// out and the version byte rewritten.
	blob := updated.Marshal()
	v1 := append([]byte(nil), blob[:4]...)
	v1 = append(v1, containerVersion1)
	v1 = append(v1, blob[5:22]...) // scheme + chunkSize + fragmentSize + plainLen
	v1 = append(v1, blob[30:]...)  // skip docVersion
	legacy, err := Unmarshal(v1)
	if err != nil {
		t.Fatal(err)
	}
	if legacy.Version != 1 {
		t.Fatalf("v1 container read as version %d, want 1", legacy.Version)
	}
	if !bytes.Equal(legacy.Ciphertext, updated.Ciphertext) {
		t.Fatal("v1 container payload mismatch")
	}
}
