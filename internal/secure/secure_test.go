package secure

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"
)

func testKey() Key { return DeriveKey("test-passphrase") }

func samplePlaintext(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i * 31)
	}
	return out
}

func TestKeyValidation(t *testing.T) {
	if _, err := NewKey(make([]byte, 8)); !errors.Is(err, ErrBadKey) {
		t.Fatal("short key must be rejected")
	}
	k, err := NewKey(make([]byte, 24))
	if err != nil || len(k) != 24 {
		t.Fatal("24-byte key must be accepted")
	}
	if len(DeriveKey("x")) != 24 {
		t.Fatal("derived key must be 24 bytes")
	}
	if bytes.Equal(DeriveKey("a"), DeriveKey("b")) {
		t.Fatal("different passphrases must derive different keys")
	}
}

func TestPositionECBHidesEqualBlocks(t *testing.T) {
	// Identical plaintext blocks must produce different ciphertext blocks
	// thanks to the position XOR (the dictionary attack of section 6).
	plain := bytes.Repeat([]byte("SAMEBLK!"), 16)
	prot, err := Protect(plain, testKey(), ProtectOptions{Scheme: SchemeECB})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for off := 0; off < len(prot.Ciphertext); off += BlockSize {
		blk := string(prot.Ciphertext[off : off+BlockSize])
		if seen[blk] {
			t.Fatal("two identical ciphertext blocks found")
		}
		seen[blk] = true
	}
}

func TestProtectDecryptRoundTripAllSchemes(t *testing.T) {
	plain := samplePlaintext(5000)
	for _, scheme := range Schemes() {
		t.Run(scheme.String(), func(t *testing.T) {
			prot, err := Protect(plain, testKey(), ProtectOptions{Scheme: scheme})
			if err != nil {
				t.Fatal(err)
			}
			if scheme == SchemeECB && len(prot.ChunkDigests) != 0 {
				t.Fatal("ECB must not carry digests")
			}
			if scheme != SchemeECB && len(prot.ChunkDigests) != prot.NumChunks() {
				t.Fatalf("expected %d digests, got %d", prot.NumChunks(), len(prot.ChunkDigests))
			}
			got, err := Decrypt(prot, testKey())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, plain) {
				t.Fatal("round trip mismatch")
			}
		})
	}
}

func TestProtectRejectsBadLayout(t *testing.T) {
	if _, err := Protect([]byte("x"), testKey(), ProtectOptions{ChunkSize: 100, FragmentSize: 64}); err == nil {
		t.Fatal("chunk size not multiple of fragment size must fail")
	}
	if _, err := Protect([]byte("x"), Key(make([]byte, 5)), ProtectOptions{}); err == nil {
		t.Fatal("bad key must fail")
	}
}

func TestRandomAccessReads(t *testing.T) {
	plain := samplePlaintext(10000)
	for _, scheme := range Schemes() {
		prot, err := Protect(plain, testKey(), ProtectOptions{Scheme: scheme})
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(prot, testKey())
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct{ off, n int }{
			{0, 17}, {9990, 10}, {4096, 1}, {2047, 3}, {123, 999}, {8191, 100},
		} {
			buf := make([]byte, tc.n)
			n, err := r.ReadAt(buf, int64(tc.off))
			if err != nil && err != io.EOF {
				t.Fatalf("%s: ReadAt(%d,%d): %v", scheme, tc.off, tc.n, err)
			}
			if !bytes.Equal(buf[:n], plain[tc.off:tc.off+n]) {
				t.Fatalf("%s: ReadAt(%d,%d) returned wrong data", scheme, tc.off, tc.n)
			}
		}
		if _, err := r.ReadAt(make([]byte, 4), int64(len(plain)+10)); err != io.EOF {
			t.Fatalf("%s: read past end should return EOF, got %v", scheme, err)
		}
		if r.Size() != int64(len(plain)) {
			t.Fatalf("%s: Size() = %d", scheme, r.Size())
		}
	}
}

func TestTamperDetection(t *testing.T) {
	plain := samplePlaintext(6000)
	for _, scheme := range []Scheme{SchemeCBCSHA, SchemeCBCSHAC, SchemeECBMHT} {
		t.Run(scheme.String(), func(t *testing.T) {
			prot, err := Protect(plain, testKey(), ProtectOptions{Scheme: scheme})
			if err != nil {
				t.Fatal(err)
			}
			// A reader that verified the range on the clean document and is
			// then reset onto the tampered one must verify it again.
			r, _ := NewReader(prot, testKey())
			buf := make([]byte, 64)
			if _, err := r.ReadAt(buf, 2990); err != nil {
				t.Fatal(err)
			}
			tampered, err := Protect(plain, testKey(), ProtectOptions{Scheme: scheme})
			if err != nil {
				t.Fatal(err)
			}
			// Random modification of one ciphertext byte.
			tampered.Ciphertext[3000] ^= 0x55
			for name, r := range map[string]*Reader{"fresh": nil, "reset": r} {
				if r == nil {
					r, _ = NewReader(tampered, testKey())
				} else if err := r.Reset(tampered, testKey()); err != nil {
					t.Fatal(err)
				}
				if _, err := r.ReadAt(buf, 2990); !errors.Is(err, ErrIntegrity) {
					t.Fatalf("%s reader: tampering not detected: %v", name, err)
				}
			}
		})
	}
}

func TestBlockSubstitutionDetection(t *testing.T) {
	// Swapping two ciphertext blocks (the substitution attack of section 6)
	// must be detected by the integrity schemes.
	plain := samplePlaintext(6000)
	for _, scheme := range []Scheme{SchemeCBCSHAC, SchemeECBMHT} {
		prot, err := Protect(plain, testKey(), ProtectOptions{Scheme: scheme})
		if err != nil {
			t.Fatal(err)
		}
		copy(prot.Ciphertext[0:8], prot.Ciphertext[512:520])
		r, _ := NewReader(prot, testKey())
		buf := make([]byte, 32)
		if _, err := r.ReadAt(buf, 0); !errors.Is(err, ErrIntegrity) {
			t.Fatalf("%s: block substitution not detected: %v", scheme, err)
		}
	}
	// Without integrity checking (ECB) the substitution goes through but
	// yields garbage rather than the original block (position XOR prevents a
	// clean splice).
	prot, _ := Protect(plain, testKey(), ProtectOptions{Scheme: SchemeECB})
	copy(prot.Ciphertext[0:8], prot.Ciphertext[512:520])
	r, _ := NewReader(prot, testKey())
	buf := make([]byte, 8)
	if _, err := r.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if bytes.Equal(buf, plain[512:520]) {
		t.Fatal("position XOR should prevent meaningful block substitution")
	}
}

func TestDigestSubstitutionDetection(t *testing.T) {
	// Swapping the digests of two chunks must be detected because digests
	// are encrypted with a chunk-dependent position.
	plain := samplePlaintext(8000)
	prot, err := Protect(plain, testKey(), ProtectOptions{Scheme: SchemeECBMHT})
	if err != nil {
		t.Fatal(err)
	}
	if prot.NumChunks() < 3 {
		t.Fatal("need several chunks")
	}
	prot.ChunkDigests[0], prot.ChunkDigests[1] = prot.ChunkDigests[1], prot.ChunkDigests[0]
	r, _ := NewReader(prot, testKey())
	buf := make([]byte, 64)
	if _, err := r.ReadAt(buf, 0); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("digest substitution not detected: %v", err)
	}
}

func TestWrongKeyFailsIntegrity(t *testing.T) {
	plain := samplePlaintext(4000)
	prot, _ := Protect(plain, testKey(), ProtectOptions{Scheme: SchemeECBMHT})
	r, _ := NewReader(prot, DeriveKey("other"))
	buf := make([]byte, 16)
	if _, err := r.ReadAt(buf, 0); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("wrong key should fail the integrity check, got %v", err)
	}
}

func TestCostAccountingOrdering(t *testing.T) {
	// For a sparse access pattern the schemes must rank as in Figure 11:
	// ECB < ECB-MHT < CBC-SHAC <= CBC-SHA in decrypted volume, and ECB-MHT
	// must transfer less than the CBC schemes.
	plain := samplePlaintext(64 * 1024)
	costs := map[Scheme]Costs{}
	for _, scheme := range Schemes() {
		prot, err := Protect(plain, testKey(), ProtectOptions{Scheme: scheme})
		if err != nil {
			t.Fatal(err)
		}
		r, _ := NewReader(prot, testKey())
		buf := make([]byte, 100)
		for off := int64(0); off < int64(len(plain)); off += 4096 {
			if _, err := r.ReadAt(buf, off); err != nil && err != io.EOF {
				t.Fatal(err)
			}
		}
		costs[scheme] = r.Costs()
	}
	if !(costs[SchemeECB].BytesDecrypted < costs[SchemeECBMHT].BytesDecrypted+1) {
		t.Errorf("ECB should decrypt the least: %+v vs %+v", costs[SchemeECB], costs[SchemeECBMHT])
	}
	if costs[SchemeCBCSHA].BytesDecrypted <= costs[SchemeECBMHT].BytesDecrypted {
		t.Errorf("CBC-SHA must decrypt more than ECB-MHT: %+v vs %+v", costs[SchemeCBCSHA], costs[SchemeECBMHT])
	}
	if costs[SchemeCBCSHAC].BytesTransferred <= costs[SchemeECBMHT].BytesTransferred {
		t.Errorf("CBC-SHAC must transfer more than ECB-MHT: %+v vs %+v", costs[SchemeCBCSHAC], costs[SchemeECBMHT])
	}
	if costs[SchemeCBCSHA].BytesDecrypted <= costs[SchemeCBCSHAC].BytesDecrypted {
		t.Errorf("CBC-SHA must decrypt more than CBC-SHAC")
	}
}

func TestSequentialReadAmortizesVerification(t *testing.T) {
	plain := samplePlaintext(16 * 1024)
	prot, _ := Protect(plain, testKey(), ProtectOptions{Scheme: SchemeECBMHT})
	r, _ := NewReader(prot, testKey())
	buf := make([]byte, 256)
	for off := int64(0); off < int64(len(plain)); off += 256 {
		if _, err := r.ReadAt(buf, off); err != nil && err != io.EOF {
			t.Fatal(err)
		}
	}
	c := r.Costs()
	if c.DigestsDecrypted != int64(prot.NumChunks()) {
		t.Fatalf("expected one digest decryption per chunk, got %d for %d chunks",
			c.DigestsDecrypted, prot.NumChunks())
	}
	// Fragments are verified exactly once each.
	frags := int64((len(prot.Ciphertext) + prot.FragmentSize - 1) / prot.FragmentSize)
	if c.FragmentsVerified != frags {
		t.Fatalf("expected %d fragment verifications, got %d", frags, c.FragmentsVerified)
	}
}

// TestFragmentHashesAllocatesNothing: the terminal serves a chunk's fragment
// hashes as a slice of the leaf table built with the ciphertext, so a call
// neither hashes nor allocates, and an append to the slice cannot reach the
// next chunk's records.
func TestFragmentHashesAllocatesNothing(t *testing.T) {
	prot, err := Protect(samplePlaintext(4*DefaultChunkSize+77), testKey(), ProtectOptions{Scheme: SchemeECBMHT})
	if err != nil {
		t.Fatal(err)
	}
	var leaves []byte
	allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < prot.NumChunks(); i++ {
			if leaves, err = prot.FragmentHashes(i); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("FragmentHashes over %d chunks allocated %.0f times", prot.NumChunks(), allocs)
	}
	if cap(leaves) != len(leaves) {
		t.Fatalf("chunk records have capacity %d beyond their %d bytes", cap(leaves), len(leaves))
	}
}

func TestSchemeString(t *testing.T) {
	want := map[Scheme]string{SchemeECB: "ECB", SchemeCBCSHA: "CBC-SHA", SchemeCBCSHAC: "CBC-SHAC", SchemeECBMHT: "ECB-MHT"}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d.String() = %s", s, s.String())
		}
	}
	if Scheme(42).String() != "unknown" {
		t.Error("unknown scheme string")
	}
}

// TestPropertyRoundTripArbitraryData: Protect/Decrypt is the identity for
// arbitrary payloads under every scheme.
func TestPropertyRoundTripArbitraryData(t *testing.T) {
	f := func(data []byte, schemeSel uint8) bool {
		if len(data) == 0 {
			data = []byte{0}
		}
		if len(data) > 20000 {
			data = data[:20000]
		}
		scheme := Schemes()[int(schemeSel)%4]
		prot, err := Protect(data, testKey(), ProtectOptions{Scheme: scheme})
		if err != nil {
			return false
		}
		got, err := Decrypt(prot, testKey())
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyTamperAnywhereDetected: flipping any ciphertext byte is
// detected by ECB-MHT when the affected region is read.
func TestPropertyTamperAnywhereDetected(t *testing.T) {
	plain := samplePlaintext(8192)
	f := func(pos uint16) bool {
		prot, err := Protect(plain, testKey(), ProtectOptions{Scheme: SchemeECBMHT})
		if err != nil {
			return false
		}
		p := int(pos) % len(prot.Ciphertext)
		prot.Ciphertext[p] ^= 0xFF
		r, _ := NewReader(prot, testKey())
		buf := make([]byte, 1)
		_, err = r.ReadAt(buf, int64(p%prot.PlainLen))
		return errors.Is(err, ErrIntegrity)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
