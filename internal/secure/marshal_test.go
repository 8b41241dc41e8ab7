package secure

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	plain := samplePlaintext(5000)
	for _, scheme := range Schemes() {
		prot, err := Protect(plain, testKey(), ProtectOptions{Scheme: scheme})
		if err != nil {
			t.Fatal(err)
		}
		blob := prot.Marshal()
		back, err := Unmarshal(blob)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if back.Scheme != prot.Scheme || back.PlainLen != prot.PlainLen ||
			back.ChunkSize != prot.ChunkSize || back.FragmentSize != prot.FragmentSize {
			t.Fatalf("%s: header mismatch %+v vs %+v", scheme, back, prot)
		}
		if !bytes.Equal(back.Ciphertext, prot.Ciphertext) || len(back.ChunkDigests) != len(prot.ChunkDigests) {
			t.Fatalf("%s: payload mismatch", scheme)
		}
		sameFragmentHashes(t, scheme.String()+" after a round trip", back, prot)
		got, err := Decrypt(back, testKey())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, plain) {
			t.Fatalf("%s: decryption after round trip mismatch", scheme)
		}
	}
}

func TestUnmarshalRejectsCorruptContainers(t *testing.T) {
	plain := samplePlaintext(3000)
	prot, _ := Protect(plain, testKey(), ProtectOptions{Scheme: SchemeECBMHT})
	blob := prot.Marshal()
	// A fragment size of 0 keeps the chunk count, and so the digest table,
	// consistent; a reader over it divides by zero.
	zeroFragments := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint32(zeroFragments[10:], 0)
	cases := map[string][]byte{
		"empty":              {},
		"bad magic":          append([]byte("NOPE"), blob[4:]...),
		"bad version":        append(append([]byte{}, blob[:4]...), append([]byte{9}, blob[5:]...)...),
		"truncated":          blob[:len(blob)/2],
		"short header":       blob[:6],
		"zero fragment size": zeroFragments,
	}
	for name, data := range cases {
		if _, err := Unmarshal(data); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// TestPropertyUnmarshalNeverPanics feeds arbitrary bytes to Unmarshal: it
// must either fail cleanly or produce a structurally consistent container,
// never panic.
func TestPropertyUnmarshalNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		p, err := Unmarshal(data)
		if err != nil {
			return true
		}
		return p.PlainLen <= len(p.Ciphertext)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyMarshalRoundTripArbitrary checks the container round trip for
// arbitrary payloads.
func TestPropertyMarshalRoundTripArbitrary(t *testing.T) {
	f := func(data []byte, schemeSel uint8) bool {
		if len(data) == 0 {
			data = []byte{1}
		}
		if len(data) > 8000 {
			data = data[:8000]
		}
		scheme := Schemes()[int(schemeSel)%4]
		prot, err := Protect(data, testKey(), ProtectOptions{Scheme: scheme})
		if err != nil {
			return false
		}
		back, err := Unmarshal(prot.Marshal())
		if err != nil {
			return false
		}
		got, err := Decrypt(back, testKey())
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
