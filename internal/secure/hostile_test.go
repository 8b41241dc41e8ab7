package secure

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// A hostile terminal: a ChunkSource that serves the true document but lies
// in some answers, always at the requested length. Whatever it does, every
// ReadAt must return the true plaintext or an error wrapping ErrIntegrity.

// Which source call a lie targets.
const (
	lieCiphertext = iota
	lieDigest
	lieHashes
	numLieTargets
)

// How a lie picks the calls it alters.
const (
	lieOnce    = iota // the arg-th call of its target
	lieRepeats        // every byte served before (CiphertextRange), every chunk asked before (the others)
	lieLength         // every call answering (arg+1)*BlockSize bytes
	numLieModes
)

// lie alters the answers of one kind of source call by XOR-ing mask into
// them: at byte pos of each answer it picks, or at every repeated byte.
type lie struct {
	target, mode int
	arg, pos     int
	mask         byte
}

// hostileSource wraps a document and applies its lies to the answers.
type hostileSource struct {
	prot  *Protected
	lies  []lie
	calls [numLieTargets]int
	// served marks the ciphertext bytes and the chunks answered so far.
	served      []bool
	askedDigest map[int]bool
	askedHashes map[int]bool
}

func newHostileSource(prot *Protected, lies ...lie) *hostileSource {
	return &hostileSource{
		prot:        prot,
		lies:        lies,
		served:      make([]bool, len(prot.Ciphertext)),
		askedDigest: map[int]bool{},
		askedHashes: map[int]bool{},
	}
}

func (s *hostileSource) Manifest() Manifest { return s.prot.Manifest() }

func (s *hostileSource) CiphertextRange(off, n int64) ([]byte, error) {
	b, err := s.prot.CiphertextRange(off, n)
	if err != nil {
		return nil, err
	}
	out := append([]byte(nil), b...)
	for _, l := range s.lies {
		if l.target != lieCiphertext {
			continue
		}
		if l.mode == lieRepeats {
			for i := range out {
				if s.served[off+int64(i)] {
					out[i] ^= l.mask
				}
			}
			continue
		}
		s.alter(l, out, s.calls[lieCiphertext])
	}
	for i := range out {
		s.served[off+int64(i)] = true
	}
	s.calls[lieCiphertext]++
	return out, nil
}

func (s *hostileSource) ChunkDigest(i int) ([]byte, error) {
	b, err := s.prot.ChunkDigest(i)
	if err != nil {
		return nil, err
	}
	out := s.answer(lieDigest, append([]byte(nil), b...), s.askedDigest[i])
	s.askedDigest[i] = true
	return out, nil
}

func (s *hostileSource) FragmentHashes(i int) ([]byte, error) {
	b, err := s.prot.FragmentHashes(i)
	if err != nil {
		return nil, err
	}
	out := s.answer(lieHashes, append([]byte(nil), b...), s.askedHashes[i])
	s.askedHashes[i] = true
	return out, nil
}

// answer applies the lies on target to a digest or hash answer.
func (s *hostileSource) answer(target int, out []byte, repeated bool) []byte {
	for _, l := range s.lies {
		if l.target != target {
			continue
		}
		if l.mode == lieRepeats {
			if repeated && len(out) > 0 {
				out[l.pos%len(out)] ^= l.mask
			}
			continue
		}
		s.alter(l, out, s.calls[target])
	}
	s.calls[target]++
	return out
}

// alter applies a lieOnce or lieLength lie to the call-th answer.
func (s *hostileSource) alter(l lie, out []byte, call int) {
	if len(out) == 0 {
		return
	}
	if (l.mode == lieOnce && call == l.arg) || (l.mode == lieLength && len(out) == (l.arg+1)*BlockSize) {
		out[l.pos%len(out)] ^= l.mask
	}
}

// hostileDoc protects a few chunks of sample plaintext under a scheme.
func hostileDoc(t testing.TB, scheme Scheme) (*Protected, []byte) {
	t.Helper()
	plain := samplePlaintext(3*DefaultChunkSize + 123)
	prot, err := Protect(plain, testKey(), ProtectOptions{Scheme: scheme})
	if err != nil {
		t.Fatal(err)
	}
	return prot, plain
}

// checkRead runs one ReadAt and fails unless it returned the true plaintext
// or an integrity error.
func checkRead(t *testing.T, r *Reader, plain []byte, off int64, n int) error {
	t.Helper()
	buf := make([]byte, n)
	got, err := r.ReadAt(buf, off)
	if err != nil && err != io.EOF {
		if !errors.Is(err, ErrIntegrity) {
			t.Fatalf("read [%d, +%d): error %v does not wrap ErrIntegrity", off, n, err)
		}
		return err
	}
	want := plain[off:min(off+int64(n), int64(len(plain)))]
	if !bytes.Equal(buf[:got], want) {
		t.Fatalf("read [%d, +%d): altered plaintext with error %v", off, n, err)
	}
	return nil
}

// TestReaderDecryptsOnlyWhatItHashed: a source that answers the first read
// of each ciphertext byte honestly and flips every later read, or that
// flips every 8-byte read, cannot alter what the SOE delivers. A reader
// that decrypted a second fetch of the ciphertext it verified would return
// altered plaintext with a nil error for the first 1,000 bytes of chunk 0.
// Under ECB-MHT the first read of a chunk authenticates all its leaf
// records, and each later fragment of the chunk is checked against its leaf
// alone on its first fetch: a flip in that fetch, or in the record of a
// fragment the SOE hashes itself, must end the read in ErrIntegrity.
func TestReaderDecryptsOnlyWhatItHashed(t *testing.T) {
	probes := map[string]lie{
		"later reads flipped":  {target: lieCiphertext, mode: lieRepeats, mask: 0x01},
		"8-byte reads flipped": {target: lieCiphertext, mode: lieLength, arg: 0, mask: 0x01},
	}
	for name, probe := range probes {
		for _, scheme := range []Scheme{SchemeECBMHT, SchemeCBCSHA, SchemeCBCSHAC} {
			t.Run(name+"/"+scheme.String(), func(t *testing.T) {
				prot, plain := hostileDoc(t, scheme)
				r, err := NewReader(newHostileSource(prot, probe), testKey())
				if err != nil {
					t.Fatal(err)
				}
				if err := checkRead(t, r, plain, 0, 1000); err != nil {
					t.Fatalf("an honest first answer must be served as is: %v", err)
				}
				if scheme == SchemeCBCSHAC {
					// The reads below reach chunks without the chunk
					// before them, whose last block a chunk's first
					// plaintext block depends on and CBC-SHAC's digest
					// does not cover.
					return
				}
				// Small overlapping reads, forward like the decoder's, each
				// followed by one far enough back that the reader no longer
				// holds its ciphertext.
				for off := int64(0); off < int64(len(plain)); off += 11 {
					checkRead(t, r, plain, off, 16)
					checkRead(t, r, plain, max(off-3000, 0), 5)
				}
			})
		}
	}
	lies := map[string]struct {
		probe lie
		off   int64 // the 16-byte read that must fail, after an honest one at 0 if off > 0
	}{
		"first fetch of fragment 1 flipped":   {lie{target: lieCiphertext, mode: lieOnce, arg: 1, pos: 3, mask: 0x01}, DefaultFragmentSize},
		"record of a hashed fragment flipped": {lie{target: lieHashes, mode: lieOnce, arg: 0, pos: 5, mask: 0x01}, 0},
	}
	for name, tc := range lies {
		t.Run(name+"/ECB-MHT", func(t *testing.T) {
			prot, plain := hostileDoc(t, SchemeECBMHT)
			r, err := NewReader(newHostileSource(prot, tc.probe), testKey())
			if err != nil {
				t.Fatal(err)
			}
			if tc.off > 0 {
				if err := checkRead(t, r, plain, 0, 16); err != nil {
					t.Fatalf("an honest first answer must be served as is: %v", err)
				}
			}
			if err := checkRead(t, r, plain, tc.off, 16); err == nil {
				t.Fatalf("read [%d, +16) over the lie: nil error", tc.off)
			}
		})
	}
}

// TestFragmentHashesOncePerChunk: a forward scan in 16-byte reads asks the
// terminal for each chunk's leaf records once and folds each chunk's root
// once, however many of the chunk's fragments it reads.
func TestFragmentHashesOncePerChunk(t *testing.T) {
	prot, plain := hostileDoc(t, SchemeECBMHT)
	src := newHostileSource(prot)
	r, err := NewReader(src, testKey())
	if err != nil {
		t.Fatal(err)
	}
	for off := int64(0); off < int64(len(plain)); off += 16 {
		checkRead(t, r, plain, off, 16)
	}
	if got, want := src.calls[lieHashes], prot.NumChunks(); got != want {
		t.Errorf("FragmentHashes asked %d times over %d chunks", got, want)
	}
	// Every fragment is first read at its start and hashed whole once; each
	// chunk's fold hashes its leaf records once.
	if got, want := r.Costs().BytesHashed, int64(len(prot.Ciphertext)+len(prot.LeafTable())); got != want {
		t.Errorf("hashed %d bytes, want %d", got, want)
	}
}

// FuzzHostileSource drives the SOE reader over a source whose lies the
// fuzzer picks: which CiphertextRange, ChunkDigest or FragmentHashes calls
// lie, and how, always at the requested length. It also picks the read
// pattern. Under ECB-MHT and CBC-SHA every ReadAt must return the true
// plaintext or an error wrapping ErrIntegrity, and must never panic.
// CBC-SHAC is left out: its digest does not cover the ciphertext block
// before a chunk, so a lie there alters the chunk's first plaintext block
// undetected (the container change that closes that gap is not made yet).
//
// lies holds 5 bytes per lie (target, mode, arg, pos, mask; a zero mask
// flips the low bit) and reads 3 bytes per ReadAt (a little-endian offset
// taken modulo the plaintext length, then the length minus one).
func FuzzHostileSource(f *testing.F) {
	for _, seed := range hostileSeeds() {
		f.Add(seed.scheme, seed.lies, seed.reads)
	}
	docs := map[Scheme]*Protected{}
	var plain []byte
	for _, scheme := range []Scheme{SchemeECBMHT, SchemeCBCSHA} {
		docs[scheme], plain = hostileDoc(f, scheme)
	}
	f.Fuzz(func(t *testing.T, scheme uint8, lieBytes, readBytes []byte) {
		prot := docs[SchemeECBMHT]
		if scheme%2 == 1 {
			prot = docs[SchemeCBCSHA]
		}
		var lies []lie
		for i := 0; i+5 <= len(lieBytes) && len(lies) < 8; i += 5 {
			mask := lieBytes[i+4]
			if mask == 0 {
				mask = 1
			}
			lies = append(lies, lie{
				target: int(lieBytes[i]) % numLieTargets,
				mode:   int(lieBytes[i+1]) % numLieModes,
				arg:    int(lieBytes[i+2]),
				pos:    int(lieBytes[i+3]),
				mask:   mask,
			})
		}
		r, err := NewReader(newHostileSource(prot, lies...), testKey())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i+3 <= len(readBytes) && i < 3*128; i += 3 {
			off := int64(uint16(readBytes[i])|uint16(readBytes[i+1])<<8) % int64(len(plain))
			checkRead(t, r, plain, off, int(readBytes[i+2])+1)
		}
	})
}

type hostileSeed struct {
	scheme      uint8
	lies, reads []byte
}

// hostileSeeds builds the canonical seed inputs of FuzzHostileSource under
// both schemes: both probes of TestReaderDecryptsOnlyWhatItHashed, read
// over the first 1,000 bytes and in small steps forward, each followed by a
// read back past what the reader holds; and a lie on one digest, one on one
// chunk's hashes, one on the first fetch of fragment 1, one on the record of
// fragment 0 and an honest source, read in steps. The committed files under
// testdata/fuzz/FuzzHostileSource hold the same inputs.
func hostileSeeds() []hostileSeed {
	var reads []byte
	for off := 0; off < 3*DefaultChunkSize+123; off += 131 {
		back := max(off-3000, 0)
		reads = append(reads, byte(off), byte(off>>8), 15, byte(back), byte(back>>8), 3)
	}
	first := []byte{0, 0, 255, 0, 1, 255, 0, 2, 255, 232, 2, 255}
	var seeds []hostileSeed
	for scheme := uint8(0); scheme < 2; scheme++ {
		seeds = append(seeds,
			hostileSeed{scheme, []byte{lieCiphertext, lieRepeats, 0, 0, 1}, first},
			hostileSeed{scheme, []byte{lieCiphertext, lieRepeats, 0, 0, 1}, reads},
			hostileSeed{scheme, []byte{lieCiphertext, lieLength, 0, 3, 1}, first},
			hostileSeed{scheme, []byte{lieCiphertext, lieLength, 0, 3, 1}, reads},
			hostileSeed{scheme, []byte{lieDigest, lieOnce, 1, 5, 0x80}, reads},
			hostileSeed{scheme, []byte{lieHashes, lieOnce, 2, 41, 0x10}, reads},
			hostileSeed{scheme, []byte{lieCiphertext, lieOnce, 1, 3, 1}, reads},
			hostileSeed{scheme, []byte{lieHashes, lieOnce, 0, 5, 1}, reads},
			hostileSeed{scheme, nil, reads},
		)
	}
	return seeds
}
