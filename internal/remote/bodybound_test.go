package remote_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"xmlac"
	"xmlac/internal/dataset"
	"xmlac/internal/remote"
	"xmlac/internal/secure"
	"xmlac/internal/server"
	"xmlac/internal/xmlstream"
)

// boundDoc is a 6-folder hospital document in an honest in-process store,
// reached through a transport (it is its own http.RoundTripper) that counts
// the body bytes the client reads and appends 64 MiB to the responses of
// the requests target selects.
type boundDoc struct {
	srv     *server.Server
	handler http.Handler
	blob    []byte
	man     secure.Manifest
	ctOff   int64
	target  func(*http.Request) bool
	// ignoreRange drops the Range header of targeted requests, so the
	// store answers 200 with the whole blob or leaf table.
	ignoreRange bool
	// read counts the body bytes the client reads of every response,
	// targetRead those of the targeted ones.
	read, targetRead atomic.Int64
}

func newBoundDoc(t *testing.T) *boundDoc {
	t.Helper()
	srv := server.New(server.Options{})
	xml := xmlstream.SerializeTree(dataset.HospitalFolders(6, 7), false)
	entry, err := srv.Store().RegisterXML("hospital", xml, testPassphrase, xmlac.SchemeECBMHT)
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := entry.Blob()
	man, _, ctOff, err := secure.UnmarshalManifest(blob)
	if err != nil {
		t.Fatal(err)
	}
	return &boundDoc{srv: srv, handler: srv.Handler(), blob: blob, man: man, ctOff: ctOff}
}

func (d *boundDoc) RoundTrip(r *http.Request) (*http.Response, error) {
	inflate := d.target != nil && d.target(r)
	if inflate && d.ignoreRange {
		r = r.Clone(r.Context())
		r.Header.Del("Range")
	}
	rec := httptest.NewRecorder()
	d.handler.ServeHTTP(rec, r)
	resp := rec.Result()
	body := rec.Body.Bytes()
	var rd io.Reader = bytes.NewReader(body)
	if inflate {
		// Spaces, so that even the manifest JSON stays valid.
		rd = &countReader{r: io.MultiReader(rd, io.LimitReader(spaces{}, 64<<20)), n: &d.targetRead}
	}
	resp.Body = io.NopCloser(&countReader{r: rd, n: &d.read})
	resp.ContentLength = -1
	return resp, nil
}

func (d *boundDoc) open() (*remote.Source, error) {
	return remote.Open("http://store.test/docs/hospital", remote.Options{HTTPClient: &http.Client{Transport: d}})
}

// spaces is an endless body, generated as it is read.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

type countReader struct {
	r io.Reader
	n *atomic.Int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// TestResponseBodiesAreBounded: the client reads no more of a response than
// its request asked for. Each case appends 64 MiB to one kind of response
// from an honest store. The call fails with ErrIntegrity, and the client
// reads at most the bound (plus one byte) beyond what the same call reads
// from the honest store. In the cases that drop the request's Range, the
// store answers 200 with the whole blob or leaf table: the call fails
// having read at most MaxErrorBody of that answer.
func TestResponseBodiesAreBounded(t *testing.T) {
	blob := func(r *http.Request) (string, bool) {
		return r.Header.Get("Range"), strings.HasSuffix(r.URL.Path, "/blob")
	}
	ciphertextRange := func(r *http.Request) bool {
		rng, ok := blob(r)
		return ok && !strings.HasPrefix(rng, "bytes=0-")
	}
	hashes := func(r *http.Request) bool { return strings.HasSuffix(r.URL.Path, "/hashes") }
	leafRun := func(d *boundDoc) error {
		src, err := d.open()
		if err != nil {
			return err
		}
		_, err = src.FragmentHashes(3)
		return err
	}
	readPages := func(d *boundDoc) error {
		src, err := d.open()
		if err != nil {
			return err
		}
		_, err = src.CiphertextRange(page, 2*page)
		return err
	}
	cases := []struct {
		name        string
		target      func(*http.Request) bool
		ignoreRange bool
		bound       func(d *boundDoc) int64
		call        func(d *boundDoc) error
	}{{
		name:   "manifest",
		target: func(r *http.Request) bool { return strings.HasSuffix(r.URL.Path, "/manifest") },
		bound:  func(*boundDoc) int64 { return 64 << 10 },
		call:   func(d *boundDoc) error { _, err := d.open(); return err },
	}, {
		name: "prefix",
		target: func(r *http.Request) bool {
			rng, ok := blob(r)
			return ok && strings.HasPrefix(rng, "bytes=0-") && rng != "bytes=0-0"
		},
		bound: func(d *boundDoc) int64 { return d.ctOff },
		call:  func(d *boundDoc) error { _, err := d.open(); return err },
	}, {
		// Chunk 3 misses: one request for the records of chunks 3 to the
		// last.
		name:   "fragment hashes",
		target: hashes,
		bound:  func(d *boundDoc) int64 { a, b := d.man.LeafBounds(3, d.man.NumChunks()); return b - a },
		call:   leafRun,
	}, {
		name:        "whole leaf table for a run",
		target:      hashes,
		ignoreRange: true,
		call:        leafRun,
	}, {
		name:   "single range",
		target: ciphertextRange,
		bound:  func(*boundDoc) int64 { return 2 * page },
		call:   readPages,
	}, {
		name:        "whole blob for a range",
		target:      ciphertextRange,
		ignoreRange: true,
		call:        readPages,
	}, {
		name: "revalidate",
		target: func(r *http.Request) bool {
			rng, ok := blob(r)
			return ok && rng == "bytes=0-0"
		},
		bound: func(*boundDoc) int64 { return 1 },
		call: func(d *boundDoc) error {
			src, err := d.open()
			if err != nil {
				return err
			}
			_, err = src.Revalidate()
			return err
		},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			honest := newBoundDoc(t)
			if err := tc.call(honest); err != nil {
				t.Fatalf("honest store: %v", err)
			}
			d := newBoundDoc(t)
			d.target, d.ignoreRange = tc.target, tc.ignoreRange
			err := tc.call(d)
			if tc.ignoreRange {
				if err == nil {
					t.Fatal("a 200 to a range request was accepted")
				}
				if n := d.targetRead.Load(); n > remote.MaxErrorBody {
					t.Fatalf("the client read %d bytes of a 200 to a range request; the bound is %d", n, remote.MaxErrorBody)
				}
				return
			}
			if !errors.Is(err, secure.ErrIntegrity) {
				t.Fatalf("an over-long response must fail with ErrIntegrity, got %v", err)
			}
			if extra, bound := d.read.Load()-honest.read.Load(), tc.bound(d); extra > bound+1 {
				t.Fatalf("the client read %d bytes more than from the honest store; the bound is %d", extra, bound)
			}
		})
	}
}

// TestHostileLayoutReservesWhatArrives: what a read expects follows from the
// layout the store declares, so the client must not reserve it before it
// arrives. Each case forges a container header that declares one chunk far
// larger than what the store sends: under ECB-MHT, a chunk of 4 GiB - 8
// bytes in 8-byte fragments, 10 GiB of leaf records; under CBC-SHA, a chunk
// of 256 MiB, which a read of the chunk asks for whole. Asked for either,
// the store sends 3 MiB under a 206 naming the bytes asked for and ends the
// body, and the read fails having allocated at most four times what the
// store sent. A 200 with the same body is refused after reading at most
// MaxErrorBody of it.
func TestHostileLayoutReservesWhatArrives(t *testing.T) {
	const sent = 3 << 20
	for _, tc := range []struct {
		name      string
		scheme    secure.Scheme
		chunkSize uint32
		fragment  int
		status    int
		read      func(*remote.Source, secure.Manifest) error
	}{
		{"run", secure.SchemeECBMHT, 1<<32 - 8, 8, http.StatusPartialContent, readLeaves},
		{"whole table", secure.SchemeECBMHT, 1<<32 - 8, 8, http.StatusOK, readLeaves},
		{"CBC-SHA chunk", secure.SchemeCBCSHA, 256 << 20, 256, http.StatusPartialContent, readChunk},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := forgeStore(t, tc.scheme, tc.chunkSize, tc.fragment)
			fs.status, fs.body = tc.status, make([]byte, sent)
			src, err := remote.Open("http://store.test/docs/hostile", remote.Options{HTTPClient: &http.Client{Transport: fs}})
			if err != nil {
				t.Fatal(err)
			}
			man := src.Manifest()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err = tc.read(src, man)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("accepted %d bytes for a %d-byte chunk", sent, man.ChunkSize)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4*sent {
				t.Fatalf("the client allocated %d bytes on a %d-byte body", alloc, sent)
			}
			if n := fs.read.Load(); tc.status != http.StatusPartialContent && n > remote.MaxErrorBody {
				t.Fatalf("the client read %d bytes of a %d answer; the bound is %d", n, tc.status, remote.MaxErrorBody)
			}
		})
	}
}

// readLeaves reads the leaf records of chunk 0.
func readLeaves(src *remote.Source, _ secure.Manifest) error {
	_, err := src.FragmentHashes(0)
	return err
}

// readChunk reads the ciphertext of chunk 0.
func readChunk(src *remote.Source, man secure.Manifest) error {
	start, end := man.ChunkBounds(0)
	_, err := src.CiphertextRange(start, end-start)
	return err
}

// forgedStore serves a container whose header declares one chunk of a
// forged size. It answers the manifest and the prefix honestly for that
// header, and every other request with a fixed status and body; a 206
// names the bytes asked for. It counts the bytes the client reads of the
// fixed body.
type forgedStore struct {
	manifest, prefix []byte
	status           int
	body             []byte
	read             atomic.Int64
}

// forgeStore protects a small document under scheme and rewrites its
// header to one chunk of chunkSize bytes in fragments of the given size.
func forgeStore(t *testing.T, scheme secure.Scheme, chunkSize uint32, fragment int) *forgedStore {
	t.Helper()
	prot, err := secure.Protect([]byte("<a/>"), secure.DeriveKey(testPassphrase),
		secure.ProtectOptions{Scheme: scheme, ChunkSize: 4096, FragmentSize: fragment})
	if err != nil {
		t.Fatal(err)
	}
	blob := prot.Marshal()
	_, _, ctOff, err := secure.UnmarshalManifest(blob)
	if err != nil {
		t.Fatal(err)
	}
	// The chunk size follows the magic, version and scheme bytes; the
	// ciphertext length ends the prefix.
	prefix := append([]byte(nil), blob[:ctOff]...)
	binary.LittleEndian.PutUint32(prefix[6:], chunkSize)
	binary.LittleEndian.PutUint64(prefix[ctOff-8:], uint64(chunkSize))
	man, _, _, err := secure.UnmarshalManifest(prefix)
	if err != nil {
		t.Fatal(err)
	}
	if man.NumChunks() != 1 || man.CiphertextLen != int64(chunkSize) {
		t.Fatalf("the forged layout has %d chunks and %d bytes of ciphertext", man.NumChunks(), man.CiphertextLen)
	}
	manifest := fmt.Sprintf(`{"etag":%q,"manifest":{"ciphertext_offset":%d,"blob_size":%d,"version":1}}`, forgedETag, ctOff, ctOff+int64(chunkSize))
	return &forgedStore{manifest: []byte(manifest), prefix: prefix}
}

const forgedETag = `"forged"`

func (fs *forgedStore) RoundTrip(r *http.Request) (*http.Response, error) {
	var first, last int64
	fmt.Sscanf(r.Header.Get("Range"), "bytes=%d-%d", &first, &last)
	status, body, read := fs.status, fs.body, &fs.read
	switch {
	case strings.HasSuffix(r.URL.Path, "/manifest"):
		status, body, read = http.StatusOK, fs.manifest, new(atomic.Int64)
	case strings.HasSuffix(r.URL.Path, "/blob") && first == 0:
		status, body, read = http.StatusPartialContent, fs.prefix, new(atomic.Int64)
	}
	h := http.Header{"Etag": {forgedETag}}
	if status == http.StatusPartialContent {
		h.Set("Content-Range", fmt.Sprintf("bytes %d-%d/*", first, last))
	}
	return &http.Response{
		StatusCode:    status,
		Status:        fmt.Sprintf("%d %s", status, http.StatusText(status)),
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        h,
		Body:          io.NopCloser(&countReader{r: bytes.NewReader(body), n: read}),
		ContentLength: int64(len(body)),
		Request:       r,
	}, nil
}

// TestResyncSurvivesOverflowingManifest: a manifest whose numbers overflow
// a read bound or the container's layout fails the re-sync with an error;
// it must not crash the client. A blob size of MaxInt64 behind the
// container's own offset disagrees with its layout; an offset of MaxInt64
// makes MaxInt64 the prefix bound. Both are served under the blob's current
// entity tag, so the prefix request is answered.
func TestResyncSurvivesOverflowingManifest(t *testing.T) {
	for _, tc := range []struct {
		name      string
		off, size int64 // an offset of 0 stands for the container's own
	}{
		{"blob size", 0, math.MaxInt64},
		{"offset", math.MaxInt64, math.MaxInt64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := newBoundDoc(t)
			src, err := d.open()
			if err != nil {
				t.Fatal(err)
			}
			entry, err := d.srv.Store().Entry("hospital")
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := entry.Update([]xmlac.Edit{{Op: xmlac.EditSetText, Path: "/Hospital/Folder[3]/Admin/Phone", Text: "5551234567"}}, nil); err != nil {
				t.Fatal(err)
			}
			_, etag := entry.Blob()
			off := tc.off
			if off == 0 {
				off = d.ctOff
			}
			honest := d.handler
			d.handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if strings.HasSuffix(r.URL.Path, "/manifest") {
					fmt.Fprintf(w, `{"etag":%q,"manifest":{"ciphertext_offset":%d,"blob_size":%d,"version":2}}`, etag, off, tc.size)
					return
				}
				honest.ServeHTTP(w, r)
			})
			if _, err := src.Revalidate(); err == nil {
				t.Fatal("a re-sync against an overflowing manifest succeeded")
			}
		})
	}
}
