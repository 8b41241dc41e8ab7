package remote_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"mime"
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
	read        atomic.Int64
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
		// Spaces, so that even the manifest JSON stays valid. Inside a
		// multipart body they go into the last part.
		at := len(body)
		if _, params, err := mime.ParseMediaType(resp.Header.Get("Content-Type")); err == nil && params["boundary"] != "" {
			at = bytes.LastIndex(body, []byte("\r\n--"+params["boundary"]+"--"))
		}
		rd = io.MultiReader(bytes.NewReader(body[:at]), io.LimitReader(spaces{}, 64<<20), bytes.NewReader(body[at:]))
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
// from the honest store.
func TestResponseBodiesAreBounded(t *testing.T) {
	blob := func(r *http.Request) (string, bool) {
		return r.Header.Get("Range"), strings.HasSuffix(r.URL.Path, "/blob")
	}
	ciphertextRange := func(r *http.Request) bool {
		rng, ok := blob(r)
		return ok && !strings.HasPrefix(rng, "bytes=0-") && !strings.Contains(rng, ",")
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
		bound:       func(d *boundDoc) int64 { _, b := d.man.LeafBounds(0, d.man.NumChunks()); return b },
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
		bound:       func(d *boundDoc) int64 { return int64(len(d.blob)) },
		call:        readPages,
	}, {
		// Pages 1-3 are cached first; pages 0 and 4 are then farther apart
		// than the gap threshold, so one multi-range request fetches them.
		name: "multipart",
		target: func(r *http.Request) bool {
			rng, ok := blob(r)
			return ok && strings.Contains(rng, ",")
		},
		bound: func(*boundDoc) int64 { return 2*page + 3*512 },
		call: func(d *boundDoc) error {
			src, err := d.open()
			if err != nil {
				return err
			}
			if _, err := src.CiphertextRange(page, 3*page); err != nil {
				return err
			}
			_, err = src.CiphertextRange(0, 5*page)
			return err
		},
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
			if err := tc.call(d); !errors.Is(err, secure.ErrIntegrity) {
				t.Fatalf("an over-long response must fail with ErrIntegrity, got %v", err)
			}
			if extra, bound := d.read.Load()-honest.read.Load(), tc.bound(d); extra > bound+1 {
				t.Fatalf("the client read %d bytes more than from the honest store; the bound is %d", extra, bound)
			}
		})
	}
}

// TestHostileLayoutReservesWhatArrives: the leaf records a chunk has follow
// from the layout the store declares, so the client must not reserve them
// before they arrive. The store's container header declares one ECB-MHT
// chunk of 4 GiB - 8 bytes in 8-byte fragments, 10 GiB of leaf records.
// Asked for them, it sends 3 MiB and ends the body, under a 206 naming the
// run or under a 200: the client fails having allocated at most four times
// what it sent.
func TestHostileLayoutReservesWhatArrives(t *testing.T) {
	prot, err := secure.Protect([]byte("<a/>"), secure.DeriveKey(testPassphrase),
		secure.ProtectOptions{Scheme: secure.SchemeECBMHT, ChunkSize: 4096, FragmentSize: 8})
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
	const chunkSize = 1<<32 - 8
	prefix := append([]byte(nil), blob[:ctOff]...)
	binary.LittleEndian.PutUint32(prefix[6:], chunkSize)
	binary.LittleEndian.PutUint64(prefix[ctOff-8:], chunkSize)
	man, _, _, err := secure.UnmarshalManifest(prefix)
	if err != nil {
		t.Fatal(err)
	}
	_, records := man.LeafBounds(0, 1)
	if man.NumChunks() != 1 || records < 8<<30 {
		t.Fatalf("the forged layout has %d chunks and %d bytes of records", man.NumChunks(), records)
	}
	const etag, sent = `"hostile"`, 3 << 20
	manifest := fmt.Sprintf(`{"etag":%q,"manifest":{"ciphertext_offset":%d,"blob_size":%d,"version":1}}`, etag, ctOff, ctOff+chunkSize)
	store := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("ETag", etag)
		if strings.HasSuffix(r.URL.Path, "/manifest") {
			io.WriteString(w, manifest)
			return
		}
		w.WriteHeader(http.StatusPartialContent)
		w.Write(prefix)
	})
	for _, tc := range []struct {
		name, contentRange string
		status             int
	}{
		{"run", fmt.Sprintf("bytes 0-%d/%d", records-1, records), http.StatusPartialContent},
		{"whole table", "", http.StatusOK},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ht := &hashesTransport{store: store, status: tc.status, etag: etag, contentRange: tc.contentRange, body: make([]byte, sent)}
			src, err := remote.Open("http://store.test/docs/hostile", remote.Options{HTTPClient: &http.Client{Transport: ht}})
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err = src.FragmentHashes(0)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("accepted 3 MiB of records for a 10 GiB chunk")
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4*sent {
				t.Fatalf("the client allocated %d bytes on a %d-byte body", alloc, sent)
			}
		})
	}
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
