package remote_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"mime"
	"net/http"
	"net/http/httptest"
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
	// store answers 200 with the whole blob.
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
// from an honest store. The call fails with ErrIntegrity, or, for a delta,
// falls back to a full reload; either way the client reads at most the
// bound (plus one byte) beyond what the same call reads from the honest
// store.
func TestResponseBodiesAreBounded(t *testing.T) {
	blob := func(r *http.Request) (string, bool) {
		return r.Header.Get("Range"), strings.HasSuffix(r.URL.Path, "/blob")
	}
	ciphertextRange := func(r *http.Request) bool {
		rng, ok := blob(r)
		return ok && !strings.HasPrefix(rng, "bytes=0-") && !strings.Contains(rng, ",")
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
		fallsBack   bool
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
		name:   "fragment hashes",
		target: func(r *http.Request) bool { return strings.HasSuffix(r.URL.Path, "/hashes") },
		bound:  func(d *boundDoc) int64 { return int64(d.man.NumFragments(0)) * secure.DigestSize },
		call: func(d *boundDoc) error {
			src, err := d.open()
			if err != nil {
				return err
			}
			_, err = src.FragmentHashes(0)
			return err
		},
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
	}, {
		// The cache holds the whole document before the update, so an
		// applied delta keeps clean chunks and a full reload keeps none.
		name:      "delta",
		target:    func(r *http.Request) bool { return strings.HasSuffix(r.URL.Path, "/delta") },
		bound:     func(d *boundDoc) int64 { return secure.MaxDeltaLen(d.man.NumChunks()) },
		fallsBack: true,
		call: func(d *boundDoc) error {
			src, err := d.open()
			if err != nil {
				return err
			}
			if _, err := src.CiphertextRange(0, d.man.CiphertextLen); err != nil {
				return err
			}
			entry, err := d.srv.Store().Entry("hospital")
			if err != nil {
				return err
			}
			if _, _, err := entry.Update([]xmlac.Edit{{Op: xmlac.EditSetText, Path: "/Hospital/Folder[3]/Admin/Phone", Text: "5551234567"}}, nil); err != nil {
				return err
			}
			if _, err := src.Revalidate(); err != nil {
				return err
			}
			if v := src.Manifest().Version; v != 2 {
				return fmt.Errorf("re-synced to version %d, want 2", v)
			}
			if reused := src.Stats().ChunksReused; (reused > 0) != (d.target == nil) {
				return fmt.Errorf("re-sync kept %d clean chunks", reused)
			}
			return nil
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
			switch {
			case tc.fallsBack && err != nil:
				t.Fatalf("an over-long response must fall back, got %v", err)
			case !tc.fallsBack && !errors.Is(err, secure.ErrIntegrity):
				t.Fatalf("an over-long response must fail with ErrIntegrity, got %v", err)
			}
			if extra, bound := d.read.Load()-honest.read.Load(), tc.bound(d); extra > bound+1 {
				t.Fatalf("the client read %d bytes more than from the honest store; the bound is %d", extra, bound)
			}
		})
	}
}

// TestResyncSurvivesOverflowingManifest: a manifest whose numbers overflow
// a read bound fails the re-sync with an error; it must not crash the
// client. A blob size of MaxInt64 past offset 1 overflows the chunk count
// that bounds the delta read; an offset of MaxInt64, served under the
// blob's current entity tag so the prefix request is answered, makes
// MaxInt64 the prefix bound.
func TestResyncSurvivesOverflowingManifest(t *testing.T) {
	for _, tc := range []struct {
		name        string
		off, size   int64
		currentETag bool
	}{
		{"blob size", 1, math.MaxInt64, false},
		{"offset", math.MaxInt64, math.MaxInt64, true},
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
			etag := `"lie"`
			if tc.currentETag {
				_, etag = entry.Blob()
			}
			honest := d.handler
			d.handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if strings.HasSuffix(r.URL.Path, "/manifest") {
					fmt.Fprintf(w, `{"etag":%q,"manifest":{"ciphertext_offset":%d,"blob_size":%d,"version":2}}`, etag, tc.off, tc.size)
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
