package remote_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
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

// manifestTransport answers Open's two requests with fixed bodies: the
// manifest JSON, and the prefix for any range starting at byte 0, as a 206
// naming that range under the entity tag its If-Match asked for. It records
// how many body bytes the client read of each and the prefix length asked
// for.
type manifestTransport struct {
	manifest, prefix         []byte
	manifestRead, prefixRead atomic.Int64
	prefixAsked              int64
}

func (mt *manifestTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	status, body, read := http.StatusNotFound, []byte(nil), new(atomic.Int64)
	h := http.Header{}
	rng := r.Header.Get("Range")
	switch {
	case strings.HasSuffix(r.URL.Path, "/manifest"):
		status, body, read = http.StatusOK, mt.manifest, &mt.manifestRead
	case strings.HasSuffix(r.URL.Path, "/blob") && strings.HasPrefix(rng, "bytes=0-"):
		last, err := strconv.ParseInt(strings.TrimPrefix(rng, "bytes=0-"), 10, 64)
		if err != nil {
			return nil, err
		}
		mt.prefixAsked = last + 1
		status, body, read = http.StatusPartialContent, mt.prefix, &mt.prefixRead
		h.Set("Content-Range", fmt.Sprintf("bytes 0-%d/*", last))
		h.Set("ETag", r.Header.Get("If-Match"))
	}
	return &http.Response{
		StatusCode:    status,
		Status:        strconv.Itoa(status) + " " + http.StatusText(status),
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        h,
		Body:          io.NopCloser(&countReader{r: bytes.NewReader(body), n: read}),
		ContentLength: int64(len(body)),
		Request:       r,
	}, nil
}

// manifestResponseSeeds returns the seed inputs of FuzzManifestResponse: the
// honest manifest JSON and prefix of a small document under each scheme,
// then lies about the ECB and ECB-MHT ones. The committed files under
// testdata/fuzz/FuzzManifestResponse hold the same inputs.
func manifestResponseSeeds(tb testing.TB) [][2][]byte {
	tb.Helper()
	xml := xmlstream.SerializeTree(dataset.HospitalFolders(2, 7), false)
	var seeds [][2][]byte
	var manifest map[string]any
	var prefix []byte
	for _, scheme := range []xmlac.Scheme{xmlac.SchemeECB, xmlac.SchemeCBCSHA, xmlac.SchemeCBCSHAC, xmlac.SchemeECBMHT} {
		srv := server.New(server.Options{})
		entry, err := srv.Store().RegisterXML("d", xml, testPassphrase, scheme)
		if err != nil {
			tb.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/docs/d/manifest", nil))
		blob, _ := entry.Blob()
		_, _, ctOff, err := secure.UnmarshalManifest(blob)
		if err != nil {
			tb.Fatal(err)
		}
		prefix = blob[:ctOff:ctOff]
		seeds = append(seeds, [2][]byte{rec.Body.Bytes(), prefix})
		manifest = map[string]any{}
		if err := json.Unmarshal(rec.Body.Bytes(), &manifest); err != nil {
			tb.Fatal(err)
		}
	}
	// lie rewrites the ECB-MHT manifest's layout numbers.
	man := manifest["manifest"].(map[string]any)
	ctOff, blobSize := int64(man["ciphertext_offset"].(float64)), int64(man["blob_size"].(float64))
	lie := func(off, size int64, version uint64) []byte {
		return []byte(fmt.Sprintf(`{"etag":%q,"manifest":{"ciphertext_offset":%d,"blob_size":%d,"version":%d}}`,
			manifest["etag"], off, size, version))
	}
	// The ECB prefix relabelled ECB-MHT: an integrity scheme without digests.
	relabelled := append([]byte(nil), seeds[0][1]...)
	relabelled[5] = byte(secure.SchemeECBMHT)
	return append(seeds,
		[2][]byte{seeds[0][0], relabelled},
		[2][]byte{lie(0, blobSize, 1), prefix},                              // offset 0
		[2][]byte{lie(blobSize+1, blobSize, 1), prefix},                     // offset past the blob
		[2][]byte{lie(ctOff, blobSize+remote.PageSize, 1), prefix},          // blob size disagreeing with the layout
		[2][]byte{lie(ctOff, blobSize, 1), prefix[:len(prefix)/2]},          // truncated prefix
		[2][]byte{lie(1<<62, 1<<63-1, 1<<64-1), prefix},                     // huge numbers
		[2][]byte{lie(1<<63-1, 1<<63-1, 1), prefix},                         // offset and blob size at MaxInt64
		[2][]byte{lie(ctOff, blobSize, 1), append(prefix, prefix...)},       // prefix longer than asked
		[2][]byte{[]byte(`{"manifest":{"ciphertext_offset":"x"}}`), prefix}, // malformed JSON
	)
}

// FuzzManifestResponse drives Open with whatever an untrusted store may
// answer to its first two requests, the manifest JSON and the container
// prefix. Open must never panic; it reads no more of the manifest than its
// fixed cap and no more of the prefix than it asked for; and an Open that
// succeeds describes a consistent layout: the ciphertext ends where the blob
// does, and the digest table holds one digest per chunk (none for ECB).
func FuzzManifestResponse(f *testing.F) {
	for _, seed := range manifestResponseSeeds(f) {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, manifest, prefix []byte) {
		mt := &manifestTransport{manifest: manifest, prefix: prefix}
		src, err := remote.Open("http://store.test/docs/d", remote.Options{HTTPClient: &http.Client{Transport: mt}})
		if n := mt.manifestRead.Load(); n > 64<<10+1 {
			t.Fatalf("read %d bytes of the manifest", n)
		}
		if n := mt.prefixRead.Load(); n-1 > mt.prefixAsked {
			t.Fatalf("read %d prefix bytes after asking for %d", n, mt.prefixAsked)
		}
		if err != nil {
			return
		}
		var payload struct {
			Manifest struct {
				CiphertextOffset int64 `json:"ciphertext_offset"`
				BlobSize         int64 `json:"blob_size"`
			} `json:"manifest"`
		}
		if err := json.Unmarshal(manifest, &payload); err != nil {
			t.Fatalf("Open accepted a manifest that does not decode: %v", err)
		}
		m := src.Manifest()
		if off, size := payload.Manifest.CiphertextOffset, payload.Manifest.BlobSize; off+m.CiphertextLen != size {
			t.Fatalf("accepted offset %d + ciphertext %d != blob size %d", off, m.CiphertextLen, size)
		}
		want := m.NumChunks()
		if m.Scheme == secure.SchemeECB {
			want = 0
		}
		if m.NumDigests != want {
			t.Fatalf("accepted %d digests for %d chunks under %v", m.NumDigests, m.NumChunks(), m.Scheme)
		}
	})
}
