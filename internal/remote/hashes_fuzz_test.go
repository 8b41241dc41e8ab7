package remote_test

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"xmlac/internal/remote"
	"xmlac/internal/secure"
)

// hashesTransport serves a real ECB-MHT document from the store's handler,
// except that every fragment-hashes request gets a fixed answer: a 200 under
// the given ETag with the given body. It records how many body bytes the
// client read of that answer.
type hashesTransport struct {
	store http.Handler
	etag  string
	body  []byte
	read  atomic.Int64
}

func (ht *hashesTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if !strings.HasSuffix(r.URL.Path, "/hashes") {
		rec := httptest.NewRecorder()
		ht.store.ServeHTTP(rec, r)
		return rec.Result(), nil
	}
	return &http.Response{
		StatusCode:    http.StatusOK,
		Status:        "200 OK",
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Etag": {ht.etag}},
		Body:          io.NopCloser(&countReader{r: bytes.NewReader(ht.body), n: &ht.read}),
		ContentLength: int64(len(ht.body)),
		Request:       r,
	}, nil
}

// FuzzHashesResponse drives the client's fragment-hashes request with
// whatever an untrusted store may answer: any body under any ETag, for any
// chunk index. The client must never panic, read no more of the body than
// the chunk's records, and either fail or return exactly the chunk's
// records: DigestSize bytes per fragment of a chunk inside the layout,
// under the ETag it holds (or none).
func FuzzHashesResponse(f *testing.F) {
	d := newRangeDoc(f)
	honest := func(chunk int) (string, []byte) {
		rec := httptest.NewRecorder()
		d.store.ServeHTTP(rec, httptest.NewRequest("GET", "/docs/hospital/hashes?chunk="+strconv.Itoa(chunk), nil))
		if rec.Code != http.StatusOK {
			f.Fatalf("hashes of chunk %d: %d %s", chunk, rec.Code, rec.Body)
		}
		return rec.Header().Get("ETag"), rec.Body.Bytes()
	}
	etag, first := honest(0)
	numChunks := int((d.ctLen + secure.DefaultChunkSize - 1) / secure.DefaultChunkSize)
	_, last := honest(numChunks - 1)
	long := append(append([]byte(nil), first...), first[:secure.DigestSize]...)
	f.Add(0, etag, first)                // honest
	f.Add(numChunks-1, etag, last)       // honest, the last chunk
	f.Add(0, "", first)                  // no ETag
	f.Add(0, etag, first[:len(first)-1]) // one byte short
	f.Add(0, etag, long)                 // one record long
	f.Add(numChunks-1, etag, first)      // chunk 0's records for the last chunk
	f.Add(0, `"another version"`, first) // wrong ETag
	f.Add(0, etag, []byte{})             // empty
	f.Add(numChunks, etag, first)        // a chunk past the layout
	f.Add(-1, etag, first)               // a negative chunk
	f.Fuzz(func(t *testing.T, chunk int, etag string, body []byte) {
		ht := &hashesTransport{store: d.store, etag: etag, body: body}
		src, err := remote.Open("http://store.test/docs/hospital", remote.Options{HTTPClient: &http.Client{Transport: ht}})
		if err != nil {
			t.Fatal(err)
		}
		m := src.Manifest()
		inLayout := chunk >= 0 && chunk < m.NumChunks()
		want := 0
		if inLayout {
			want = m.NumFragments(chunk) * secure.DigestSize
		}
		got, err := src.FragmentHashes(chunk)
		if n := ht.read.Load(); n > int64(want)+1 {
			t.Fatalf("read %d bytes of the hashes of chunk %d, which has %d", n, chunk, want)
		}
		if err != nil {
			return
		}
		if !inLayout {
			t.Fatalf("accepted hashes of chunk %d in a %d-chunk layout", chunk, m.NumChunks())
		}
		if len(got) != want {
			t.Fatalf("accepted %d bytes of hashes for chunk %d, want %d", len(got), chunk, want)
		}
		if holds := src.ETag(); etag != "" && etag != holds {
			t.Fatalf("accepted hashes under ETag %q while holding %q", etag, holds)
		}
	})
}
