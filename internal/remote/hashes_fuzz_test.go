package remote_test

import (
	"bytes"
	"errors"
	"fmt"
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
// except that every leaf-table request gets a fixed answer: the given
// status, ETag, Content-Range and body. It records how many body bytes the
// client read of that answer.
type hashesTransport struct {
	store        http.Handler
	status       int
	etag         string
	contentRange string
	body         []byte
	read         atomic.Int64
}

func (ht *hashesTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if !strings.HasSuffix(r.URL.Path, "/hashes") {
		rec := httptest.NewRecorder()
		ht.store.ServeHTTP(rec, r)
		return rec.Result(), nil
	}
	h := http.Header{}
	if ht.etag != "" {
		h.Set("ETag", ht.etag)
	}
	if ht.contentRange != "" {
		h.Set("Content-Range", ht.contentRange)
	}
	return &http.Response{
		StatusCode:    ht.status,
		Status:        strconv.Itoa(ht.status) + " " + http.StatusText(ht.status),
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        h,
		Body:          io.NopCloser(&countReader{r: bytes.NewReader(ht.body), n: &ht.read}),
		ContentLength: int64(len(ht.body)),
		Request:       r,
	}, nil
}

// FuzzHashesResponse drives the client's leaf-table request with whatever
// an untrusted store may answer: any status, ETag, Content-Range and body,
// for any chunk index. A miss for chunk i on a fresh source asks for the
// records of the run from i to the end of the layout. The client must never
// panic. Of a 206 it reads at most the run's bytes plus one, and of any
// other status, a 200 with the whole table included, at most MaxErrorBody.
// An accepted answer is a 206 whose Content-Range names exactly the run's
// bytes, under the ETag the client holds (or none), and gives every chunk
// of the run exactly NumFragments(c) x DigestSize bytes, taken from the body
// at the chunk's position, with no further request.
func FuzzHashesResponse(f *testing.F) {
	d := newRangeDoc(f)
	serve := func(rng string) (string, string, []byte) {
		req := httptest.NewRequest("GET", "/docs/hospital/hashes", nil)
		if rng != "" {
			req.Header.Set("Range", rng)
		}
		rec := httptest.NewRecorder()
		d.store.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK && rec.Code != http.StatusPartialContent {
			f.Fatalf("leaf table %q: %d %s", rng, rec.Code, rec.Body)
		}
		return rec.Header().Get("ETag"), rec.Header().Get("Content-Range"), rec.Body.Bytes()
	}
	etag, _, table := serve("")
	m, _, _, err := secure.UnmarshalManifest(d.blob)
	if err != nil {
		f.Fatal(err)
	}
	numChunks := m.NumChunks()
	// run serves the honest answer for the records of chunks [i, j).
	run := func(i, j int) (string, []byte) {
		a, b := m.LeafBounds(i, j)
		_, cr, body := serve(fmt.Sprintf("bytes=%d-%d", a, b-1))
		return cr, body
	}
	mid, last := 3, numChunks-1
	midCR, midRun := run(mid, numChunks)
	lastCR, lastRun := run(last, numChunks)
	_, firstChunk := run(0, 1)
	// The bytes of the table as long as chunk 3's run, one chunk earlier.
	shiftStart, _ := m.LeafBounds(mid-1, mid)
	shiftEnd := shiftStart + int64(len(midRun))
	shiftCR := fmt.Sprintf("bytes %d-%d/%d", shiftStart, shiftEnd-1, len(table))
	long := append(append([]byte(nil), midRun...), midRun[:secure.DigestSize]...)
	f.Add(mid, 206, etag, midCR, midRun)                       // honest
	f.Add(last, 206, etag, lastCR, lastRun)                    // honest, a run that ends at the last chunk
	f.Add(mid, 206, "", midCR, midRun)                         // no ETag
	f.Add(mid, 206, etag, midCR, midRun[:len(midRun)-1])       // one byte short
	f.Add(mid, 206, etag, midCR, long)                         // one record long
	f.Add(last, 206, etag, lastCR, firstChunk)                 // chunk 0's records for the last chunk
	f.Add(mid, 206, `"another version"`, midCR, midRun)        // wrong ETag
	f.Add(mid, 206, etag, midCR, []byte{})                     // empty
	f.Add(numChunks, 206, etag, midCR, midRun)                 // a chunk past the layout
	f.Add(-1, 206, etag, midCR, midRun)                        // a negative chunk
	f.Add(mid, 206, etag, shiftCR, table[shiftStart:shiftEnd]) // a Content-Range that names another run
	f.Add(mid, 200, etag, "", table)                           // a 200 with the whole table: refused
	f.Add(mid, 412, etag, "", []byte("precondition failed"))   // a stale If-Match
	f.Fuzz(func(t *testing.T, chunk, status int, etag, contentRange string, body []byte) {
		ht := &hashesTransport{store: d.store, status: status, etag: etag, contentRange: contentRange, body: body}
		src, err := remote.Open("http://store.test/docs/hospital", remote.Options{HTTPClient: &http.Client{Transport: ht}})
		if err != nil {
			t.Fatal(err)
		}
		inLayout := chunk >= 0 && chunk < numChunks
		got, err := src.FragmentHashes(chunk)
		read := ht.read.Load()
		if status == http.StatusPartialContent {
			if inLayout {
				if a, b := m.LeafBounds(chunk, numChunks); read > b-a+1 {
					t.Fatalf("read %d bytes of a 206 for the %d-byte run of chunks %d-%d", read, b-a, chunk, numChunks-1)
				}
			}
		} else if read > remote.MaxErrorBody {
			t.Fatalf("read %d bytes of a %d answer; the bound is %d", read, status, remote.MaxErrorBody)
		}
		if status == http.StatusPreconditionFailed && inLayout && !errors.Is(err, remote.ErrChanged) {
			t.Fatalf("a 412 for the leaf table gave %v, want ErrChanged", err)
		}
		if err != nil {
			return
		}
		if !inLayout {
			t.Fatalf("accepted hashes of chunk %d in a %d-chunk layout", chunk, numChunks)
		}
		if holds := src.ETag(); etag != "" && etag != holds {
			t.Fatalf("accepted records under ETag %q while holding %q", etag, holds)
		}
		if status != http.StatusPartialContent {
			t.Fatalf("accepted a %d answer", status)
		}
		base, tableEnd := m.LeafBounds(chunk, numChunks)
		if a, b, err := remote.ParseContentRange(contentRange); err != nil || a != base || b != tableEnd-1 {
			t.Fatalf("accepted Content-Range %q for bytes %d-%d of the table", contentRange, base, tableEnd-1)
		}
		if int64(len(body)) != tableEnd-base {
			t.Fatalf("accepted a %d-byte body for the %d bytes of chunks %d-%d", len(body), tableEnd-base, chunk, numChunks-1)
		}
		trips := src.Stats().RoundTrips
		for c := chunk; c < numChunks; c++ {
			h := got
			if c != chunk {
				if h, err = src.FragmentHashes(c); err != nil {
					t.Fatalf("chunk %d of the accepted answer: %v", c, err)
				}
			}
			a, b := m.LeafBounds(c, c+1)
			want := body[a-base : b-base]
			if !bytes.Equal(h, want) {
				t.Fatalf("chunk %d: %d bytes of records, not the %d at its position in the body", c, len(h), len(want))
			}
		}
		if n := src.Stats().RoundTrips - trips; n != 0 {
			t.Fatalf("reading the records of the accepted answer sent %d more requests", n)
		}
	})
}
