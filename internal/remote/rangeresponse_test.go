package remote_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"net/textproto"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"xmlac"
	"xmlac/internal/dataset"
	"xmlac/internal/remote"
	"xmlac/internal/server"
	"xmlac/internal/xmlstream"
)

// rangeDoc is a registered 6-folder hospital document served in process: the
// store's handler answers the manifest, prefix and hash requests, and the
// test decides what the ciphertext range requests get back.
type rangeDoc struct {
	store http.Handler
	blob  []byte
	etag  string
	ctOff int64
	ctLen int64
}

func newRangeDoc(t testing.TB) *rangeDoc {
	t.Helper()
	srv := server.New(server.Options{})
	xml := xmlstream.SerializeTree(dataset.HospitalFolders(6, 7), false)
	entry, err := srv.Store().RegisterXML("hospital", xml, testPassphrase, xmlac.SchemeECBMHT)
	if err != nil {
		t.Fatal(err)
	}
	blob, etag := entry.Blob()
	prot, err := xmlac.UnmarshalProtected(blob)
	if err != nil {
		t.Fatal(err)
	}
	m := prot.Manifest()
	return &rangeDoc{store: srv.Handler(), blob: blob, etag: etag, ctOff: m.CiphertextOffset, ctLen: m.CiphertextLen}
}

// rangeTransport is an http.RoundTripper over a rangeDoc: requests for the
// blob prefix (bytes=0-...) and every non-blob request reach the store's
// handler, and a ciphertext range request is answered by respond.
type rangeTransport struct {
	doc     *rangeDoc
	respond func(*http.Request) *http.Response
}

func (rt *rangeTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if strings.HasSuffix(r.URL.Path, "/blob") && !strings.HasPrefix(r.Header.Get("Range"), "bytes=0-") {
		return rt.respond(r), nil
	}
	rec := httptest.NewRecorder()
	rt.doc.store.ServeHTTP(rec, r)
	return rec.Result(), nil
}

// open binds a Source to the document through a transport whose range
// requests get the given response, and returns it with the count of body
// bytes the client reads of those responses.
func (d *rangeDoc) open(t testing.TB, status int, contentType, etag, contentRange string, body []byte) (*remote.Source, *atomic.Int64) {
	t.Helper()
	read := new(atomic.Int64)
	rt := &rangeTransport{doc: d, respond: func(r *http.Request) *http.Response {
		h := http.Header{}
		if contentType != "" {
			h.Set("Content-Type", contentType)
		}
		if etag != "" {
			h.Set("ETag", etag)
		}
		if contentRange != "" {
			h.Set("Content-Range", contentRange)
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
		}
	}}
	src, err := remote.Open("http://store.test/docs/hospital", remote.Options{HTTPClient: &http.Client{Transport: rt}})
	if err != nil {
		t.Fatal(err)
	}
	return src, read
}

// rangeOf renders the Content-Range of blob bytes [start, start+n).
func (d *rangeDoc) rangeOf(start, n int64) string {
	return fmt.Sprintf("bytes %d-%d/%d", start, start+n-1, len(d.blob))
}

// multipartBody renders a multipart/byteranges body with one part per
// Content-Range, each carrying the given part body, and its Content-Type.
func multipartBody(ranges []string, parts [][]byte) (string, []byte) {
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for i, cr := range ranges {
		pw, _ := mw.CreatePart(textproto.MIMEHeader{
			"Content-Type":  {"application/octet-stream"},
			"Content-Range": {cr},
		})
		pw.Write(parts[i])
	}
	mw.Close()
	return "multipart/byteranges; boundary=" + mw.Boundary(), buf.Bytes()
}

const octetStream = "application/octet-stream"

// The ciphertext read every range-response case makes: pages 1 and 2.
const (
	readOff = page
	readLen = 2 * page
)

// TestLyingContentRangeIsAnError: a range response whose Content-Range names
// bytes other than the ones asked for — past the end of the ciphertext,
// before it, more or fewer bytes than the body holds, or a superset of the
// bytes asked for — fails the read with an error, and so does a body longer
// or shorter than its Content-Range. Such a range once reached a slice
// expression with a negative bound and crashed the client process. The
// client reads no multipart answer: each lie fails inside a
// multipart/byteranges part too, and so does an honest multipart answer.
func TestLyingContentRangeIsAnError(t *testing.T) {
	d := newRangeDoc(t)
	pastEnd := d.ctOff + ((d.ctLen+page-1)/page+4)*page
	body := make([]byte, 2*page)
	superset := d.blob[d.ctOff+readOff-page : d.ctOff+readOff+readLen+page]
	for name, tc := range map[string]struct {
		contentRange string
		body         []byte
	}{
		"past the end":     {d.rangeOf(pastEnd, 2*page), body},
		"before the start": {d.rangeOf(d.ctOff-page, 2*page), body},
		"longer than body": {d.rangeOf(d.ctOff+readOff, 3*page), body},
		"reversed":         {fmt.Sprintf("bytes %d-%d/%d", d.ctOff+readOff+page, d.ctOff+readOff, len(d.blob)), body},
		// The store's bytes, one page either side of the read.
		"covering superset": {d.rangeOf(d.ctOff+readOff-page, int64(len(superset))), superset},
	} {
		t.Run(name+"/single-part", func(t *testing.T) {
			src, _ := d.open(t, http.StatusPartialContent, octetStream, d.etag, tc.contentRange, tc.body)
			if _, err := src.CiphertextRange(readOff, readLen); err == nil {
				t.Fatalf("a 206 naming %q was accepted", tc.contentRange)
			}
		})
		t.Run(name+"/multipart", func(t *testing.T) {
			ct, mp := multipartBody([]string{tc.contentRange}, [][]byte{tc.body})
			src, _ := d.open(t, http.StatusPartialContent, ct, d.etag, "", mp)
			if _, err := src.CiphertextRange(readOff, readLen); err == nil {
				t.Fatalf("a multipart part naming %q was accepted", tc.contentRange)
			}
		})
	}
	// A body unlike its Content-Range fails too: one byte short of it, or
	// one byte past it while still inside the read.
	honest := d.blob[d.ctOff+readOff : d.ctOff+readOff+readLen]
	for name, tc := range map[string]struct {
		contentRange string
		body         []byte
	}{
		"body one byte short":          {d.rangeOf(d.ctOff+readOff, readLen), honest[:readLen-1]},
		"body one byte past its range": {d.rangeOf(d.ctOff+readOff, readLen-1), honest},
	} {
		t.Run(name+"/single-part", func(t *testing.T) {
			src, _ := d.open(t, http.StatusPartialContent, octetStream, d.etag, tc.contentRange, tc.body)
			if _, err := src.CiphertextRange(readOff, readLen); err == nil {
				t.Fatalf("a %d-byte 206 naming %q was accepted", len(tc.body), tc.contentRange)
			}
		})
	}
	// The honest single-range answer to the same read passes; the same
	// bytes as a multipart answer do not.
	src, _ := d.open(t, http.StatusPartialContent, octetStream, d.etag, d.rangeOf(d.ctOff+readOff, readLen), honest)
	if got, err := src.CiphertextRange(readOff, readLen); err != nil || !bytes.Equal(got, honest) {
		t.Fatalf("honest response: %v", err)
	}
	ct, mp := multipartBody(
		[]string{d.rangeOf(d.ctOff+readOff, page), d.rangeOf(d.ctOff+readOff+page, page)},
		[][]byte{honest[:page], honest[page:]})
	src, _ = d.open(t, http.StatusPartialContent, ct, d.etag, "", mp)
	if _, err := src.CiphertextRange(readOff, readLen); err == nil {
		t.Fatal("an honest multipart answer was accepted")
	}
}

// FuzzRangeResponse drives the client's range reader with whatever an
// untrusted store may send back for one ciphertext read: any status,
// Content-Type, ETag, Content-Range and body, multipart framing included.
// The manifest and the prefix are the real document's. The client must
// never panic. A read succeeds only on a 206 whose Content-Range names
// exactly the bytes asked for, under the ETag the client holds (or none),
// and it returns the body's bytes; a 412 is ErrChanged; of any other
// status the client reads at most MaxErrorBody. Every page it caches is at
// most a page long and holds no capacity beyond its length.
func FuzzRangeResponse(f *testing.F) {
	d := newRangeDoc(f)
	asked := d.rangeOf(d.ctOff+readOff, readLen)
	honest := d.blob[d.ctOff+readOff : d.ctOff+readOff+readLen]
	f.Add(uint16(http.StatusPartialContent), octetStream, d.etag, asked, honest)
	ct, mp := multipartBody(
		[]string{d.rangeOf(d.ctOff+readOff, page), d.rangeOf(d.ctOff+readOff+page, page)},
		[][]byte{honest[:page], honest[page:]})
	f.Add(uint16(http.StatusPartialContent), ct, d.etag, "", mp)
	pastEnd := d.ctOff + ((d.ctLen+page-1)/page+4)*page
	f.Add(uint16(http.StatusPartialContent), octetStream, d.etag, d.rangeOf(pastEnd, 2*page), make([]byte, 2*page))
	f.Add(uint16(http.StatusOK), octetStream, d.etag, "", d.blob)
	superset := d.blob[d.ctOff+readOff-page : d.ctOff+readOff+readLen+page]
	f.Add(uint16(http.StatusPartialContent), octetStream, d.etag, d.rangeOf(d.ctOff+readOff-page, int64(len(superset))), superset)
	f.Add(uint16(http.StatusPreconditionFailed), octetStream, d.etag, "", []byte("precondition failed"))
	f.Add(uint16(http.StatusPartialContent), octetStream, `"another version"`, asked, honest)
	f.Fuzz(func(t *testing.T, status uint16, contentType, etag, contentRange string, body []byte) {
		if status < 100 || status > 999 {
			return // net/http refuses such a status line before the client sees it
		}
		src, read := d.open(t, int(status), contentType, etag, contentRange, body)
		got, err := src.CiphertextRange(readOff, readLen)
		if status == http.StatusPreconditionFailed && !errors.Is(err, remote.ErrChanged) {
			t.Fatalf("a 412 gave %v, want ErrChanged", err)
		}
		if n := read.Load(); status != http.StatusPartialContent && n > remote.MaxErrorBody {
			t.Fatalf("read %d bytes of a %d answer; the bound is %d", n, status, remote.MaxErrorBody)
		}
		if err := src.CheckCache(); err != nil {
			t.Fatal(err)
		}
		if err != nil {
			return
		}
		if status != http.StatusPartialContent {
			t.Fatalf("accepted a %d answer", status)
		}
		if a, b, err := remote.ParseContentRange(contentRange); err != nil || a != d.ctOff+readOff || b != d.ctOff+readOff+readLen-1 {
			t.Fatalf("accepted a 206 naming %q for the bytes %q", contentRange, asked)
		}
		if etag != "" && etag != src.ETag() {
			t.Fatalf("accepted bytes under ETag %q while holding %q", etag, src.ETag())
		}
		if !bytes.Equal(got, body) {
			t.Fatalf("accepted 206 returned bytes other than its body's")
		}
	})
}
