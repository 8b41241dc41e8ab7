package remote_test

import (
	"bytes"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"net/textproto"
	"strconv"
	"strings"
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
	blob, _ := entry.Blob()
	prot, err := xmlac.UnmarshalProtected(blob)
	if err != nil {
		t.Fatal(err)
	}
	m := prot.Manifest()
	return &rangeDoc{store: srv.Handler(), blob: blob, ctOff: m.CiphertextOffset, ctLen: m.CiphertextLen}
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
// requests get the given response.
func (d *rangeDoc) open(t testing.TB, status int, contentType, contentRange string, body []byte) *remote.Source {
	t.Helper()
	rt := &rangeTransport{doc: d, respond: func(r *http.Request) *http.Response {
		h := http.Header{}
		if contentType != "" {
			h.Set("Content-Type", contentType)
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
			Body:          io.NopCloser(bytes.NewReader(body)),
			ContentLength: int64(len(body)),
			Request:       r,
		}
	}}
	src, err := remote.Open("http://store.test/docs/hospital", remote.Options{HTTPClient: &http.Client{Transport: rt}})
	if err != nil {
		t.Fatal(err)
	}
	return src
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

// The ciphertext read every range-response case makes: pages 1 and 2.
const (
	readOff = page
	readLen = 2 * page
)

// TestLyingContentRangeIsAnError: a range response whose Content-Range names
// bytes the untrusted store has no business sending — past the end of the
// ciphertext, before it, or more or fewer bytes than the body holds — fails
// the read with an error, in a single-part response and in a multipart part.
// Such a range once reached a slice expression with a negative bound and
// crashed the client process.
func TestLyingContentRangeIsAnError(t *testing.T) {
	d := newRangeDoc(t)
	pastEnd := d.ctOff + ((d.ctLen+page-1)/page+4)*page
	body := make([]byte, 2*page)
	cases := map[string]string{
		"past the end":     d.rangeOf(pastEnd, 2*page),
		"before the start": d.rangeOf(d.ctOff-page, 2*page),
		"longer than body": d.rangeOf(d.ctOff+readOff, 3*page),
		"reversed":         fmt.Sprintf("bytes %d-%d/%d", d.ctOff+readOff+page, d.ctOff+readOff, len(d.blob)),
	}
	for name, lie := range cases {
		t.Run(name+"/single-part", func(t *testing.T) {
			src := d.open(t, http.StatusPartialContent, "application/octet-stream", lie, body)
			if _, err := src.CiphertextRange(readOff, readLen); err == nil {
				t.Fatalf("a 206 naming %q was accepted", lie)
			}
		})
		t.Run(name+"/multipart", func(t *testing.T) {
			ct, mp := multipartBody([]string{lie}, [][]byte{body})
			src := d.open(t, http.StatusPartialContent, ct, "", mp)
			if _, err := src.CiphertextRange(readOff, readLen); err == nil {
				t.Fatalf("a multipart part naming %q was accepted", lie)
			}
		})
	}
	// The honest answers to the same read pass.
	honest := d.blob[d.ctOff+readOff : d.ctOff+readOff+readLen]
	src := d.open(t, http.StatusPartialContent, "application/octet-stream", d.rangeOf(d.ctOff+readOff, readLen), honest)
	if got, err := src.CiphertextRange(readOff, readLen); err != nil || !bytes.Equal(got, honest) {
		t.Fatalf("honest single-part response: %v", err)
	}
	ct, mp := multipartBody(
		[]string{d.rangeOf(d.ctOff+readOff, page), d.rangeOf(d.ctOff+readOff+page, page)},
		[][]byte{honest[:page], honest[page:]})
	src = d.open(t, http.StatusPartialContent, ct, "", mp)
	if got, err := src.CiphertextRange(readOff, readLen); err != nil || !bytes.Equal(got, honest) {
		t.Fatalf("honest multipart response: %v", err)
	}
}

// FuzzRangeResponse drives the client's range-response parser with whatever
// an untrusted store may send back for one ciphertext read: any status,
// Content-Type, Content-Range and body, multipart framing included. The
// manifest and the prefix are the real document's. The parser must never
// panic, a read that succeeds returns exactly the bytes requested, and no
// page it caches is longer than a page.
func FuzzRangeResponse(f *testing.F) {
	d := newRangeDoc(f)
	honest := d.blob[d.ctOff+readOff : d.ctOff+readOff+readLen]
	f.Add(uint16(http.StatusPartialContent), "application/octet-stream", d.rangeOf(d.ctOff+readOff, readLen), honest)
	ct, mp := multipartBody(
		[]string{d.rangeOf(d.ctOff+readOff, page), d.rangeOf(d.ctOff+readOff+page, page)},
		[][]byte{honest[:page], honest[page:]})
	f.Add(uint16(http.StatusPartialContent), ct, "", mp)
	pastEnd := d.ctOff + ((d.ctLen+page-1)/page+4)*page
	f.Add(uint16(http.StatusPartialContent), "application/octet-stream", d.rangeOf(pastEnd, 2*page), make([]byte, 2*page))
	f.Add(uint16(http.StatusOK), "application/octet-stream", "", d.blob)
	f.Fuzz(func(t *testing.T, status uint16, contentType, contentRange string, body []byte) {
		if status < 100 || status > 999 {
			return // net/http refuses such a status line before the client sees it
		}
		src := d.open(t, int(status), contentType, contentRange, body)
		got, err := src.CiphertextRange(readOff, readLen)
		if err == nil && len(got) != readLen {
			t.Fatalf("read of %d bytes returned %d", readLen, len(got))
		}
		if n := src.MaxCachedPageLen(); n > remote.PageSize {
			t.Fatalf("cached a %d-byte page", n)
		}
	})
}
