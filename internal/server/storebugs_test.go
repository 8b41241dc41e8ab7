package server

import (
	"bufio"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

// Regression tests for the latent server-store bugs fixed alongside the
// storage engine: time.Now() calls bypassing the injected clock.

// TestStoreTimestampsUseInjectedClock: CreatedAt comes from the injected
// clock, not time.Now() — the stamp is exactly the fake epoch, which no
// wall-clock call can produce — and GET /docs/{id} reports that stamp.
func TestStoreTimestampsUseInjectedClock(t *testing.T) {
	fc := newFakeClock()
	epoch := fc.Now()
	srv := newServerOpts(t, Options{clock: fc})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	putDoc(t, ts, "doc", hospitalXML(2))
	entry, err := srv.Store().Entry("doc")
	if err != nil {
		t.Fatal(err)
	}
	if !entry.CreatedAt.Equal(epoch) {
		t.Fatalf("CreatedAt %v bypassed the injected clock (want %v)", entry.CreatedAt, epoch)
	}
	var info struct {
		Document DocumentInfo `json:"document"`
	}
	if err := json.Unmarshal([]byte(getOK(t, ts.URL+"/docs/doc")), &info); err != nil {
		t.Fatal(err)
	}
	if !info.Document.CreatedAt.Equal(epoch) {
		t.Fatalf("GET /docs/doc reports created_at %v, want %v", info.Document.CreatedAt, epoch)
	}
}

// TestAccessLogDurationUsesInjectedClock: the access-log middleware times
// requests with the injected clock, so under a never-advancing fake clock
// every logged duration is exactly zero. The old code called time.Now()
// directly and logged real elapsed time regardless of the clock option.
func TestAccessLogDurationUsesInjectedClock(t *testing.T) {
	fc := newFakeClock()
	_, ts, buf := newLoggedServer(t, Options{clock: fc})
	putDoc(t, ts, "doc", hospitalXML(2))
	getOK(t, ts.URL+"/docs/doc/blob")

	sawBlob := false
	sc := bufio.NewScanner(strings.NewReader(buf.String()))
	for sc.Scan() {
		var l struct {
			Msg      string `json:"msg"`
			Path     string `json:"path"`
			Duration int64  `json:"duration"`
		}
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("access log line is not JSON: %v\n%s", err, sc.Text())
		}
		if l.Msg != "request" {
			continue
		}
		if l.Duration != 0 {
			t.Fatalf("request %s logged duration %dns under a frozen clock", l.Path, l.Duration)
		}
		if l.Path == "/docs/doc/blob" {
			sawBlob = true
		}
	}
	if !sawBlob {
		t.Fatalf("no access-log line for the blob request\nlog:\n%s", buf.String())
	}
}
