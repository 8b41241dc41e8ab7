package server

import (
	"bufio"
	"encoding/json"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"xmlac"
)

// Regression tests for the latent server-store bugs fixed alongside the
// storage engine: the retained-delta trim pinning evicted deltas through the
// shared backing array, and time.Now() calls bypassing the injected clock.

// TestRetainedDeltaTrimReleasesEvicted pins the memory-leak fix in
// appendRetained: once a delta falls out of the retention window it must
// become collectable. The old in-place reslice kept every evicted
// *UpdateDelta reachable through the shared backing array for the life of
// the document.
func TestRetainedDeltaTrimReleasesEvicted(t *testing.T) {
	evicted := &xmlac.UpdateDelta{FromVersion: 1, ToVersion: 2}
	collected := make(chan struct{})
	runtime.SetFinalizer(evicted, func(*xmlac.UpdateDelta) { close(collected) })

	deltas := []*xmlac.UpdateDelta{evicted}
	evicted = nil
	for v := uint64(2); v < uint64(2+maxRetainedDeltas); v++ {
		deltas = appendRetained(deltas, &xmlac.UpdateDelta{FromVersion: v, ToVersion: v + 1})
	}
	if len(deltas) != maxRetainedDeltas || deltas[0].FromVersion != 2 {
		t.Fatalf("retention window wrong: %d deltas, first from %d", len(deltas), deltas[0].FromVersion)
	}

	deadline := time.After(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(deltas)
			return
		case <-deadline:
			t.Fatal("evicted delta never became collectable: the trim still shares the backing array")
		default:
			time.Sleep(10 * time.Millisecond)
		}
	}
}

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
