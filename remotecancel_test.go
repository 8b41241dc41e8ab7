package xmlac_test

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"xmlac"
	"xmlac/internal/dataset"
	"xmlac/internal/server"
	"xmlac/internal/xmlstream"
)

// TestCanceledContextAbortsRemoteStream: a remote streamed view stops when
// its context is canceled — the in-flight range request the server is
// holding open is closed (the handler observes r.Context().Done()) and the
// stream fails with context.Canceled instead of waiting out the response. The aborted stream still reports its partial
// metrics exactly once, alongside the error, like any other aborted stream.
func TestCanceledContextAbortsRemoteStream(t *testing.T) {
	srv := server.New(server.Options{})
	xml := xmlstream.SerializeTree(dataset.HospitalFolders(24, 5), false)
	if _, err := srv.Store().RegisterXML("hospital", xml, "cancel-test", xmlac.SchemeECBMHT); err != nil {
		t.Fatal(err)
	}
	// The first few blob fetches of the evaluation pass through (reader and
	// decoder setup), so the cancellation lands mid-scan — the case where the
	// partial-metrics fold matters.
	var blocking atomic.Bool
	var passed atomic.Int32
	arrived := make(chan struct{}, 16)
	release := make(chan struct{})
	handler := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if blocking.Load() && strings.HasSuffix(r.URL.Path, "/blob") && passed.Add(1) > 3 {
			select {
			case arrived <- struct{}{}:
			default:
			}
			select {
			case <-r.Context().Done():
				return
			case <-release:
			}
		}
		handler.ServeHTTP(w, r)
	}))
	defer ts.Close()
	defer close(release)

	doc, err := xmlac.OpenRemote(ts.URL+"/docs/hospital", xmlac.DeriveKey("cancel-test"))
	if err != nil {
		t.Fatal(err)
	}
	cp, err := xmlac.DoctorPolicy("DrA").Compile()
	if err != nil {
		t.Fatal(err)
	}
	blocking.Store(true)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var buf bytes.Buffer
	type outcome struct {
		metrics *xmlac.Metrics
		err     error
	}
	done := make(chan outcome, 1)
	go func() {
		_, m, err := doc.View(ctx, cp, xmlac.ViewOptions{}, &buf)
		done <- outcome{m, err}
	}()
	<-arrived // the evaluation's range request is in flight, held open
	cancel()
	out := <-done
	if !errors.Is(out.err, context.Canceled) {
		t.Fatalf("aborted stream returned %v, want context.Canceled", out.err)
	}
	if out.metrics == nil {
		t.Fatal("aborted stream returned nil metrics; its partial work is unaccounted")
	}
	if out.metrics.RoundTrips <= 0 {
		t.Fatalf("partial metrics carry no wire activity: %+v", out.metrics)
	}
}

// TestCanceledContextCutsRemoteResync: a view whose context expires while
// the re-sync's manifest request stalls fails promptly with the context's
// error. The context is bound to the source for the whole view, the re-sync
// after a document change included.
func TestCanceledContextCutsRemoteResync(t *testing.T) {
	ps := startPatchingServer(t, 12)
	doc, err := xmlac.OpenRemote(ps.url, xmlac.DeriveKey(remotePassphrase))
	if err != nil {
		t.Fatal(err)
	}
	cp, err := xmlac.SecretaryPolicy().Compile()
	if err != nil {
		t.Fatal(err)
	}
	ps.patch(t)
	ps.stallManifest.Store(true)
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err = doc.View(ctx, cp, xmlac.ViewOptions{}, nil)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("view with an expired context returned %v, want context.DeadlineExceeded", err)
	}
	if elapsed >= stallLimit/2 {
		t.Fatalf("view took %s: the stalled re-sync was not cut by the context", elapsed)
	}
}
