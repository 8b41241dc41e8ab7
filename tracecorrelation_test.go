package xmlac_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"xmlac"
	"xmlac/internal/dataset"
	"xmlac/internal/server"
	"xmlac/internal/xmlstream"
)

// TestMergedTraceCorrelatesClientAndServer pins the distributed-trace
// acceptance criterion end to end: a remote view evaluated under a fresh
// trace ID leaves client phase spans in the client's Trace and request spans
// in the server's recorder under the SAME trace ID, the server spans are
// parent-linked to the client's root span (the span ID the remote source sent
// on the wire), and merging both sides produces one Chrome trace whose events
// carry both lanes and the shared identity.
func TestMergedTraceCorrelatesClientAndServer(t *testing.T) {
	srv := server.New(server.Options{})
	xml := xmlstream.SerializeTree(dataset.HospitalFolders(12, 4), false)
	if _, err := srv.Store().RegisterXML("hospital", xml, "trace-test", xmlac.SchemeECBMHT); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	doc, err := xmlac.OpenRemote(ts.URL+"/docs/hospital", xmlac.DeriveKey("trace-test"))
	if err != nil {
		t.Fatal(err)
	}
	cp, err := xmlac.SecretaryPolicy().Compile()
	if err != nil {
		t.Fatal(err)
	}
	trace := xmlac.NewTrace(0)
	traceID := xmlac.NewTraceID()
	var view bytes.Buffer
	if _, _, err := doc.View(context.Background(), cp, xmlac.ViewOptions{
		Trace:   trace,
		TraceID: traceID,
	}, &view); err != nil {
		t.Fatal(err)
	}
	if view.Len() == 0 {
		t.Fatal("empty view; nothing was traced")
	}

	// Client side: phase spans under the trace ID, all sharing one root.
	clientSpans := trace.Spans(xmlac.TraceFilter{TraceID: traceID})
	if len(clientSpans) == 0 {
		t.Fatal("no client spans recorded under the trace ID")
	}
	root := ""
	sawEval := false
	for _, sp := range clientSpans {
		if sp.TraceID != traceID {
			t.Fatalf("client span %q carries trace %q, want %q", sp.Name, sp.TraceID, traceID)
		}
		if sp.Name == "phase:eval" {
			sawEval = true
		}
		if sp.Parent != "" {
			if root == "" {
				root = sp.Parent
			} else if sp.Parent != root {
				t.Fatalf("client spans disagree on the root: %q vs %q", sp.Parent, root)
			}
		}
	}
	if !sawEval {
		t.Fatalf("no client phase:eval span among %d spans", len(clientSpans))
	}
	if root == "" {
		t.Fatal("client spans carry no root span ID; nothing links the server side")
	}

	// Server side: /debug/trace?id= returns this run's request spans, parent-
	// linked to the client root that traveled in the span ID header.
	resp, err := http.Get(ts.URL + "/debug/trace?id=" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/trace?id=: %d %s", resp.StatusCode, body)
	}
	serverSpans, err := xmlac.ParseTraceJSONL(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if len(serverSpans) == 0 {
		t.Fatal("server recorded no spans for the trace ID")
	}
	sawFetch := false
	for _, sp := range serverSpans {
		if sp.TraceID != traceID {
			t.Fatalf("server span %q carries trace %q, want %q", sp.Name, sp.TraceID, traceID)
		}
		if sp.Name == "server.fetch" {
			sawFetch = true
		}
		if sp.Parent != root {
			t.Fatalf("server span %q parent %q, want client root %q", sp.Name, sp.Parent, root)
		}
	}
	if !sawFetch {
		t.Fatalf("no server.fetch span among %d server spans", len(serverSpans))
	}

	// The merged Chrome trace: both lanes as named processes, events keeping
	// the shared trace ID and the parent linkage in their args.
	var merged bytes.Buffer
	if err := xmlac.WriteMergedChromeTrace(&merged,
		xmlac.TraceLane{Name: "client SOE", Spans: clientSpans},
		xmlac.TraceLane{Name: "untrusted server", Spans: serverSpans},
	); err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Args map[string]any `json:"args"`
	}
	if err := json.Unmarshal(merged.Bytes(), &events); err != nil {
		t.Fatalf("merged trace is not a Chrome event array: %v", err)
	}
	lanePids := map[string]int{}
	var evalPid, fetchPid int
	linked := false
	for _, ev := range events {
		if ev.Name == "process_name" && ev.Ph == "M" {
			if name, ok := ev.Args["name"].(string); ok {
				lanePids[name] = ev.Pid
			}
			continue
		}
		if ev.Args["trace_id"] != traceID {
			continue
		}
		switch ev.Name {
		case "phase:eval":
			evalPid = ev.Pid
		case "server.fetch":
			fetchPid = ev.Pid
			if ev.Args["parent"] == root {
				linked = true
			}
		}
	}
	if lanePids["client SOE"] == 0 || lanePids["untrusted server"] == 0 {
		t.Fatalf("merged trace misses a lane: %v", lanePids)
	}
	if evalPid != lanePids["client SOE"] {
		t.Fatalf("phase:eval in pid %d, want client lane %d", evalPid, lanePids["client SOE"])
	}
	if fetchPid != lanePids["untrusted server"] {
		t.Fatalf("server.fetch in pid %d, want server lane %d", fetchPid, lanePids["untrusted server"])
	}
	if !linked {
		t.Fatal("merged server.fetch event does not carry the client root as parent")
	}
}

// TestParallelTraceRendersWorkerLanes traces views run in parallel into one
// Trace under one trace ID, as concurrent request handlers do, and checks
// that the Chrome-trace export keeps them apart: each view's root span gets a
// thread row of its own in the one client process and its phase spans join
// that row, so a slow view shows as a long lane next to the others.
func TestParallelTraceRendersWorkerLanes(t *testing.T) {
	prot, key, _ := protectHospital(t, 32)
	cp, err := xmlac.DoctorPolicy("DrA").Compile()
	if err != nil {
		t.Fatal(err)
	}
	tr := xmlac.NewTrace(0)
	traceID := xmlac.NewTraceID()
	const workers = 4
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			opts := xmlac.ViewOptions{Trace: tr, TraceID: traceID}
			if _, _, err := prot.View(context.Background(), key, cp, opts, io.Discard); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	var buf bytes.Buffer
	err = xmlac.WriteMergedChromeTrace(&buf, xmlac.TraceLane{
		Name:  "client SOE",
		Spans: tr.Spans(xmlac.TraceFilter{TraceID: traceID}),
	})
	if err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string `json:"name"`
		Ph   string `json:"ph"`
		Pid  int    `json:"pid"`
		Tid  int    `json:"tid"`
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("not a Chrome trace JSON array: %v", err)
	}
	roots := 0
	rootRows := map[int]bool{}
	childRows := map[int]bool{}
	pids := map[int]bool{}
	for _, ev := range events {
		if ev.Ph == "M" {
			continue
		}
		pids[ev.Pid] = true
		if strings.HasPrefix(ev.Name, "view:") {
			roots++
			rootRows[ev.Tid] = true
		} else {
			childRows[ev.Tid] = true
		}
	}
	if roots != workers || len(rootRows) != workers {
		t.Fatalf("%d view root spans on %d thread rows, want %d on %d", roots, len(rootRows), workers, workers)
	}
	if len(pids) != 1 {
		t.Fatalf("view spans spread over %d processes, want 1 (one lane = one process)", len(pids))
	}
	if len(childRows) == 0 {
		t.Fatal("traced views recorded no phase spans")
	}
	for row := range childRows {
		if !rootRows[row] {
			t.Fatalf("a phase span sits on row %d, which holds no view root span", row)
		}
	}
}
