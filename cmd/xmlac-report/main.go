// Command xmlac-report renders a span JSONL trace of one view (client SOE
// phases and server request spans, as `xmlac-view -trace-jsonl` writes it)
// into one self-contained HTML page: a phase-breakdown comparison of the two
// sides of the trust boundary. The page embeds everything inline — no
// scripts, stylesheets, fonts or images are fetched, so the CI artifact
// renders without network access.
//
// Usage:
//
//	xmlac-report -trace view.trace.jsonl -out report.html
//	xmlac-report -trace view.trace.jsonl -assert-merged
//
// With -assert-merged the command verifies the trace is a *merged*
// distributed trace — at least one trace ID carries both a client eval phase
// span and a server fetch span, with the server span parent-linked to the
// client's root span — and exits non-zero otherwise (the CI e2e gate).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"xmlac"
)

func main() {
	tracePath := flag.String("trace", "", "span JSONL of one traced view (client and/or server spans)")
	outPath := flag.String("out", "xmlac-report.html", "output HTML file")
	assertMerged := flag.Bool("assert-merged", false, "fail unless -trace holds a merged client+server trace with parent linkage")
	flag.Parse()

	if err := run(*tracePath, *outPath, *assertMerged); err != nil {
		fmt.Fprintln(os.Stderr, "xmlac-report:", err)
		os.Exit(1)
	}
}

func run(tracePath, outPath string, assertMerged bool) error {
	var data reportData
	data.Generated = time.Now().UTC().Format(time.RFC3339)

	if tracePath != "" {
		f, err := os.Open(tracePath)
		if err != nil {
			return err
		}
		spans, err := xmlac.ParseTraceJSONL(f)
		f.Close()
		if err != nil {
			return err
		}
		data.Spans = spans
		data.TracePath = tracePath
	}

	if assertMerged {
		if tracePath == "" {
			return fmt.Errorf("-assert-merged needs -trace")
		}
		if err := checkMerged(data.Spans); err != nil {
			return err
		}
		fmt.Println("merged trace ok: client eval and server fetch spans share a trace with parent linkage")
	}

	f, err := os.Create(outPath)
	if err != nil {
		return err
	}
	if err := renderHTML(f, &data); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Println("wrote", outPath)
	return nil
}

// checkMerged verifies the distributed-trace invariant the e2e CI job gates
// on: some trace ID has both sides of the trust boundary — a client
// phase:eval span and a server.fetch span — and the server span's parent is
// the client's root span (the span ID the client sent on the wire, which is
// also the parent of every client phase span).
func checkMerged(spans []xmlac.TraceSpan) error {
	type sides struct {
		eval        bool
		clientRoots map[string]bool
		serverFetch []string // parents of server.fetch spans
	}
	traces := map[string]*sides{}
	get := func(id string) *sides {
		s := traces[id]
		if s == nil {
			s = &sides{clientRoots: map[string]bool{}}
			traces[id] = s
		}
		return s
	}
	for _, sp := range spans {
		if sp.TraceID == "" {
			continue
		}
		s := get(sp.TraceID)
		switch {
		case sp.Name == "server.fetch":
			s.serverFetch = append(s.serverFetch, sp.Parent)
		case strings.HasPrefix(sp.Name, "server."):
			// other server spans don't satisfy the fetch requirement
		default:
			if sp.Name == "phase:eval" {
				s.eval = true
			}
			// A client span's parent is the evaluation's root span ID; its
			// own span ID also counts (nested client spans).
			if sp.Parent != "" {
				s.clientRoots[sp.Parent] = true
			}
			if sp.SpanID != "" {
				s.clientRoots[sp.SpanID] = true
			}
		}
	}
	for id, s := range traces {
		if !s.eval || len(s.serverFetch) == 0 {
			continue
		}
		for _, parent := range s.serverFetch {
			if parent != "" && s.clientRoots[parent] {
				return nil
			}
		}
		return fmt.Errorf("trace %s has client and server spans but no parent linkage", id)
	}
	return fmt.Errorf("no trace ID carries both a client phase:eval span and a server.fetch span (%d spans read)", len(spans))
}
