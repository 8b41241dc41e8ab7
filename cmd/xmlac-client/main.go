// Command xmlac-client is the remote Secure Operating Environment of the
// paper's deployment model: it connects to an xmlac-serve instance that
// stores the encrypted document as an opaque blob (the server never sees the
// key), evaluates an access-control policy locally and prints the authorized
// view — fetching, through HTTP range requests, only the parts of the
// document the Skip index does not prove prohibited.
//
// The policy is either one of the built-in profiles of the paper's
// motivating example (-profile secretary | doctor:<physician> |
// researcher[:G1,G2,...]) or a rules file (-rules) with one rule per line:
//
//   - //Folder/Admin
//   - //Act[RPhys != USER]/Details
//
// Usage, against "xmlac-serve -demo" (which derives the demo key from its
// default passphrase, so -passphrase may be omitted):
//
//	xmlac-client -url http://localhost:8080/docs/hospital -profile doctor:DrA -wire
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"xmlac"
)

func main() {
	url := flag.String("url", "", "document URL on an xmlac-serve instance, e.g. http://host:8080/docs/hospital (required)")
	passphrase := flag.String("passphrase", "", "passphrase of the document key (default: the xmlac-serve demo key for the document)")
	profile := flag.String("profile", "", "built-in profile: secretary, doctor:<physician>, researcher[:G1,G2,...]")
	rulesFile := flag.String("rules", "", "rules file (one '<sign> <xpath>' per line)")
	subject := flag.String("subject", "user", "policy subject (substitutes USER in rule predicates)")
	query := flag.String("query", "", "optional XPath query restricting the view")
	out := flag.String("out", "", "output file (default: stdout)")
	dummy := flag.Bool("dummy-names", false, "replace denied ancestor names with '_'")
	wire := flag.Bool("wire", false, "print transfer statistics to stderr")
	traceOut := flag.String("trace-out", "", "write a merged Chrome trace (chrome://tracing / Perfetto) of the evaluation to this file: the client's decrypt/skip/eval lanes plus, when the server's /debug/trace is reachable, its request spans of the same trace ID")
	traceJSONL := flag.String("trace-jsonl", "", "also write the merged client+server spans as JSONL (the xmlac-report -trace input)")
	flag.Parse()

	if *url == "" || (*profile == "" && *rulesFile == "") {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*url, *passphrase, *profile, *rulesFile, *subject, *query, *out, *traceOut, *traceJSONL, *dummy, *wire); err != nil {
		fmt.Fprintln(os.Stderr, "xmlac-client:", err)
		os.Exit(1)
	}
}

func run(url, passphrase, profile, rulesFile, subject, query, out, traceOut, traceJSONL string, dummy, wire bool) error {
	if passphrase == "" {
		// The convention xmlac-serve uses for documents registered without
		// an explicit passphrase (its -demo content in particular).
		passphrase = "xmlac-serve default key for " + docID(url)
	}
	policy, err := buildPolicy(profile, rulesFile, subject)
	if err != nil {
		return err
	}
	doc, err := xmlac.OpenRemote(url, xmlac.DeriveKey(passphrase))
	if err != nil {
		return err
	}
	// Stream the view as it is evaluated: ciphertext ranges flow in from the
	// blob server on one side, authorized XML flows out on the other, and
	// the client never holds either the document or the view in memory.
	// File output goes through a temporary sibling renamed into place on
	// success, so a failed run never clobbers a previous good output with a
	// truncated view.
	dest := io.Writer(os.Stdout)
	var tmp *os.File
	if out != "" {
		var err error
		tmp, err = os.CreateTemp(filepath.Dir(out), filepath.Base(out)+".tmp-*")
		if err != nil {
			return err
		}
		defer func() {
			if tmp != nil {
				tmp.Close()
				os.Remove(tmp.Name())
			}
		}()
		dest = tmp
	}
	var trace *xmlac.Trace
	var traceID string
	if traceOut != "" || traceJSONL != "" {
		trace = xmlac.NewTrace(0)
		// A fresh random ID rather than the subject name: it travels to the
		// server on every range request (X-Request-Id) and must identify this
		// run uniquely so /debug/trace?id= returns exactly its spans.
		traceID = xmlac.NewTraceID()
	}
	buffered := bufio.NewWriter(dest)
	_, metrics, err := doc.View(context.Background(), policy, xmlac.ViewOptions{
		Query:            query,
		DummyDeniedNames: dummy,
		Indent:           true,
		Trace:            trace,
		TraceID:          traceID,
	}, buffered)
	if err != nil {
		return err
	}
	if metrics.TimeToFirstByte == 0 {
		// Nothing was delivered: the closed policy denied everything.
		fmt.Fprint(buffered, "<!-- empty authorized view -->\n")
	}
	if err := buffered.Flush(); err != nil {
		return err
	}
	if tmp != nil {
		if err := tmp.Chmod(0o644); err != nil {
			return err
		}
		if err := tmp.Close(); err != nil {
			return err
		}
		if err := os.Rename(tmp.Name(), out); err != nil {
			return err
		}
		tmp = nil
	}
	if trace != nil {
		if err := writeMergedTrace(url, traceID, trace, traceOut, traceJSONL); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "trace %s (phases: decrypt %s, eval %s, fetch %s)\n",
			traceID, time.Duration(metrics.PhaseBreakdown.DecryptNs),
			time.Duration(metrics.PhaseBreakdown.EvalNs), time.Duration(metrics.PhaseBreakdown.FetchNs))
	}
	if wire {
		totalWire, totalRT := doc.WireStats()
		fmt.Fprintf(os.Stderr,
			"document: %d B encrypted; wire: %d B in %d round trips (%.1f%% of a full download); SOE: transferred %d B, skipped %d B in %d subtrees; first byte after %s\n",
			doc.Size(), totalWire, totalRT, 100*float64(totalWire)/float64(doc.Size()),
			metrics.BytesTransferred, metrics.BytesSkipped, metrics.SubtreesSkipped, metrics.TimeToFirstByte)
	}
	return nil
}

// writeMergedTrace assembles the distributed trace of this run: the client's
// own spans as one lane and — when the server's /debug/trace endpoint answers
// — the server's spans of the same trace ID as a second lane, parent-linked
// under the client's evaluation. A server without the debug surface degrades
// to a client-only trace with a note, never a failed run.
func writeMergedTrace(docURL, traceID string, trace *xmlac.Trace, traceOut, traceJSONL string) error {
	lanes := []xmlac.TraceLane{{Name: "client SOE", Spans: trace.Spans(xmlac.TraceFilter{})}}
	serverSpans, err := fetchServerSpans(docURL, traceID)
	switch {
	case err != nil:
		fmt.Fprintf(os.Stderr, "xmlac-client: server spans unavailable (%v); writing client lane only\n", err)
	case len(serverSpans) > 0:
		lanes = append(lanes, xmlac.TraceLane{Name: "untrusted server", Spans: serverSpans})
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		if err := xmlac.WriteMergedChromeTrace(f, lanes...); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote merged Chrome trace to %s (%d lanes)\n", traceOut, len(lanes))
	}
	if traceJSONL != "" {
		f, err := os.Create(traceJSONL)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		for _, lane := range lanes {
			for _, sp := range lane.Spans {
				if err := enc.Encode(sp); err != nil {
					f.Close()
					return err
				}
			}
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote merged span JSONL to %s\n", traceJSONL)
	}
	return nil
}

// fetchServerSpans pulls the server-side spans of one trace ID from the
// serve instance behind the document URL (…/docs/<id> -> …/debug/trace).
func fetchServerSpans(docURL, traceID string) ([]xmlac.TraceSpan, error) {
	i := strings.Index(docURL, "/docs/")
	if i < 0 {
		return nil, fmt.Errorf("no /docs/ segment in %s", docURL)
	}
	resp, err := http.Get(docURL[:i] + "/debug/trace?id=" + traceID)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /debug/trace: %s", resp.Status)
	}
	return xmlac.ParseTraceJSONL(resp.Body)
}

// docID extracts the document id (last path segment) from the document URL.
func docID(url string) string {
	trimmed := strings.TrimRight(url, "/")
	if i := strings.LastIndex(trimmed, "/"); i >= 0 {
		return trimmed[i+1:]
	}
	return trimmed
}

// buildPolicy resolves the -profile / -rules flags into a compiled policy.
func buildPolicy(profile, rulesFile, subject string) (*xmlac.CompiledPolicy, error) {
	if profile != "" {
		switch {
		case profile == "secretary":
			return xmlac.SecretaryPolicy().Compile()
		case strings.HasPrefix(profile, "doctor:"):
			return xmlac.DoctorPolicy(strings.TrimPrefix(profile, "doctor:")).Compile()
		case profile == "doctor":
			return nil, fmt.Errorf("the doctor profile needs a physician: -profile doctor:<physician>")
		case profile == "researcher":
			return xmlac.ResearcherPolicy().Compile()
		case strings.HasPrefix(profile, "researcher:"):
			groups := strings.Split(strings.TrimPrefix(profile, "researcher:"), ",")
			return xmlac.ResearcherPolicy(groups...).Compile()
		default:
			return nil, fmt.Errorf("unknown profile %q", profile)
		}
	}
	f, err := os.Open(rulesFile)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	policy := xmlac.Policy{Subject: subject}
	scanner := bufio.NewScanner(f)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("%s:%d: expected '<sign> <xpath>'", rulesFile, lineNo)
		}
		policy.Rules = append(policy.Rules, xmlac.Rule{
			ID:     fmt.Sprintf("L%d", lineNo),
			Sign:   fields[0],
			Object: strings.Join(fields[1:], " "),
		})
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}
	return policy.Compile()
}
