// Command xmlac-view plays the role of the paper's client-side Secure
// Operating Environment: it evaluates an access-control policy (and
// optionally a query) over a protected document and prints the authorized
// view. The document is either a file produced by xmlac-protect (-in) or a
// document on an xmlac-serve instance (-url), which stores the encrypted
// document as an opaque blob and never sees the key; a remote view fetches,
// through HTTP range requests, only the parts of the document the Skip index
// does not prove prohibited.
//
// The policy is either one of the built-in profiles of the paper's
// motivating example (-profile secretary | doctor:<physician> |
// researcher[:G1,G2,...]) or a rules file (-rules) with one rule per line:
//
//   - //Folder/Admin
//   - //Act[RPhys != USER]/Details
//
// Usage:
//
//	xmlac-view -in doc.xsec -passphrase "..." -profile doctor:DrA [-query "//Folder[Admin/Age>60]"] [-out view.xml]
//	xmlac-view -url http://localhost:8080/docs/hospital -profile doctor:DrA -metrics
//
// With -url, -passphrase may be omitted for documents registered without
// one, such as the content of "xmlac-serve -demo": the key is then derived
// from the store's default passphrase for the document.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
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

// config holds the parsed flags.
type config struct {
	in, url, passphrase                     string
	profile, rulesFile, subject, query, out string
	dummy, metrics                          bool
	traceOut, traceJSONL                    string
}

// errUsage marks a flag combination run refuses.
var errUsage = errors.New("usage")

func main() {
	var c config
	flag.StringVar(&c.in, "in", "", "protected document file (exactly one of -in and -url)")
	flag.StringVar(&c.url, "url", "", "document URL on an xmlac-serve instance, e.g. http://host:8080/docs/hospital (exactly one of -in and -url)")
	flag.StringVar(&c.passphrase, "passphrase", "", "passphrase of the document key (required with -in; with -url the default is the xmlac-serve demo key for the document)")
	flag.StringVar(&c.profile, "profile", "", "built-in profile: secretary, doctor:<physician>, researcher[:G1,G2,...]")
	flag.StringVar(&c.rulesFile, "rules", "", "rules file (one '<sign> <xpath>' per line)")
	flag.StringVar(&c.subject, "subject", "user", "policy subject (substitutes USER in rule predicates)")
	flag.StringVar(&c.query, "query", "", "optional XPath query restricting the view")
	flag.StringVar(&c.out, "out", "", "output file (default: stdout)")
	flag.BoolVar(&c.dummy, "dummy-names", false, "replace denied ancestor names with '_'")
	flag.BoolVar(&c.metrics, "metrics", false, "print the SOE metrics to stderr, and with -url the wire statistics")
	flag.StringVar(&c.traceOut, "trace-out", "", "write a Chrome trace (chrome://tracing / Perfetto) of the view to this file: the client's decrypt/skip/eval lanes plus, with -url and when the server's /debug/trace is reachable, its request spans of the same trace ID")
	flag.StringVar(&c.traceJSONL, "trace-jsonl", "", "also write the trace's spans as JSONL (the xmlac-report -trace input)")
	flag.Parse()

	if err := run(c, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "xmlac-view:", err)
		if errors.Is(err, errUsage) {
			flag.Usage()
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run evaluates the view c asks for and writes its diagnostics to stderr.
func run(c config, stderr io.Writer) error {
	switch {
	case (c.in == "") == (c.url == ""):
		return fmt.Errorf("%w: give exactly one of -in and -url", errUsage)
	case c.in != "" && c.passphrase == "":
		return fmt.Errorf("%w: -in needs -passphrase", errUsage)
	case c.profile == "" && c.rulesFile == "":
		return fmt.Errorf("%w: give -profile or -rules", errUsage)
	}
	policy, err := buildPolicy(c.profile, c.rulesFile, c.subject)
	if err != nil {
		return err
	}
	opts := xmlac.ViewOptions{Query: c.query, DummyDeniedNames: c.dummy, Indent: true}
	if c.traceOut != "" || c.traceJSONL != "" {
		opts.Trace = xmlac.NewTrace(0)
		// A fresh random ID rather than the subject name: a remote view sends
		// it to the server on every range request (X-Request-Id), and it must
		// identify this run uniquely so /debug/trace?id= returns exactly its
		// spans.
		opts.TraceID = xmlac.NewTraceID()
	}
	ctx := context.Background()
	var view func(io.Writer) (*xmlac.Metrics, error)
	var remote *xmlac.RemoteDocument
	if c.url != "" {
		passphrase := c.passphrase
		if passphrase == "" {
			// The convention xmlac-serve uses for documents registered
			// without an explicit passphrase (its -demo content in
			// particular).
			passphrase = "xmlac-serve default key for " + docID(c.url)
		}
		if remote, err = xmlac.OpenRemote(c.url, xmlac.DeriveKey(passphrase)); err != nil {
			return err
		}
		view = func(w io.Writer) (*xmlac.Metrics, error) {
			_, m, err := remote.View(ctx, policy, opts, w)
			return m, err
		}
	} else {
		blob, err := os.ReadFile(c.in)
		if err != nil {
			return err
		}
		prot, err := xmlac.UnmarshalProtected(blob)
		if err != nil {
			return err
		}
		key := xmlac.DeriveKey(c.passphrase)
		view = func(w io.Writer) (*xmlac.Metrics, error) {
			_, m, err := prot.View(ctx, key, policy, opts, w)
			return m, err
		}
	}
	metrics, err := writeView(c.out, view)
	if err != nil {
		return err
	}
	if opts.Trace != nil {
		if err := writeTrace(stderr, c, opts.TraceID, opts.Trace); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "trace %s (phases: decrypt %s, eval %s, fetch %s)\n",
			opts.TraceID, time.Duration(metrics.PhaseBreakdown.DecryptNs),
			time.Duration(metrics.PhaseBreakdown.EvalNs), time.Duration(metrics.PhaseBreakdown.FetchNs))
	}
	if c.metrics {
		fmt.Fprintf(stderr,
			"transferred %d B, decrypted %d B, skipped %d B in %d subtrees; nodes permitted/denied/pending: %d/%d/%d; first byte after %s; est. smart card time %.2fs\n",
			metrics.BytesTransferred, metrics.BytesDecrypted, metrics.BytesSkipped, metrics.SubtreesSkipped,
			metrics.NodesPermitted, metrics.NodesDenied, metrics.NodesPending, metrics.TimeToFirstByte,
			metrics.EstimatedSmartCardSeconds)
		if remote != nil {
			wire, roundTrips := remote.WireStats()
			fmt.Fprintf(stderr, "document: %d B encrypted; wire: %d B in %d round trips (%.1f%% of a full download)\n",
				remote.Size(), wire, roundTrips, 100*float64(wire)/float64(remote.Size()))
		}
	}
	return nil
}

// writeView streams the view into out (stdout when out is empty) as view
// evaluates it: the SOE never holds the view, and first bytes appear while
// the document is still being scanned. File output goes through a temporary
// sibling renamed into place on success, so a failed run never clobbers a
// previous good output with a truncated view.
func writeView(out string, view func(io.Writer) (*xmlac.Metrics, error)) (*xmlac.Metrics, error) {
	dest := io.Writer(os.Stdout)
	var tmp *os.File
	if out != "" {
		var err error
		tmp, err = os.CreateTemp(filepath.Dir(out), filepath.Base(out)+".tmp-*")
		if err != nil {
			return nil, err
		}
		defer func() {
			if tmp != nil {
				tmp.Close()
				os.Remove(tmp.Name())
			}
		}()
		dest = tmp
	}
	buffered := bufio.NewWriter(dest)
	metrics, err := view(buffered)
	if err != nil {
		return nil, err
	}
	if metrics.TimeToFirstByte == 0 {
		// Nothing was delivered: the closed policy denied everything.
		fmt.Fprint(buffered, "<!-- empty authorized view -->\n")
	}
	if err := buffered.Flush(); err != nil {
		return nil, err
	}
	if tmp != nil {
		if err := tmp.Chmod(0o644); err != nil {
			return nil, err
		}
		if err := tmp.Close(); err != nil {
			return nil, err
		}
		if err := os.Rename(tmp.Name(), out); err != nil {
			return nil, err
		}
		tmp = nil
	}
	return metrics, nil
}

// writeTrace writes the trace of this run: the client's own spans as one
// lane and, for a remote view whose server answers /debug/trace, the
// server's spans of the same trace ID as a second lane, parent-linked under
// the client's view. A server without the debug surface degrades to a
// client-only trace with a note, never a failed run.
func writeTrace(stderr io.Writer, c config, traceID string, trace *xmlac.Trace) error {
	lanes := []xmlac.TraceLane{{Name: "client SOE", Spans: trace.Spans(xmlac.TraceFilter{})}}
	if c.url != "" {
		serverSpans, err := fetchServerSpans(c.url, traceID)
		switch {
		case err != nil:
			fmt.Fprintf(stderr, "xmlac-view: server spans unavailable (%v); writing client lane only\n", err)
		case len(serverSpans) > 0:
			lanes = append(lanes, xmlac.TraceLane{Name: "untrusted server", Spans: serverSpans})
		}
	}
	if c.traceOut != "" {
		f, err := os.Create(c.traceOut)
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
		fmt.Fprintf(stderr, "wrote merged Chrome trace to %s (%d lanes)\n", c.traceOut, len(lanes))
	}
	if c.traceJSONL != "" {
		f, err := os.Create(c.traceJSONL)
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
		fmt.Fprintf(stderr, "wrote merged span JSONL to %s\n", c.traceJSONL)
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
