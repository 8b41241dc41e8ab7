// Command xmlac-view evaluates an access-control policy (and optionally a
// query) over a protected document produced by xmlac-protect, playing the
// role of the client-side Secure Operating Environment, and prints the
// authorized view.
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
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"xmlac"
)

func main() {
	in := flag.String("in", "", "protected document (required)")
	passphrase := flag.String("passphrase", "", "passphrase of the document key (required)")
	profile := flag.String("profile", "", "built-in profile: secretary, doctor:<physician>, researcher[:G1,G2,...]")
	rulesFile := flag.String("rules", "", "rules file (one '<sign> <xpath>' per line)")
	subject := flag.String("subject", "user", "policy subject (substitutes USER in rule predicates)")
	query := flag.String("query", "", "optional XPath query restricting the view")
	out := flag.String("out", "", "output file (default: stdout)")
	dummy := flag.Bool("dummy-names", false, "replace denied ancestor names with '_'")
	showMetrics := flag.Bool("metrics", false, "print evaluation metrics to stderr")
	flag.Parse()

	if *in == "" || *passphrase == "" || (*profile == "" && *rulesFile == "") {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*in, *passphrase, *profile, *rulesFile, *subject, *query, *out, *dummy, *showMetrics); err != nil {
		fmt.Fprintln(os.Stderr, "xmlac-view:", err)
		os.Exit(1)
	}
}

func run(in, passphrase, profile, rulesFile, subject, query, out string, dummy, showMetrics bool) error {
	blob, err := os.ReadFile(in)
	if err != nil {
		return err
	}
	prot, err := xmlac.UnmarshalProtected(blob)
	if err != nil {
		return err
	}
	policy, err := buildPolicy(profile, rulesFile, subject)
	if err != nil {
		return err
	}
	// The view is streamed from the evaluator straight into the destination:
	// the SOE never holds the view (first bytes appear while the document is
	// still being scanned). File output goes through a temporary sibling
	// renamed into place on success, so a failed run never clobbers a
	// previous good output with a truncated view.
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
	buffered := bufio.NewWriter(dest)
	_, metrics, err := prot.View(context.Background(), xmlac.DeriveKey(passphrase), policy, xmlac.ViewOptions{
		Query:            query,
		DummyDeniedNames: dummy,
		Indent:           true,
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
	if showMetrics {
		fmt.Fprintf(os.Stderr,
			"transferred %d B, decrypted %d B, skipped %d B in %d subtrees; nodes permitted/denied/pending: %d/%d/%d; first byte after %s; est. smart card time %.2fs\n",
			metrics.BytesTransferred, metrics.BytesDecrypted, metrics.BytesSkipped, metrics.SubtreesSkipped,
			metrics.NodesPermitted, metrics.NodesDenied, metrics.NodesPending, metrics.TimeToFirstByte,
			metrics.EstimatedSmartCardSeconds)
	}
	return nil
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
