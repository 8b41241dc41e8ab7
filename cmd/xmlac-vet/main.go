// Command xmlac-vet runs the module's custom analyzer suite — the
// machine-checked form of the paper's trust boundary and of the repo's
// correctness invariants — plus the stock `go vet` passes, over the whole
// module. It is the blocking static-analysis gate in CI.
//
// Analyzers:
//
//	keytaint      key material must never reach logs, errors, serialization, or the server
//	trustboundary server-side packages must not touch decrypt/evaluator/key entry points
//	errlink       sentinel errors must be wrapped with %w and matched with errors.Is
//	phasepair     every trace phase switch is defer x.Enter(x.Enter(p)) outside loops; trace methods stay nil-safe
//
// Findings can be baselined in .xmlac-vet.toml ([[allow]] entries, each
// with a mandatory reason); stale entries that no longer match anything are
// reported so the baseline only ever shrinks. Exit status: 0 clean, 1
// findings, 2 usage or load error.
//
// The stock passes run via `go vet` (use -stdvet=false to skip); the
// x/tools-only nilness pass is not available offline and is gated out —
// phasepair's nil-receiver check covers the trace API, its main risk here.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"xmlac/internal/analysis"
	"xmlac/internal/analysis/errlink"
	"xmlac/internal/analysis/keytaint"
	"xmlac/internal/analysis/phasepair"
	"xmlac/internal/analysis/trustboundary"
	"xmlac/internal/analysis/vetcfg"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		configPath = flag.String("config", "", "path to .xmlac-vet.toml (default: <module root>/"+vetcfg.DefaultFile+")")
		stdvet     = flag.Bool("stdvet", true, "also run the stock `go vet` passes")
		verbose    = flag.Bool("v", false, "also print baselined findings with their allow reasons")
	)
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "xmlac-vet:", err)
		return 2
	}
	if *configPath == "" {
		*configPath = filepath.Join(root, vetcfg.DefaultFile)
	}
	cfg, err := vetcfg.Load(*configPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xmlac-vet:", err)
		return 2
	}
	tbCfg := cfg.Trustboundary
	if len(tbCfg.Packages) == 0 {
		tbCfg = trustboundary.DefaultConfig()
	}
	analyzers := []*analysis.Analyzer{
		keytaint.New(keytaint.DefaultConfig()),
		trustboundary.New(tbCfg),
		errlink.New("xmlac"),
		phasepair.New(phasepair.DefaultConfig()),
	}

	pkgs, err := analysis.Load(root, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xmlac-vet:", err)
		return 2
	}
	findings, err := analysis.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xmlac-vet:", err)
		return 2
	}

	failed := 0
	allowed := 0
	for _, f := range findings {
		rel := relPath(root, f.Pos.Filename)
		entry := matchAllow(cfg.Allow, f.Analyzer, rel, f.Message)
		if entry != nil {
			allowed++
			if *verbose {
				fmt.Printf("%s:%d:%d: %s: allowed (%s): %s\n",
					rel, f.Pos.Line, f.Pos.Column, f.Analyzer, entry.Reason, f.Message)
			}
			continue
		}
		failed++
		fmt.Printf("%s:%d:%d: %s: %s\n", rel, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
	}
	if allowed > 0 && !*verbose {
		fmt.Fprintf(os.Stderr, "xmlac-vet: %d finding(s) baselined by %s (rerun with -v to list)\n", allowed, filepath.Base(*configPath))
	}
	for _, a := range cfg.Allow {
		if !a.Used() {
			fmt.Fprintf(os.Stderr, "xmlac-vet: stale [[allow]] entry (%s %s %q) matches nothing — remove it from %s\n",
				a.Analyzer, a.Path, a.Match, filepath.Base(*configPath))
		}
	}

	if *stdvet {
		if code := runStdVet(root, patterns); code != 0 && failed == 0 {
			failed = code
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// matchAllow returns the first baseline entry suppressing the finding.
func matchAllow(allow []vetcfg.Allow, analyzer, rel, message string) *vetcfg.Allow {
	for i := range allow {
		if allow[i].Matches(analyzer, rel, message) {
			return &allow[i]
		}
	}
	return nil
}

// runStdVet shells out to the stock `go vet` passes so xmlac-vet is the one
// gate CI needs. Returns nonzero when vet reports findings.
func runStdVet(root string, patterns []string) int {
	cmd := exec.Command("go", append([]string{"vet"}, patterns...)...)
	cmd.Dir = root
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return 1
	}
	return 0
}

// relPath renders a finding path relative to the module root when possible.
func relPath(root, path string) string {
	rel, err := filepath.Rel(root, path)
	if err != nil || strings.HasPrefix(rel, "..") {
		return path
	}
	return rel
}

// moduleRoot locates the enclosing module via go env GOMOD.
func moduleRoot() (string, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return "", fmt.Errorf("go env GOMOD: %w", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("not inside a Go module (xmlac-vet must run from the xmlac repo)")
	}
	return filepath.Dir(gomod), nil
}
