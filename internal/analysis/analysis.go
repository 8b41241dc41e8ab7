// Package analysis is a self-contained, stdlib-only re-implementation of
// the golang.org/x/tools/go/analysis surface this module needs: an Analyzer
// is a named check with a Run function, a Pass hands it one type-checked
// package, and diagnostics are reported through the Pass. The repo cannot
// vendor x/tools (the build environment is offline and the module is
// deliberately dependency-free), so the framework trades x/tools' facts,
// SSA and result plumbing for a small loader built on `go list -deps
// -export -json` plus go/types — everything the xmlac-vet analyzers need to
// machine-check the paper's trust boundary and the repo's correctness
// invariants at vet time.
//
// The suite lives in the sub-packages:
//
//   - keytaint: secure.Key values (and byte slices derived from them) must
//     never flow into logging, error construction, serialization, or any
//     symbol under internal/server.
//   - trustboundary: a config-driven symbol/import deny-list proving the
//     untrusted server surface never touches decrypt, evaluator or
//     key-handling entry points.
//   - errlink: sentinel errors must be wrapped with %w so errors.Is
//     survives every chain, and module sentinels must be compared with
//     errors.Is, not ==.
//   - phasepair: every trace.Context phase switch is the deferred idiom
//     defer x.Enter(x.Enter(p)) outside a loop body, so the phase left is
//     restored on every path, and the configured trace types stay
//     nil-receiver-safe.
//
// cmd/xmlac-vet is the multichecker driver; internal/analysis/analysistest
// runs an analyzer over a golden testdata package with // want comments.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one static check: a name (stable, used in baseline entries
// and diagnostics), a short description, and a Run function invoked once
// per package.
type Analyzer struct {
	// Name identifies the analyzer in output and in .xmlac-vet.toml
	// baseline entries. Lower-case, no spaces.
	Name string
	// Doc is a one-line description of the invariant the analyzer proves.
	Doc string
	// Run analyzes one package and reports findings through pass.Report.
	// The error return is for operational failures (the analyzer could not
	// run), not for findings.
	Run func(pass *Pass) error
}

// Pass carries one type-checked package through an analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report records one diagnostic.
	Report func(Diagnostic)
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding inside a package.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Finding is a resolved diagnostic: analyzer name plus a concrete file
// position, ready for printing and baseline matching.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Run applies every analyzer to every package and returns the findings
// sorted by file, line, column and analyzer name. An analyzer returning an
// error aborts the run: an invariant checker that cannot run is a CI
// failure, not a silent pass.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	var findings []Finding
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			pass.Report = func(d Diagnostic) {
				findings = append(findings, Finding{
					Analyzer: a.Name,
					Pos:      pkg.Fset.Position(d.Pos),
					Message:  d.Message,
				})
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}
