// Package trustboundary machine-checks the deployment split the paper's
// security argument rests on: the untrusted server packages must never
// link or call the client-side decrypt, evaluator, or key-handling entry
// points. The boundary is config-driven ([trustboundary] in
// .xmlac-vet.toml): a list of package prefixes the rules apply to, import
// prefixes they must not pull in, and fully-qualified symbols they must
// not reference. The intentional exception — the plaintext write path in
// internal/server, which derives keys and protects documents — is carried as
// documented allow entries in the baseline, so any *new* crossing of the
// boundary fails vet.
package trustboundary

import (
	"go/ast"
	"go/types"
	"strings"

	"xmlac/internal/analysis"
	"xmlac/internal/analysis/vetcfg"
)

// DefaultConfig is the production boundary: the server side may serve
// ciphertext and metadata but must not touch keys or protection, and it
// never evaluates: policies, compiled policies (the evaluator's handle) and
// view options are all out of bounds.
func DefaultConfig() vetcfg.Trustboundary {
	return vetcfg.Trustboundary{
		Packages:    []string{"xmlac/internal/server", "xmlac/cmd/xmlac-serve"},
		DenyImports: []string{"xmlac/internal/secure", "xmlac/internal/xpath", "xmlac/internal/automaton"},
		DenySymbols: []string{
			"xmlac.Key",
			"xmlac.DeriveKey",
			"xmlac.Protect",
			"xmlac.CompiledPolicy",
			"xmlac.Policy",
			"xmlac.ViewOptions",
		},
	}
}

// New returns the trustboundary analyzer for the given boundary config.
func New(cfg vetcfg.Trustboundary) *analysis.Analyzer {
	if len(cfg.Packages) == 0 {
		cfg = DefaultConfig()
	}
	denied := map[string]bool{}
	for _, s := range cfg.DenySymbols {
		denied[s] = true
	}
	return &analysis.Analyzer{
		Name: "trustboundary",
		Doc:  "server-side packages must not import or reference client-side crypto, evaluator, or key symbols",
		Run: func(pass *analysis.Pass) error {
			run(pass, cfg, denied)
			return nil
		},
	}
}

func run(pass *analysis.Pass, cfg vetcfg.Trustboundary, denied map[string]bool) {
	if !matchesAny(pass.Pkg.Path(), cfg.Packages) {
		return
	}
	for _, file := range pass.Files {
		for _, imp := range file.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if matchesAny(path, cfg.DenyImports) {
				pass.Reportf(imp.Pos(),
					"trust-boundary violation: %s must not import %s (the untrusted server side must never link the client-side crypto or evaluator)",
					pass.Pkg.Path(), path)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[id]
			if obj == nil || obj.Pkg() == nil || obj.Pkg() == pass.Pkg {
				return true
			}
			if _, isPkg := obj.(*types.PkgName); isPkg {
				return true // the import check covers whole packages
			}
			if q := qualify(obj); denied[q] {
				pass.Reportf(id.Pos(),
					"trust-boundary violation: %s must not reference %s (key handling and view evaluation belong to the client-side SOE)",
					pass.Pkg.Path(), q)
			}
			return true
		})
	}
}

// qualify renders an object as "pkg.Name" or, for methods, "pkg.Recv.Name"
// to match the deny_symbols config format.
func qualify(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			recv := sig.Recv().Type()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			if named, ok := recv.(*types.Named); ok {
				return obj.Pkg().Path() + "." + named.Obj().Name() + "." + obj.Name()
			}
		}
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

func matchesAny(path string, prefixes []string) bool {
	for _, p := range prefixes {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}
