// Package phasepair proves two invariants of the tracing layer:
//
//  1. Every phase switch restores the phase it leaves on every path.
//     trace.Context.Enter makes a phase current and returns the one it
//     left, and the one accepted form of a switch is
//
//     defer x.Enter(x.Enter(p))
//
//     whose restore runs on every return and panic by construction. Any
//     other reference to Enter (a bare or stored Enter, a restore on
//     another receiver or not deferred, a deferred Enter of anything but an
//     Enter call, a method value, a go statement) can leave the wrong phase
//     current, so all later time is charged to it. Unlike a panic, that
//     never crashes, so only a vet-time check catches it reliably. The
//     idiom inside a loop body is refused too: its restore runs only when
//     the function returns (a func literal's body is a function of its
//     own).
//
//  2. The configured trace types stay nil-receiver-safe: the disabled
//     pipeline threads a nil *trace.Context through every layer, so every
//     exported method must use a pointer receiver and begin with a
//     nil-receiver guard.
package phasepair

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"xmlac/internal/analysis"
)

// Config parameterizes the analyzer.
type Config struct {
	// ContextTypes are fully-qualified names ("pkgpath.Type") of phase
	// trace context types: the switch idiom is enforced on every reference
	// to their Enter method, and nil-receiver safety on their method
	// declarations.
	ContextTypes []string
}

// DefaultConfig covers the module's tracing core.
func DefaultConfig() Config {
	return Config{ContextTypes: []string{"xmlac/internal/trace.Context"}}
}

// New returns the phasepair analyzer.
func New(cfg Config) *analysis.Analyzer {
	if len(cfg.ContextTypes) == 0 {
		cfg = DefaultConfig()
	}
	return &analysis.Analyzer{
		Name: "phasepair",
		Doc:  "trace phase switches must be defer x.Enter(x.Enter(p)) outside loops; trace types must stay nil-receiver-safe",
		Run: func(pass *analysis.Pass) error {
			run(pass, cfg)
			return nil
		},
	}
}

func run(pass *analysis.Pass, cfg Config) {
	ctxTypes := map[string]bool{}
	for _, t := range cfg.ContextTypes {
		ctxTypes[t] = true
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv != nil {
				checkNilSafety(pass, fn, ctxTypes)
			}
		}
		ast.Walk(switchVisitor{pass: pass, ctxTypes: ctxTypes, done: map[*ast.SelectorExpr]bool{}}, file)
	}
}

// --- phase switches ---

// switchVisitor reports every reference to Enter that is not part of a
// deferred idiom outside a loop body. done holds the Enter selectors of
// accepted idioms and the inner Enters of reported switches, so a switch
// is reported once.
type switchVisitor struct {
	pass     *analysis.Pass
	ctxTypes map[string]bool
	done     map[*ast.SelectorExpr]bool
	inLoop   bool
}

func (v switchVisitor) Visit(n ast.Node) ast.Visitor {
	switch n := n.(type) {
	case *ast.FuncLit:
		v.inLoop = false
	case *ast.ForStmt, *ast.RangeStmt:
		v.inLoop = true
	case *ast.DeferStmt:
		outer, inner := v.enterCall(n.Call), v.innerEnter(n.Call)
		if outer != nil && inner != nil && types.ExprString(outer.X) == types.ExprString(inner.X) {
			v.done[outer], v.done[inner] = true, true
			if v.inLoop {
				v.pass.Reportf(n.Pos(),
					"trace phase switch in a loop body: its deferred restore runs only when the function returns")
			}
		}
	case *ast.CallExpr:
		if v.enterCall(n) != nil {
			if inner := v.innerEnter(n); inner != nil {
				v.done[inner] = true // reported with the outer Enter
			}
		}
	case *ast.SelectorExpr:
		if !v.done[n] && v.isEnter(n) {
			v.pass.Reportf(n.Sel.Pos(),
				"trace phase switch must be written defer x.Enter(x.Enter(p)), which restores the phase it leaves on every path")
		}
	}
	return v
}

// enterCall returns the selector of e when e is a call x.Enter(...) on a
// configured context type, nil otherwise.
func (v switchVisitor) enterCall(e ast.Expr) *ast.SelectorExpr {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !v.isEnter(sel) {
		return nil
	}
	return sel
}

// innerEnter returns the selector of call's one argument when that is an
// Enter call.
func (v switchVisitor) innerEnter(call *ast.CallExpr) *ast.SelectorExpr {
	if len(call.Args) != 1 {
		return nil
	}
	return v.enterCall(call.Args[0])
}

// isEnter reports whether sel names the Enter method of a configured
// context type.
func (v switchVisitor) isEnter(sel *ast.SelectorExpr) bool {
	if sel.Sel.Name != "Enter" {
		return false
	}
	obj, ok := v.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := obj.Type().(*types.Signature)
	return ok && sig.Recv() != nil && v.ctxTypes[qualifiedTypeName(sig.Recv().Type())]
}

// --- nil-receiver safety ---

// checkNilSafety enforces, for methods of configured context types defined
// in the analyzed package: exported methods use a pointer receiver and
// begin with a nil-receiver guard.
func checkNilSafety(pass *analysis.Pass, fn *ast.FuncDecl, ctxTypes map[string]bool) {
	if !fn.Name.IsExported() || fn.Body == nil {
		return
	}
	obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func)
	if !ok {
		return
	}
	sig := obj.Type().(*types.Signature)
	recv := sig.Recv()
	if recv == nil {
		return
	}
	recvType := recv.Type()
	ptr, isPtr := recvType.(*types.Pointer)
	base := recvType
	if isPtr {
		base = ptr.Elem()
	}
	if !ctxTypes[qualifiedTypeName(base)] {
		return
	}
	if !isPtr {
		pass.Reportf(fn.Name.Pos(),
			"exported method %s of nil-safe type %s must use a pointer receiver (a value receiver panics on the nil *%s the disabled pipeline threads through)",
			fn.Name.Name, typeName(base), typeName(base))
		return
	}
	if len(fn.Recv.List) == 0 || len(fn.Recv.List[0].Names) == 0 {
		// Unnamed receiver: the body cannot dereference it.
		return
	}
	recvName := fn.Recv.List[0].Names[0].Name
	if recvName == "_" || hasNilGuard(fn.Body, recvName) {
		return
	}
	pass.Reportf(fn.Name.Pos(),
		"exported method %s of nil-safe type %s must begin with a nil-receiver guard (if %s == nil { return ... })",
		fn.Name.Name, typeName(base), recvName)
}

// hasNilGuard reports whether the body's first statement is an if whose
// condition contains `recv == nil` and whose body returns.
func hasNilGuard(body *ast.BlockStmt, recvName string) bool {
	if len(body.List) == 0 {
		return true // empty body cannot dereference
	}
	ifStmt, ok := body.List[0].(*ast.IfStmt)
	if !ok || !condChecksNil(ifStmt.Cond, recvName) {
		return false
	}
	n := len(ifStmt.Body.List)
	if n == 0 {
		return false
	}
	_, isReturn := ifStmt.Body.List[n-1].(*ast.ReturnStmt)
	return isReturn
}

// condChecksNil looks for `recv == nil` anywhere in a (possibly ||-joined)
// condition.
func condChecksNil(cond ast.Expr, recvName string) bool {
	b, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	if b.Op == token.LOR {
		return condChecksNil(b.X, recvName) || condChecksNil(b.Y, recvName)
	}
	if b.Op != token.EQL {
		return false
	}
	isRecv := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == recvName
	}
	isNil := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == "nil"
	}
	return (isRecv(b.X) && isNil(b.Y)) || (isRecv(b.Y) && isNil(b.X))
}

// qualifiedTypeName renders "pkgpath.Type" for a (possibly pointer) named
// type.
func qualifiedTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name()
}

// typeName is the bare type name of a qualified type.
func typeName(t types.Type) string {
	q := qualifiedTypeName(t)
	if i := strings.LastIndex(q, "."); i >= 0 {
		return q[i+1:]
	}
	return q
}
