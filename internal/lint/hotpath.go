// The hotpath analyzer keeps the counting path of the software Memometer
// as allocation-free as the paper's hardware one. A function annotated
// //mhm:hotpath may not, syntactically:
//
//   - call into package fmt, or call time.Now/time.Since/time.Until;
//   - use the allocating builtins append, make or new;
//   - build map or slice composite literals, or take the address of a
//     composite literal;
//   - declare a variable-capturing function literal (captures force a
//     heap-allocated closure);
//   - spawn goroutines or defer calls;
//   - call a module-local function or method that is not itself
//     annotated //mhm:hotpath, or make a dynamic (interface) call.
//
// This is a syntactic approximation: stdlib calls outside the banned
// list, interface boxing, map writes and string concatenation are not
// modelled. Cold error paths inside hot functions are suppressed with
// //mhmlint:ignore hotpath <reason>.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// HotpathAnalyzer returns the hotpath analyzer.
func HotpathAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "hotpath",
		Doc:  "//mhm:hotpath functions must avoid allocating constructs and non-hotpath callees",
		Run:  hotpathRun,
	}
}

// bannedTimeFuncs are the clock reads disallowed on the hot path.
var bannedTimeFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

func hotpathRun(prog *Program) []Diagnostic {
	var out []Diagnostic
	report := func(pos ast.Node, format string, args ...any) {
		out = append(out, Diagnostic{
			Analyzer: "hotpath",
			Pos:      prog.Fset.Position(pos.Pos()),
			Message:  fmt.Sprintf(format, args...),
		})
	}
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj := pkg.Info.Defs[fd.Name]
				if obj == nil || !prog.IsHotpath(obj) {
					continue
				}
				checkHotBody(prog, pkg, fd, report)
			}
		}
	}
	return out
}

// checkHotBody walks one annotated function body.
func checkHotBody(prog *Program, pkg *Package, fd *ast.FuncDecl, report func(ast.Node, string, ...any)) {
	name := fd.Name.Name
	inspectWithStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		switch node := n.(type) {
		case *ast.GoStmt:
			report(node, "hotpath function %s spawns a goroutine", name)
		case *ast.DeferStmt:
			report(node, "hotpath function %s defers a call", name)
		case *ast.FuncLit:
			if caps := captures(pkg.Info, node); len(caps) > 0 {
				report(node, "hotpath function %s declares a closure capturing %s (heap allocation)", name, caps[0])
			}
			// Do not descend: the literal runs later (or is itself checked
			// when passed to an annotated callee).
			return false
		case *ast.CompositeLit:
			t := pkg.Info.Types[node].Type
			if t != nil {
				switch t.Underlying().(type) {
				case *types.Map:
					report(node, "hotpath function %s builds a map literal", name)
				case *types.Slice:
					report(node, "hotpath function %s builds a slice literal", name)
				}
			}
			if len(stack) > 0 {
				if un, ok := stack[len(stack)-1].(*ast.UnaryExpr); ok && un.Op == token.AND {
					report(node, "hotpath function %s takes the address of a composite literal (heap allocation)", name)
				}
			}
		case *ast.CallExpr:
			checkHotCall(prog, pkg, name, node, report)
		}
		return true
	})
}

// checkHotCall classifies one call expression inside a hot body.
func checkHotCall(prog *Program, pkg *Package, name string, call *ast.CallExpr, report func(ast.Node, string, ...any)) {
	// Type conversions are not calls.
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		return
	}
	callee := calleeObject(pkg.Info, call)
	switch fn := callee.(type) {
	case *types.Builtin:
		switch fn.Name() {
		case "append":
			report(call, "hotpath function %s calls append, which may allocate; preallocate with capacity instead", name)
		case "make":
			report(call, "hotpath function %s calls make (heap allocation)", name)
		case "new":
			report(call, "hotpath function %s calls new (heap allocation)", name)
		}
	case *types.Func:
		pkgPath := ""
		if fn.Pkg() != nil {
			pkgPath = fn.Pkg().Path()
		}
		switch {
		case pkgPath == "fmt":
			report(call, "hotpath function %s calls fmt.%s (allocates)", name, fn.Name())
		case pkgPath == "time" && bannedTimeFuncs[fn.Name()]:
			report(call, "hotpath function %s calls time.%s (clock read on the counting path)", name, fn.Name())
		case isInterfaceMethod(fn):
			if prog.isLocal(pkgPath) {
				report(call, "hotpath function %s makes a dynamic interface call to %s", name, fn.Name())
			}
		case prog.isLocal(pkgPath) && !prog.IsHotpath(fn):
			report(call, "hotpath function %s calls %s.%s, which is not annotated %s",
				name, fn.Pkg().Name(), fn.Name(), HotpathDirective)
		}
	default:
		// Calls through func values (parameters, fields) cannot be
		// verified syntactically; the caller vouches for them.
	}
}

// calleeObject resolves the called function/builtin, or nil for dynamic
// calls through func values.
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

// isInterfaceMethod reports whether fn is declared on an interface.
func isInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

// captures lists names used inside lit but declared outside it (and
// outside package/universe scope) — the variables a closure would have
// to capture.
func captures(info *types.Info, lit *ast.FuncLit) []string {
	var caps []string
	seen := map[types.Object]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		v, isVar := obj.(*types.Var)
		if !isVar || seen[v] {
			return true
		}
		// Declared inside the literal (params, results, locals): fine.
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return true
		}
		// Package-level variables are not captured.
		if v.Parent() == nil || v.Parent().Parent() == types.Universe {
			return true
		}
		seen[v] = true
		caps = append(caps, v.Name())
		return true
	})
	return caps
}
