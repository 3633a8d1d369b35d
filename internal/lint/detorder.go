// The detorder analyzer makes the repository's determinism contract
// statically checkable. The paper's detection guarantee rests on the
// secure core recomputing the exact density the model was calibrated
// on, which this repo pins as bit-identity of scores and fits at any
// worker count (DESIGN.md §11). A function annotated //mhm:deterministic
// — and, transitively, every module-local function it can reach through
// static calls, function values or method expressions — must avoid the
// constructs that break bit-identity:
//
//   - iterating a map while accumulating floats or appending output
//     (map order is randomized; float addition does not commute);
//   - time.Now/Since/Until (wall-clock reads);
//   - the global math/rand source (unseeded by the caller; inject a
//     *rand.Rand built from rand.NewSource(seed) instead);
//   - math.FMA (fuses the intermediate rounding, so results differ
//     from the separate multiply-add the pure-Go paths compute);
//   - select statements with more than one communication clause (the
//     runtime picks a ready case pseudo-randomly);
//   - accumulating channel-received worker results in arrival order
//     (the bug class the train/score reductions avoid by writing
//     per-chunk partials and folding them in ascending index order).
//
// Dynamic interface calls and calls through func values are not
// traversed — the annotated caller vouches for what it injects, exactly
// as the hotpath analyzer treats func-valued callees.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// DetOrderAnalyzer returns the detorder analyzer.
func DetOrderAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "detorder",
		Doc:  "//mhm:deterministic functions (and static callees) must avoid nondeterminism sources",
		Run:  detorderRun,
	}
}

// detReach is one function in the deterministic set, with the annotated
// root it was reached from (itself, when directly annotated).
type detReach struct {
	fn   *funcDecl
	root types.Object
}

func detorderRun(prog *Program) []Diagnostic {
	reached := detSet(prog)

	// Deterministic report order: by file position of the declaration.
	objs := make([]types.Object, 0, len(reached))
	for obj := range reached {
		objs = append(objs, obj)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].Pos() < objs[j].Pos() })

	var out []Diagnostic
	for _, obj := range objs {
		r := reached[obj]
		via := ""
		if r.root != obj {
			via = fmt.Sprintf(" (deterministic via %s)", r.root.Name())
		}
		checkDetBody(prog, r.fn.pkg, r.fn.decl, obj.Name()+via, &out)
	}
	return out
}

// detSet computes the deterministic function set: BFS from every
// //mhm:deterministic root through static module-local calls and
// references (method expressions and function values taken inside a
// deterministic body run as part of the deterministic computation).
func detSet(prog *Program) map[types.Object]detReach {
	reached := map[types.Object]detReach{}
	var queue []types.Object
	// Seed with annotated roots in deterministic order.
	var roots []types.Object
	for obj := range prog.deterministic {
		roots = append(roots, obj)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].Pos() < roots[j].Pos() })
	for _, obj := range roots {
		if fd := prog.declOf(obj); fd != nil && fd.decl.Body != nil {
			reached[obj] = detReach{fn: fd, root: obj}
			queue = append(queue, obj)
		}
	}
	enqueue := func(fn types.Object, root types.Object) {
		if _, seen := reached[fn]; seen {
			return
		}
		fd := prog.declOf(fn)
		if fd == nil || fd.decl.Body == nil {
			return
		}
		reached[fn] = detReach{fn: fd, root: root}
		queue = append(queue, fn)
	}
	for len(queue) > 0 {
		obj := queue[0]
		queue = queue[1:]
		r := reached[obj]
		ast.Inspect(r.fn.decl.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := r.fn.pkg.Info.Uses[id].(*types.Func)
			if !ok || isInterfaceMethod(fn) {
				return true
			}
			if fn.Pkg() == nil || !prog.isLocal(fn.Pkg().Path()) {
				return true
			}
			enqueue(fn, r.root)
			return true
		})
	}
	return reached
}

// checkDetBody reports every nondeterminism source in one body.
func checkDetBody(prog *Program, pkg *Package, fd *ast.FuncDecl, name string, out *[]Diagnostic) {
	report := func(pos ast.Node, format string, args ...any) {
		*out = append(*out, Diagnostic{
			Analyzer: "detorder",
			Pos:      prog.Fset.Position(pos.Pos()),
			Message:  fmt.Sprintf(format, args...),
		})
	}
	inspectWithStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		switch node := n.(type) {
		case *ast.CallExpr:
			checkDetCall(pkg, name, node, report)
		case *ast.SelectStmt:
			comms := 0
			for _, c := range node.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
					comms++
				}
			}
			if comms >= 2 {
				report(node, "deterministic function %s selects over %d ready channels (runtime picks pseudo-randomly); dedicate one channel per result slot", name, comms)
			}
		case *ast.RangeStmt:
			if t := pkg.Info.Types[node.X].Type; t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					checkMapRangeBody(pkg, name, fd.Body, node, report)
				}
			}
		case *ast.AssignStmt:
			checkRecvAccumulate(pkg, name, node, stack, report)
		}
		return true
	})
}

// checkDetCall flags the banned callees inside a deterministic body.
func checkDetCall(pkg *Package, name string, call *ast.CallExpr, report func(ast.Node, string, ...any)) {
	fn, ok := calleeObject(pkg.Info, call).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	path := fn.Pkg().Path()
	switch {
	case path == "time" && bannedTimeFuncs[fn.Name()]:
		report(call, "deterministic function %s calls time.%s (wall-clock read)", name, fn.Name())
	case path == "math/rand" || path == "math/rand/v2":
		// Methods on *rand.Rand draw from a caller-injected, seeded
		// source; only the package-level functions hit the global one.
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil && fn.Name() != "New" && fn.Name() != "NewSource" && fn.Name() != "NewZipf" && fn.Name() != "NewPCG" && fn.Name() != "NewChaCha8" {
			report(call, "deterministic function %s uses the global math/rand source (rand.%s); inject a seeded *rand.Rand", name, fn.Name())
		}
	case path == "math" && fn.Name() == "FMA":
		report(call, "deterministic function %s calls math.FMA (fused rounding differs from the separate multiply-add)", name)
	}
}

// checkMapRangeBody flags float accumulation and output built inside a
// range-over-map body: both observe the randomized iteration order. The
// canonical fix — collect keys, sort, then reduce — necessarily appends
// inside the map range, so an append target later handed to a sort/
// slices call is exempt.
func checkMapRangeBody(pkg *Package, name string, fnBody *ast.BlockStmt, rng *ast.RangeStmt, report func(ast.Node, string, ...any)) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			for _, lhs := range as.Lhs {
				if isFloat(pkg.Info.Types[lhs].Type) && declaredOutside(pkg.Info, lhs, rng) {
					report(as, "deterministic function %s accumulates a float across a map range (iteration order is randomized); collect keys, sort, then reduce", name)
				}
			}
		case token.ASSIGN, token.DEFINE:
			// append into a variable living outside the loop emits output
			// in map order.
			for i, rhs := range as.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok {
					continue
				}
				if b, ok := calleeObject(pkg.Info, call).(*types.Builtin); !ok || b.Name() != "append" {
					continue
				}
				if i < len(as.Lhs) && declaredOutside(pkg.Info, as.Lhs[i], rng) && !sortedLater(pkg, fnBody, as.Lhs[i]) {
					report(as, "deterministic function %s appends output inside a map range (iteration order is randomized); collect keys, sort, then emit", name)
				}
			}
		}
		return true
	})
}

// declaredOutside reports whether the variable behind expr is declared
// outside the given node's span (i.e. survives across iterations).
// Index/selector bases count: dst[k] targets dst.
func declaredOutside(info *types.Info, expr ast.Expr, within ast.Node) bool {
	for {
		switch e := expr.(type) {
		case *ast.IndexExpr:
			expr = e.X
			continue
		case *ast.ParenExpr:
			expr = e.X
			continue
		case *ast.StarExpr:
			expr = e.X
			continue
		}
		break
	}
	id, ok := expr.(*ast.Ident)
	if !ok {
		// Selector (field) targets outlive any loop.
		_, isSel := expr.(*ast.SelectorExpr)
		return isSel
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	return v.Pos() < within.Pos() || v.Pos() > within.End()
}

// sortedLater reports whether the variable behind expr is passed to any
// sort or slices call somewhere in the function: the collect-sort-emit
// idiom that repairs map-iteration order.
func sortedLater(pkg *Package, fnBody *ast.BlockStmt, expr ast.Expr) bool {
	id, ok := ast.Unparen(expr).(*ast.Ident)
	if !ok {
		return false
	}
	target := pkg.Info.Uses[id]
	if target == nil {
		target = pkg.Info.Defs[id]
	}
	if target == nil {
		return false
	}
	sorted := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || sorted {
			return !sorted
		}
		fn, ok := calleeObject(pkg.Info, call).(*types.Func)
		if !ok || fn.Pkg() == nil || (fn.Pkg().Path() != "sort" && fn.Pkg().Path() != "slices") {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(an ast.Node) bool {
				if aid, ok := an.(*ast.Ident); ok && pkg.Info.Uses[aid] == target {
					sorted = true
				}
				return !sorted
			})
		}
		return !sorted
	})
	return sorted
}

// checkRecvAccumulate flags `acc += <-ch` style collection inside a
// loop: worker results fold in arrival order, which varies run to run.
func checkRecvAccumulate(pkg *Package, name string, as *ast.AssignStmt, stack []ast.Node, report func(ast.Node, string, ...any)) {
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN, token.ASSIGN:
	default:
		return
	}
	inLoop := false
	for _, anc := range stack {
		switch anc.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			inLoop = true
		}
	}
	if !inLoop {
		return
	}
	hasRecv := false
	for _, rhs := range as.Rhs {
		ast.Inspect(rhs, func(n ast.Node) bool {
			if un, ok := n.(*ast.UnaryExpr); ok && un.Op == token.ARROW {
				hasRecv = true
			}
			return true
		})
	}
	if !hasRecv {
		return
	}
	for _, lhs := range as.Lhs {
		if isFloat(pkg.Info.Types[lhs].Type) {
			// `acc = acc + <-ch` and compound forms both reorder the fold;
			// a plain overwrite of a per-index slot (dst[i] = <-ch) keyed by
			// something received alongside is fine, but a float target that
			// also appears on the right is an accumulation.
			if as.Tok != token.ASSIGN || mentions(as.Rhs, lhs, pkg.Info) {
				report(as, "deterministic function %s accumulates channel-received worker results in arrival order; write per-chunk partials and reduce in ascending index order", name)
			}
		}
	}
}

// mentions reports whether the variable behind lhs also appears in any
// rhs expression (the accumulation pattern x = x + ...).
func mentions(rhs []ast.Expr, lhs ast.Expr, info *types.Info) bool {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return false
	}
	target := info.Uses[id]
	if target == nil {
		target = info.Defs[id]
	}
	if target == nil {
		return false
	}
	found := false
	for _, e := range rhs {
		ast.Inspect(e, func(n ast.Node) bool {
			if rid, ok := n.(*ast.Ident); ok && info.Uses[rid] == target {
				found = true
			}
			return true
		})
	}
	return found
}
