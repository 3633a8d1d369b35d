// The lockorder analyzer builds a module-wide mutex-acquisition graph
// and keeps it a partial order. The fleet controller, its registry and
// its streams each guard state with their own mutexes; one function
// acquiring A then B while another acquires B then A is a deadlock
// waiting for the right interleaving — exactly the failure mode -race
// tests only catch when they happen to hit it.
//
// Mechanics: every sync.Mutex/sync.RWMutex acquisition site is resolved
// to a lock identity (the struct field or variable holding the mutex).
// A linear walk of each function body tracks the held set — Lock/RLock
// push, Unlock/RUnlock pop, deferred unlocks keep the lock held to the
// function's end — and records an edge held→acquired for every nested
// acquisition. Calls to module-local functions made while holding a
// lock contribute the callee's transitive acquisition set. Reported:
//
//   - reacquiring a lock already held (self-deadlock; for an RWMutex,
//     the read-to-write upgrade);
//   - cycles in the acquisition graph (potential deadlock);
//   - a lock pair acquired in both Lock and RLock mode along the same
//     edge (mixed read/write ordering: a writer queued between two
//     readers of an RWMutex deadlocks the pair).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrderAnalyzer returns the lockorder analyzer.
func LockOrderAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "lockorder",
		Doc:  "mutex-acquisition graph must be acyclic with consistent Lock/RLock ordering",
		Run:  lockorderRun,
	}
}

// lockAcquire and lockRelease classify the sync method names.
var (
	lockAcquire = map[string]bool{"Lock": true, "RLock": true}
	lockRelease = map[string]string{"Unlock": "Lock", "RUnlock": "RLock"}
)

// lockEdge is one held→acquired observation.
type lockEdge struct {
	from, to types.Object
	fromMode string // mode from was held in at the site
	toMode   string // Lock or RLock
	pos      token.Position
	fn       string // function the edge was observed in
	viaCall  bool   // acquired inside a callee, not literally here
}

// lockSite is one acquisition with its mode.
type lockSite struct {
	obj  types.Object
	mode string
	pos  token.Position
}

func lockorderRun(prog *Program) []Diagnostic {
	var out []Diagnostic

	// Phase 1: per-function direct acquisition sets, module-wide, for
	// the transitive closure.
	acquires := map[types.Object][]lockSite{}
	for _, pkg := range prog.allSorted() {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj := pkg.Info.Defs[fd.Name]
				if obj == nil {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if site, ok := lockCallSite(prog, pkg, call); ok && lockAcquire[site.mode] {
						acquires[obj] = append(acquires[obj], site)
					}
					return true
				})
			}
		}
	}
	transAcq := transitiveAcquires(prog, acquires)

	// Phase 2: walk target-package bodies tracking the held set; build
	// the module edge list and report immediate re-acquisitions.
	var edges []lockEdge
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				walkHeldSet(prog, pkg, fd, transAcq, &edges, &out)
			}
		}
	}

	out = append(out, reportCycles(prog, edges)...)
	out = append(out, reportMixedModes(prog, edges)...)
	return out
}

// lockCallSite resolves call to a sync mutex method invocation on a
// nameable lock identity.
func lockCallSite(prog *Program, pkg *Package, call *ast.CallExpr) (lockSite, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockSite{}, false
	}
	name := sel.Sel.Name
	if !lockAcquire[name] && lockRelease[name] == "" {
		return lockSite{}, false
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lockSite{}, false
	}
	obj := lockIdentity(pkg.Info, sel.X)
	if obj == nil {
		return lockSite{}, false
	}
	return lockSite{obj: obj, mode: name, pos: prog.Fset.Position(call.Pos())}, true
}

// lockIdentity resolves the expression a mutex method is invoked on to
// a stable object: a struct field or a variable. Index, paren, star and
// leading selectors peel away (s.streams[i].mu → field mu).
func lockIdentity(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			if v := fieldObject(info, x); v != nil {
				return v
			}
			// Package-qualified var (pkg.mu) or chained value selector.
			if obj := info.Uses[x.Sel]; obj != nil {
				return obj
			}
			return nil
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil {
				return obj
			}
			return info.Defs[x]
		default:
			return nil
		}
	}
}

// transitiveAcquires closes the per-function acquisition sets over the
// static call graph (fixpoint; cycles converge because sets only grow).
func transitiveAcquires(prog *Program, direct map[types.Object][]lockSite) map[types.Object]map[types.Object]lockSite {
	closure := map[types.Object]map[types.Object]lockSite{}
	for fn, sites := range direct {
		m := map[types.Object]lockSite{}
		for _, s := range sites {
			if _, ok := m[s.obj]; !ok {
				m[s.obj] = s
			}
		}
		closure[fn] = m
	}
	callees := map[types.Object][]types.Object{}
	for fn, fd := range prog.funcDecls {
		if fd.decl.Body == nil {
			continue
		}
		ast.Inspect(fd.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee, ok := calleeObject(fd.pkg.Info, call).(*types.Func)
			if !ok || isInterfaceMethod(callee) || callee.Pkg() == nil || !prog.isLocal(callee.Pkg().Path()) {
				return true
			}
			callees[fn] = append(callees[fn], callee)
			return true
		})
	}
	for changed := true; changed; {
		changed = false
		for fn, cs := range callees {
			for _, c := range cs {
				for obj, site := range closure[c] {
					m := closure[fn]
					if m == nil {
						m = map[types.Object]lockSite{}
						closure[fn] = m
					}
					if _, ok := m[obj]; !ok {
						m[obj] = site
						changed = true
					}
				}
			}
		}
	}
	return closure
}

// walkHeldSet does the linear held-set walk of one function body.
func walkHeldSet(prog *Program, pkg *Package, fd *ast.FuncDecl, transAcq map[types.Object]map[types.Object]lockSite, edges *[]lockEdge, out *[]Diagnostic) {
	fname := fd.Name.Name
	var held []lockSite
	inspectWithStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		// Skip nested function literals: they run later, on another
		// goroutine or call path, not under this held set.
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// A deferred unlock runs at return: the lock stays held for the
		// rest of the walk, which is exactly what the edge model wants.
		if len(stack) > 0 {
			if _, isDefer := stack[len(stack)-1].(*ast.DeferStmt); isDefer {
				return true
			}
		}
		if site, ok := lockCallSite(prog, pkg, call); ok {
			if lockAcquire[site.mode] {
				for _, h := range held {
					if h.obj == site.obj {
						*out = append(*out, Diagnostic{
							Analyzer: "lockorder",
							Pos:      site.pos,
							Message: fmt.Sprintf("%s acquires %s (%s) while already holding it (%s at line %d): self-deadlock",
								fname, lockName(site.obj), site.mode, h.mode, h.pos.Line),
						})
						continue
					}
					*edges = append(*edges, lockEdge{
						from: h.obj, to: site.obj,
						fromMode: h.mode, toMode: site.mode,
						pos: site.pos, fn: fname,
					})
				}
				held = append(held, site)
			} else if want := lockRelease[site.mode]; want != "" {
				for i := len(held) - 1; i >= 0; i-- {
					if held[i].obj == site.obj {
						held = append(held[:i], held[i+1:]...)
						break
					}
				}
			}
			return true
		}
		// A module-local call while holding locks contributes the
		// callee's transitive acquisitions as edges.
		if callee, ok := calleeObject(pkg.Info, call).(*types.Func); ok && len(held) > 0 &&
			!isInterfaceMethod(callee) && callee.Pkg() != nil && prog.isLocal(callee.Pkg().Path()) {
			for _, h := range held {
				for obj, site := range transAcq[callee] {
					if obj == h.obj {
						continue // re-entrant acquisition via a callee is the callee's report
					}
					*edges = append(*edges, lockEdge{
						from: h.obj, to: obj,
						fromMode: h.mode, toMode: site.mode,
						pos: prog.Fset.Position(call.Pos()), fn: fname, viaCall: true,
					})
				}
			}
		}
		return true
	})
}

// reportCycles finds cycles in the acquisition graph and reports each
// once, anchored at its lexically first edge.
func reportCycles(prog *Program, edges []lockEdge) []Diagnostic {
	adj := map[types.Object][]lockEdge{}
	for _, e := range edges {
		adj[e.from] = append(adj[e.from], e)
	}
	nodes := make([]types.Object, 0, len(adj))
	for n := range adj {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return lockName(nodes[i]) < lockName(nodes[j]) })

	var out []Diagnostic
	reported := map[string]bool{}
	var path []lockEdge
	onPath := map[types.Object]bool{}
	var dfs func(n types.Object)
	dfs = func(n types.Object) {
		onPath[n] = true
		for _, e := range adj[n] {
			if onPath[e.to] {
				// Cycle: the suffix of path from e.to, plus e.
				var cyc []lockEdge
				for i, pe := range path {
					if pe.from == e.to {
						cyc = append([]lockEdge{}, path[i:]...)
						break
					}
				}
				cyc = append(cyc, e)
				key := cycleKey(cyc)
				if !reported[key] {
					reported[key] = true
					out = append(out, Diagnostic{
						Analyzer: "lockorder",
						Pos:      cyc[0].pos,
						Message:  fmt.Sprintf("lock-order cycle: %s", describeCycle(cyc)),
					})
				}
				continue
			}
			path = append(path, e)
			dfs(e.to)
			path = path[:len(path)-1]
		}
		onPath[n] = false
	}
	for _, n := range nodes {
		dfs(n)
	}
	return out
}

// cycleKey canonicalizes a cycle to its sorted lock-name set so each
// cycle reports once regardless of entry point.
func cycleKey(cyc []lockEdge) string {
	names := make([]string, len(cyc))
	for i, e := range cyc {
		names[i] = lockName(e.from)
	}
	sort.Strings(names)
	return strings.Join(names, "→")
}

// describeCycle renders A →(fn:line) B →(fn:line) A.
func describeCycle(cyc []lockEdge) string {
	var b strings.Builder
	for _, e := range cyc {
		fmt.Fprintf(&b, "%s(%s) → ", lockName(e.from), e.fromMode)
	}
	b.WriteString(lockName(cyc[0].from))
	parts := make([]string, len(cyc))
	for i, e := range cyc {
		parts[i] = fmt.Sprintf("%s at line %d", e.fn, e.pos.Line)
	}
	return b.String() + " (" + strings.Join(parts, "; ") + ")"
}

// reportMixedModes flags an ordered lock pair acquired in both Lock and
// RLock mode: inconsistent read/write nesting deadlocks when a writer
// queues between the two readers.
func reportMixedModes(prog *Program, edges []lockEdge) []Diagnostic {
	type pair struct{ from, to types.Object }
	modes := map[pair]map[string]lockEdge{}
	for _, e := range edges {
		p := pair{e.from, e.to}
		if modes[p] == nil {
			modes[p] = map[string]lockEdge{}
		}
		if _, ok := modes[p][e.toMode]; !ok {
			modes[p][e.toMode] = e
		}
	}
	var out []Diagnostic
	for p, m := range modes {
		l, hasL := m["Lock"]
		r, hasR := m["RLock"]
		if !hasL || !hasR {
			continue
		}
		first, second := l, r
		if posLess(r.pos, l.pos) {
			first, second = r, l
		}
		out = append(out, Diagnostic{
			Analyzer: "lockorder",
			Pos:      second.pos,
			Message: fmt.Sprintf("mixed %s/%s acquisition of %s while holding %s (other mode in %s at line %d); pick one mode for this ordering",
				second.toMode, first.toMode, lockName(p.to), lockName(p.from), first.fn, first.pos.Line),
		})
	}
	sort.Slice(out, func(i, j int) bool { return posLess(out[i].Pos, out[j].Pos) })
	return out
}

// posLess orders positions by file then offset.
func posLess(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	return a.Offset < b.Offset
}

// lockName renders a lock identity as pkg.name.
func lockName(obj types.Object) string {
	if obj.Pkg() != nil {
		return obj.Pkg().Name() + "." + obj.Name()
	}
	return obj.Name()
}
