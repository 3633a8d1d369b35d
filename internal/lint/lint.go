// Package lint is a go-vet-style static-analysis driver, written against
// the standard library only, that enforces the repository's concurrency,
// hot-path and numeric invariants (DESIGN.md "Enforced invariants").
//
// The paper's Memometer must never stall the monitored core: counting is
// allocation- and block-free while the secure core analyses the previous
// interval. The Go port keeps that discipline by convention — atomic-only
// field access in internal/obs, nil-safe metric handles, allocation-free
// hot paths, tolerance-based float comparison in the learning math. The
// analyzers in this package make each convention mechanically checkable:
//
//   - atomicfield: a struct field touched via sync/atomic anywhere must
//     never be read or written non-atomically elsewhere.
//   - nilreceiver: exported pointer-receiver methods on //mhm:nilsafe
//     handle types must keep their nil-receiver guards.
//   - hotpath: functions annotated //mhm:hotpath may not use allocating
//     constructs (syntactically approximated) or call unannotated
//     module-local functions.
//   - floateq: no ==/!= between floating-point operands in the numeric
//     packages (gmm, pca, stats); use the mat epsilon helpers.
//   - errdrop: no silently discarded error returns outside tests.
//   - detorder: functions annotated //mhm:deterministic (and their
//     static callees) must avoid nondeterminism sources — map iteration
//     feeding float accumulation, wall clocks, the global math/rand
//     source, math.FMA, multi-way selects, and arrival-order collection
//     of parallel worker results.
//   - lockorder: the module-wide mutex-acquisition graph must stay
//     acyclic and each ordered lock pair must use one consistent
//     Lock/RLock mode.
//   - goleak: goroutines need a join (WaitGroup, channel, context
//     cancel), and parallel dispatch closures must not capture loop
//     state by reference.
//   - deadapi: every exported func, method, type, var and const of a
//     non-main package needs a non-test reference somewhere in the
//     module, so removed serving paths stay removed.
//
// A finding is suppressed by a directive on the same line or the line
// above:
//
//	//mhmlint:ignore <analyzer> <reason>
//
// The reason is mandatory; a malformed directive is itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"
)

// Annotation directives recognised in doc comments.
const (
	// HotpathDirective marks a function whose body must stay
	// allocation-free (see the hotpath analyzer).
	HotpathDirective = "//mhm:hotpath"
	// NilsafeDirective marks a handle type whose exported pointer-receiver
	// methods must be nil-receiver safe (see the nilreceiver analyzer).
	NilsafeDirective = "//mhm:nilsafe"
	// DeterministicDirective marks a function whose result must be
	// bit-identical across runs, platforms and worker counts (see the
	// detorder analyzer). The contract extends to its static callees.
	DeterministicDirective = "//mhm:deterministic"
	// IgnoreDirective suppresses a finding on its line or the line below.
	IgnoreDirective = "//mhmlint:ignore"
)

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one named check run over a loaded Program.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(prog *Program) []Diagnostic
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		AtomicFieldAnalyzer(),
		NilReceiverAnalyzer(),
		HotpathAnalyzer(),
		FloatEqAnalyzer(),
		ErrDropAnalyzer(),
		DetOrderAnalyzer(),
		LockOrderAnalyzer(),
		GoLeakAnalyzer(),
		DeadAPIAnalyzer(),
	}
}

// Package is one type-checked package.
type Package struct {
	Path  string // import path
	Dir   string // absolute directory
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// ignoreDirective is one parsed //mhmlint:ignore comment.
type ignoreDirective struct {
	analyzer string
	reason   string
}

// Program is a set of type-checked packages plus module-wide facts.
type Program struct {
	Fset    *token.FileSet
	ModPath string
	Root    string
	// Pkgs are the requested analysis targets, in deterministic order.
	Pkgs []*Package
	// All maps import path to every module-local package loaded,
	// including dependencies of the targets.
	All map[string]*Package

	hotpath       map[types.Object]bool
	nilsafe       map[types.Object]bool
	deterministic map[types.Object]bool
	// funcDecls maps every module-local function/method object to its
	// declaration, for interprocedural analyzers (detorder, lockorder,
	// goleak).
	funcDecls map[types.Object]*funcDecl
	// ignores maps filename then line to the directives on that line.
	ignores map[string]map[int][]ignoreDirective
	// badDirectives are malformed //mhmlint:ignore comments.
	badDirectives []Diagnostic

	// loader checked All; modulePackages reuses it to extend the set to
	// the whole module tree, once, into module.
	loader     *loader
	moduleOnce sync.Once
	module     []*Package
	moduleErr  error
}

// allSorted returns every loaded package sorted by import path, for
// deterministic module-wide fact gathering.
func (p *Program) allSorted() []*Package {
	out := make([]*Package, 0, len(p.All))
	for _, pkg := range p.All {
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// IsHotpath reports whether obj is a function annotated //mhm:hotpath
// anywhere in the loaded module.
func (p *Program) IsHotpath(obj types.Object) bool { return p.hotpath[obj] }

// IsNilsafe reports whether obj is a type annotated //mhm:nilsafe.
func (p *Program) IsNilsafe(obj types.Object) bool { return p.nilsafe[obj] }

// funcDecl pairs a declaration with the package it was parsed in.
type funcDecl struct {
	pkg  *Package
	decl *ast.FuncDecl
}

// declOf returns the module-local declaration of a function object, or
// nil when the object is not a declared module function (stdlib,
// interface method, func value).
func (p *Program) declOf(obj types.Object) *funcDecl { return p.funcDecls[obj] }

// isLocal reports whether path belongs to the loaded module.
func (p *Program) isLocal(path string) bool {
	return path == p.ModPath || strings.HasPrefix(path, p.ModPath+"/")
}

// scanFacts harvests annotations and ignore directives from every loaded
// file. Called once at the end of loading.
func (p *Program) scanFacts() {
	p.hotpath = map[types.Object]bool{}
	p.nilsafe = map[types.Object]bool{}
	p.deterministic = map[types.Object]bool{}
	p.funcDecls = map[types.Object]*funcDecl{}
	p.ignores = map[string]map[int][]ignoreDirective{}
	for _, pkg := range p.allSorted() {
		for _, f := range pkg.Files {
			p.scanAnnotations(pkg, f)
			p.scanIgnores(f)
		}
	}
}

// hasDirective reports whether any line of doc is exactly the directive.
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(c.Text) == directive {
			return true
		}
	}
	return false
}

// scanAnnotations records //mhm:hotpath and //mhm:deterministic
// functions, and //mhm:nilsafe types.
func (p *Program) scanAnnotations(pkg *Package, f *ast.File) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if obj := pkg.Info.Defs[d.Name]; obj != nil {
				p.funcDecls[obj] = &funcDecl{pkg: pkg, decl: d}
				if hasDirective(d.Doc, HotpathDirective) {
					p.hotpath[obj] = true
				}
				if hasDirective(d.Doc, DeterministicDirective) {
					p.deterministic[obj] = true
				}
			}
		case *ast.GenDecl:
			switch d.Tok {
			case token.TYPE:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					// The directive may sit on the grouped decl or the spec.
					if hasDirective(ts.Doc, NilsafeDirective) || (len(d.Specs) == 1 && hasDirective(d.Doc, NilsafeDirective)) {
						if obj := pkg.Info.Defs[ts.Name]; obj != nil {
							p.nilsafe[obj] = true
						}
					}
				}
			}
		}
	}
}

// scanIgnores indexes //mhmlint:ignore directives by file and line.
func (p *Program) scanIgnores(f *ast.File) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(c.Text)
			if !strings.HasPrefix(text, IgnoreDirective) {
				continue
			}
			pos := p.Fset.Position(c.Pos())
			fields := strings.Fields(strings.TrimPrefix(text, IgnoreDirective))
			if len(fields) < 2 {
				p.badDirectives = append(p.badDirectives, Diagnostic{
					Analyzer: "mhmlint",
					Pos:      pos,
					Message:  fmt.Sprintf("malformed directive %q: want %s <analyzer> <reason>", text, IgnoreDirective),
				})
				continue
			}
			m := p.ignores[pos.Filename]
			if m == nil {
				m = map[int][]ignoreDirective{}
				p.ignores[pos.Filename] = m
			}
			m[pos.Line] = append(m[pos.Line], ignoreDirective{
				analyzer: fields[0],
				reason:   strings.Join(fields[1:], " "),
			})
		}
	}
}

// suppressed reports whether d is covered by an ignore directive on its
// line or the line above.
func (p *Program) suppressed(d Diagnostic) bool {
	m := p.ignores[d.Pos.Filename]
	if m == nil {
		return false
	}
	for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
		for _, ig := range m[line] {
			if ig.analyzer == d.Analyzer {
				return true
			}
		}
	}
	return false
}

// RunAnalyzers runs the given analyzers over prog, filters suppressed
// findings, appends malformed-directive reports, and returns the result
// sorted by position.
func RunAnalyzers(prog *Program, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, a := range analyzers {
		for _, d := range a.Run(prog) {
			if !prog.suppressed(d) {
				out = append(out, d)
			}
		}
	}
	out = append(out, prog.badDirectives...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return out
}

// pathEndsWith reports whether the import path's trailing segments equal
// seg ("gmm" matches ".../internal/gmm"; "internal/gmm" matches too).
func pathEndsWith(path, seg string) bool {
	return path == seg || strings.HasSuffix(path, "/"+seg)
}

// inspectWithStack walks root calling f with each node and the stack of
// its ancestors (outermost first, not including n itself). Returning
// false prunes the subtree.
func inspectWithStack(root ast.Node, f func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !f(n, stack) {
			return false
		}
		stack = append(stack, n)
		return true
	})
}
