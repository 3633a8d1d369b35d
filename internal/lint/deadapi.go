// The deadapi analyzer keeps removed surfaces removed: it reports every
// exported func, method, type, var and const of a non-main package that
// nothing in the module references outside tests. Exporting a name is a
// promise to other packages; one nobody takes up is code the monitor
// carries but never runs.
//
// References are gathered over the whole module tree, not only the
// packages named on the command line, so a run over a subset reports
// nothing a full run would not. What counts as a reference:
//
//   - any use of the object in a non-test file, except from inside its
//     own declaration (a recursive call, a type's own methods naming
//     their receiver type);
//   - a method that lets a type of the module satisfy an interface the
//     module declares, spells out, or imports (fmt.Stringer, error, ...);
//   - a use in a file built only for another GOOS/GOARCH. Those files
//     are not type-checked on the host, so they are resolved by name:
//     a qualified pkg.Name, an unqualified name of the file's own
//     package, or — for x.M selectors — every method named M.
//
// Packages under testdata are outside the module as the go tool sees
// it and are not judged; a fixture that exercises deadapi carries its
// own go.mod.
package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// DeadAPIAnalyzer returns the deadapi analyzer.
func DeadAPIAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "deadapi",
		Doc:  "exported identifiers need a non-test reference somewhere in the module",
		Run:  deadapiRun,
	}
}

func deadapiRun(prog *Program) []Diagnostic {
	var targets []*Package
	for _, pkg := range prog.Pkgs {
		if pkg.Types.Name() != "main" && !underTestdata(prog.Root, pkg.Dir) {
			targets = append(targets, pkg)
		}
	}
	if len(targets) == 0 {
		return nil
	}
	module, err := prog.modulePackages()
	if err != nil {
		return []Diagnostic{{
			Analyzer: "deadapi",
			Pos:      token.Position{Filename: filepath.Join(prog.Root, "go.mod"), Line: 1, Column: 1},
			Message:  fmt.Sprintf("cannot load the module for the reference scan: %v", err),
		}}
	}
	used := map[types.Object]bool{}
	for _, pkg := range module {
		for _, f := range pkg.Files {
			markUses(pkg.Info, f, used)
		}
	}
	usedByName := markOtherBuildUses(module, used)
	markInterfaceMethods(module, used, usedByName)

	var out []Diagnostic
	for _, pkg := range targets {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				for _, id := range declNames(decl, true) {
					obj := pkg.Info.Defs[id]
					if !id.IsExported() || obj == nil || used[obj] {
						continue
					}
					if fn, ok := obj.(*types.Func); ok && isMethod(fn) && usedByName[fn.Name()] {
						continue
					}
					out = append(out, Diagnostic{
						Analyzer: "deadapi",
						Pos:      prog.Fset.Position(id.Pos()),
						Message:  fmt.Sprintf("exported %s %s has no non-test reference in the module", objKind(obj), objName(obj)),
					})
				}
			}
		}
	}
	return out
}

// underTestdata reports whether dir lies in a testdata tree below root.
func underTestdata(root, dir string) bool {
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return false
	}
	for _, seg := range strings.Split(filepath.ToSlash(rel), "/") {
		if seg == "testdata" {
			return true
		}
	}
	return false
}

func isMethod(fn *types.Func) bool {
	return fn.Type().(*types.Signature).Recv() != nil
}

// objKind names an object's kind for the report.
func objKind(obj types.Object) string {
	switch o := obj.(type) {
	case *types.Func:
		if isMethod(o) {
			return "method"
		}
		return "func"
	case *types.TypeName:
		return "type"
	case *types.Const:
		return "const"
	default:
		return "var"
	}
}

// objName renders Name, or Recv.Name for a method.
func objName(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok && isMethod(fn) {
		if named := recvNamed(fn); named != nil {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	return obj.Name()
}

// recvNamed returns a method's receiver base type.
func recvNamed(fn *types.Func) *types.Named {
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// origin maps an instantiated generic func or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// markUses records every object f refers to, leaving out references a
// declaration makes to itself.
func markUses(info *types.Info, f *ast.File, used map[types.Object]bool) {
	walk := func(n ast.Node, self ...types.Object) {
		ast.Inspect(n, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := info.Uses[id]
			if obj == nil {
				return true
			}
			obj = origin(obj)
			for _, s := range self {
				if obj == s {
					return true
				}
			}
			used[obj] = true
			return true
		})
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			fn, _ := info.Defs[d.Name].(*types.Func)
			if fn == nil {
				walk(d)
				continue
			}
			if !isMethod(fn) || recvNamed(fn) == nil {
				walk(d, fn)
			} else {
				walk(d, fn, recvNamed(fn).Obj())
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					walk(s, info.Defs[s.Name])
				case *ast.ValueSpec:
					self := make([]types.Object, 0, len(s.Names))
					for _, name := range s.Names {
						self = append(self, info.Defs[name])
					}
					walk(s, self...)
				default:
					walk(s)
				}
			}
		}
	}
}

// markOtherBuildUses resolves, by name, the references made by the
// module's non-test files that build only on other platforms. It
// returns the names of methods selected there, which cannot be tied to
// a receiver type without type-checking.
func markOtherBuildUses(module []*Package, used map[types.Object]bool) map[string]bool {
	byPath := map[string]*Package{}
	for _, pkg := range module {
		byPath[pkg.Path] = pkg
	}
	methods := map[string]bool{}
	fset := token.NewFileSet()
	for _, pkg := range module {
		for _, name := range otherBuildFiles(pkg.Dir) {
			f, err := parser.ParseFile(fset, filepath.Join(pkg.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				continue // the host build never compiles it; nothing to resolve
			}
			imports := map[string]*Package{}
			for _, spec := range f.Imports {
				path, err := strconv.Unquote(spec.Path.Value)
				if err != nil || byPath[path] == nil {
					continue
				}
				local := byPath[path].Types.Name()
				if spec.Name != nil {
					local = spec.Name.Name
				}
				imports[local] = byPath[path]
			}
			declared := map[*ast.Ident]bool{}
			for _, decl := range f.Decls {
				for _, id := range declNames(decl, false) {
					declared[id] = true
				}
			}
			mark := func(p *Package, name string) {
				if obj := p.Types.Scope().Lookup(name); obj != nil {
					used[obj] = true
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.ImportSpec:
					return false
				case *ast.SelectorExpr:
					if id, ok := x.X.(*ast.Ident); ok && imports[id.Name] != nil {
						mark(imports[id.Name], x.Sel.Name)
						return false
					}
					methods[x.Sel.Name] = true
				case *ast.Ident:
					if !declared[x] {
						mark(pkg, x.Name)
					}
				}
				return true
			})
		}
	}
	return methods
}

// otherBuildFiles lists the non-test .go files of dir that the host
// build excludes.
func otherBuildFiles(dir string) []string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err == nil && !ok {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// declNames lists the names a package-level declaration defines —
// funcs, types, vars and consts — plus methods when withMethods is set.
func declNames(decl ast.Decl, withMethods bool) []*ast.Ident {
	var out []*ast.Ident
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if withMethods || d.Recv == nil {
			out = append(out, d.Name)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				out = append(out, s.Name)
			case *ast.ValueSpec:
				out = append(out, s.Names...)
			}
		}
	}
	return out
}

// markInterfaceMethods marks the methods through which a named type of
// the module satisfies an interface: one declared or spelled out in the
// module, one exported by a package the module imports, or the
// predeclared error. Promoted methods count for the type that declares
// them. Generic types and interfaces, whose satisfaction go/types leaves
// unspecified uninstantiated, are matched by method name instead.
func markInterfaceMethods(module []*Package, used map[types.Object]bool, usedByName map[string]bool) {
	byMethod := map[string][]*types.Interface{}
	seen := map[*types.Interface]bool{}
	add := func(t types.Type) {
		iface, ok := t.Underlying().(*types.Interface)
		if !ok || seen[iface] || iface.NumMethods() == 0 {
			return
		}
		seen[iface] = true
		if named, ok := t.(*types.Named); ok && named.TypeParams().Len() > 0 {
			for i := 0; i < iface.NumMethods(); i++ {
				usedByName[iface.Method(i).Name()] = true
			}
			return
		}
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			byMethod[name] = append(byMethod[name], iface)
		}
	}
	add(types.Universe.Lookup("error").Type())
	imported := map[*types.Package]bool{}
	for _, pkg := range module {
		// Every interface the module spells out, declares or holds a
		// value of appears as an expression type.
		for _, tv := range pkg.Info.Types {
			add(tv.Type)
		}
		for _, imp := range pkg.Types.Imports() {
			imported[imp] = true
		}
	}
	for imp := range imported {
		scope := imp.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.Exported() {
				add(tn.Type())
			}
		}
	}

	for _, pkg := range module {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			mset := types.NewMethodSet(types.NewPointer(named))
			for i := 0; i < mset.Len(); i++ {
				m := origin(mset.At(i).Obj())
				if used[m] {
					continue
				}
				for _, iface := range byMethod[m.Name()] {
					if named.TypeParams().Len() > 0 || types.Implements(types.NewPointer(named), iface) {
						used[m] = true
						break
					}
				}
			}
		}
	}
}
