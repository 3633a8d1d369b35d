// Module-aware package loading built on go/parser and go/types only: the
// module's own import paths resolve to local directories and everything
// else goes through go/importer (export data when available, source
// otherwise). This keeps the driver free of external dependencies while
// still type-checking the full tree.
//
// Loading is parallel in two phases. Parse/discovery fans out over
// package directories (token.FileSet is safe for concurrent use),
// following module-local imports breadth-first until the dependency
// graph is closed. Type-checking then runs one goroutine per package,
// each blocking on its dependencies' completion, so independent
// subtrees check concurrently while imports always resolve to finished
// packages. The toolchain importers are not documented as
// goroutine-safe, so stdlib imports serialize through one mutex and a
// shared cache — which also keeps type identity (one *types.Package per
// path) across concurrently checked packages.
package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// FindModuleRoot walks up from dir to the directory containing go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// modulePath extracts the module path from root/go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s/go.mod", root)
}

// skipDir reports whether a directory is never a lintable package dir
// (mirrors the go tool's pattern-walking rules).
func skipDir(name string) bool {
	return name == "testdata" || name == "vendor" ||
		strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")
}

// goSources lists the non-test .go files of dir that build on the host
// platform, sorted. Build-constraint filtering (//go:build lines and
// _GOOS/_GOARCH filename suffixes) matches what the go tool would
// compile, so arch-specific files with pure-Go fallbacks don't
// redeclare their symbols here.
func goSources(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		files = append(files, filepath.Join(dir, name))
	}
	sort.Strings(files)
	return files, nil
}

// ExpandPatterns resolves package patterns relative to cwd into package
// directories. Supported forms: a directory ("./cmd/mhmlint"), a
// recursive pattern ("./...", "./internal/..."), and the module-path
// equivalents ("github.com/memheatmap/mhm/internal/gmm", ".../...").
func ExpandPatterns(cwd, root, modpath string, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		// Module-path patterns map onto the tree under root.
		if pat == modpath {
			pat = root
		} else if rest, ok := strings.CutPrefix(pat, modpath+"/"); ok {
			pat = filepath.Join(root, filepath.FromSlash(rest))
		}
		recursive := false
		if pat == "..." {
			pat, recursive = root, true
		} else if strings.HasSuffix(pat, "/...") {
			pat, recursive = strings.TrimSuffix(pat, "/..."), true
		}
		base := pat
		if !filepath.IsAbs(base) {
			base = filepath.Join(cwd, base)
		}
		base = filepath.Clean(base)
		if !recursive {
			files, err := goSources(base)
			if err != nil {
				return nil, fmt.Errorf("lint: pattern %q: %w", pat, err)
			}
			if len(files) == 0 {
				return nil, fmt.Errorf("lint: no Go files in %s", base)
			}
			add(base)
			continue
		}
		err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			if path != base && skipDir(d.Name()) {
				return filepath.SkipDir
			}
			files, err := goSources(path)
			if err != nil {
				return err
			}
			if len(files) > 0 {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("lint: pattern %q: %w", pat, err)
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// loadParallelism bounds both loader phases; overridable in tests.
var loadParallelism = func() int { return runtime.GOMAXPROCS(0) }

// loader resolves and type-checks packages with shared, locked caches.
type loader struct {
	fset    *token.FileSet
	root    string
	modpath string

	mu   sync.Mutex
	pkgs map[string]*Package // by import path, module-local only

	// The toolchain importers are serialized: neither the export-data nor
	// the source importer documents goroutine-safety, and the shared cache
	// guarantees one *types.Package per path across concurrent checks.
	impMu    sync.Mutex
	std      types.Importer // export-data importer for non-module paths
	source   types.Importer // source fallback when export data is absent
	imported map[string]*types.Package
}

// Import implements types.Importer: module-local paths resolve to
// already-checked packages (the scheduler guarantees dependency order),
// everything else defers to the serialized toolchain importers.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == l.modpath || strings.HasPrefix(path, l.modpath+"/") {
		l.mu.Lock()
		pkg := l.pkgs[path]
		l.mu.Unlock()
		if pkg == nil {
			return nil, fmt.Errorf("lint: internal error: %s imported before it was checked", path)
		}
		return pkg.Types, nil
	}
	l.impMu.Lock()
	defer l.impMu.Unlock()
	if pkg, ok := l.imported[path]; ok {
		return pkg, nil
	}
	pkg, err := l.std.Import(path)
	if err != nil {
		if l.source == nil {
			l.source = importer.ForCompiler(l.fset, "source", nil)
		}
		pkg, err = l.source.Import(path)
		if err != nil {
			return nil, err
		}
	}
	l.imported[path] = pkg
	return pkg, nil
}

// importPathFor maps an absolute directory to its import path. Dirs
// outside the module root (never expected) fall back to the directory
// path itself so error messages stay meaningful.
func (l *loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.root, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(dir)
	}
	if rel == "." {
		return l.modpath
	}
	return l.modpath + "/" + filepath.ToSlash(rel)
}

// dirFor inverts importPathFor for module-local import paths.
func (l *loader) dirFor(path string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modpath), "/")
	return filepath.Join(l.root, filepath.FromSlash(rel))
}

// parseJob carries one package through both loader phases.
type parseJob struct {
	dir  string
	path string
	asts []*ast.File
	deps []string // module-local import paths
	err  error
	pkg  *Package
	done chan struct{} // closed once type-checking finished (or was skipped)
}

// discover parses the targets and, breadth-first and in parallel, every
// module-local package they transitively import. Packages an earlier
// pass already checked join as finished jobs and are not parsed again.
func (l *loader) discover(dirs []string) map[string]*parseJob {
	jobs := map[string]*parseJob{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	sem := make(chan struct{}, loadParallelism())

	var schedule func(dir string)
	schedule = func(dir string) {
		path := l.importPathFor(dir)
		mu.Lock()
		if _, ok := jobs[path]; ok {
			mu.Unlock()
			return
		}
		j := &parseJob{dir: dir, path: path, done: make(chan struct{})}
		jobs[path] = j
		mu.Unlock()
		l.mu.Lock()
		j.pkg = l.pkgs[path]
		l.mu.Unlock()
		if j.pkg != nil {
			close(j.done)
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			l.parseInto(j)
			<-sem
			for _, dep := range j.deps {
				schedule(l.dirFor(dep))
			}
		}()
	}
	for _, dir := range dirs {
		schedule(dir)
	}
	wg.Wait()
	return jobs
}

// parseInto parses one package directory and records its module-local
// imports.
func (l *loader) parseInto(j *parseJob) {
	files, err := goSources(j.dir)
	if err != nil {
		j.err = err
		return
	}
	if len(files) == 0 {
		j.err = fmt.Errorf("lint: no Go files in %s", j.dir)
		return
	}
	deps := map[string]bool{}
	for _, f := range files {
		parsed, err := parser.ParseFile(l.fset, f, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			j.err = err
			return
		}
		j.asts = append(j.asts, parsed)
		for _, imp := range parsed.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == l.modpath || strings.HasPrefix(path, l.modpath+"/") {
				deps[path] = true
			}
		}
	}
	for dep := range deps {
		j.deps = append(j.deps, dep)
	}
	sort.Strings(j.deps)
}

// findImportCycle looks for a cycle in the module-local import graph
// before type-checking starts: the dependency-ordered scheduler would
// otherwise deadlock on one. Deterministic: paths visit in sorted order.
func findImportCycle(jobs map[string]*parseJob) error {
	paths := make([]string, 0, len(jobs))
	for p := range jobs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	const (
		white = 0 // unvisited
		grey  = 1 // on the current DFS path
		black = 2 // finished
	)
	color := map[string]int{}
	var visit func(p string) error
	visit = func(p string) error {
		color[p] = grey
		j := jobs[p]
		if j != nil {
			for _, dep := range j.deps {
				switch color[dep] {
				case grey:
					return fmt.Errorf("lint: import cycle through %s", dep)
				case white:
					if err := visit(dep); err != nil {
						return err
					}
				}
			}
		}
		color[p] = black
		return nil
	}
	for _, p := range paths {
		if color[p] == white {
			if err := visit(p); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkAll type-checks every parsed package: one goroutine per package,
// each gated on its dependencies' completion, bounded by a semaphore
// acquired only after the gates open (so waiting never holds a slot).
func (l *loader) checkAll(jobs map[string]*parseJob) {
	var wg sync.WaitGroup
	sem := make(chan struct{}, loadParallelism())
	for _, j := range jobs {
		if j.pkg != nil {
			continue // checked by an earlier pass
		}
		wg.Add(1)
		go func(j *parseJob) {
			defer wg.Done()
			defer close(j.done)
			if j.err != nil {
				return
			}
			for _, dep := range j.deps {
				dj := jobs[dep]
				if dj == nil {
					j.err = fmt.Errorf("lint: no Go files in %s", l.dirFor(dep))
					return
				}
				<-dj.done
				if dj.err != nil {
					// The root cause reports from its own job; this package
					// just cannot be checked.
					j.err = fmt.Errorf("lint: skipped %s: dependency %s failed", j.path, dep)
					return
				}
			}
			sem <- struct{}{}
			l.check(j)
			<-sem
		}(j)
	}
	wg.Wait()
}

// check type-checks one parsed package and publishes it.
func (l *loader) check(j *parseJob) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{
		Importer: l,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	tpkg, err := conf.Check(j.path, l.fset, j.asts, info)
	if err != nil {
		j.err = fmt.Errorf("lint: typecheck %s: %w", j.path, err)
		return
	}
	j.pkg = &Package{Path: j.path, Dir: j.dir, Files: j.asts, Types: tpkg, Info: info}
	l.mu.Lock()
	l.pkgs[j.path] = j.pkg
	l.mu.Unlock()
}

// firstError picks the error from the import-path-smallest failed job,
// skipping secondary "dependency failed" reports when the root cause is
// also present, so the reported error is deterministic under parallel
// loading.
func firstError(jobs map[string]*parseJob) error {
	paths := make([]string, 0, len(jobs))
	for p, j := range jobs {
		if j.err != nil {
			paths = append(paths, p)
		}
	}
	if len(paths) == 0 {
		return nil
	}
	sort.Strings(paths)
	for _, p := range paths {
		if !strings.Contains(jobs[p].err.Error(), "lint: skipped ") {
			return jobs[p].err
		}
	}
	return jobs[paths[0]].err
}

// Load type-checks the packages matched by patterns (resolved relative
// to cwd) and returns a Program ready for analysis.
func Load(cwd string, patterns []string) (*Program, error) {
	// Absolute from the start: relative dirs would defeat the
	// root-relative import-path mapping in importPathFor.
	cwd, err := filepath.Abs(cwd)
	if err != nil {
		return nil, err
	}
	root, err := FindModuleRoot(cwd)
	if err != nil {
		return nil, err
	}
	modpath, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	dirs, err := ExpandPatterns(cwd, root, modpath, patterns)
	if err != nil {
		return nil, err
	}
	if len(dirs) == 0 {
		return nil, fmt.Errorf("lint: no packages matched %v", patterns)
	}
	l := &loader{
		fset:     token.NewFileSet(),
		root:     root,
		modpath:  modpath,
		pkgs:     map[string]*Package{},
		std:      importer.Default(),
		imported: map[string]*types.Package{},
	}
	jobs, err := l.load(dirs)
	if err != nil {
		return nil, err
	}
	all := make(map[string]*Package, len(l.pkgs))
	for path, pkg := range l.pkgs {
		all[path] = pkg
	}
	prog := &Program{Fset: l.fset, ModPath: modpath, Root: root, All: all, loader: l}
	for _, dir := range dirs {
		prog.Pkgs = append(prog.Pkgs, jobs[l.importPathFor(dir)].pkg)
	}
	prog.scanFacts()
	return prog, nil
}

// load parses and type-checks the packages in dirs and every
// module-local package they import, reusing any an earlier call checked.
func (l *loader) load(dirs []string) (map[string]*parseJob, error) {
	jobs := l.discover(dirs)
	if err := firstError(jobs); err != nil {
		return nil, err
	}
	if err := findImportCycle(jobs); err != nil {
		return nil, err
	}
	l.checkAll(jobs)
	if err := firstError(jobs); err != nil {
		return nil, err
	}
	return jobs, nil
}

// modulePackages type-checks, once, every package of the module tree
// (the ./... expansion from the root) that the targets did not pull in,
// and returns the whole set sorted by import path. The same loader
// checks them, so objects stay identical to the ones the targets see.
// Only deadapi needs this: a run over a few packages must still see
// every reference the module makes to them. Program.All is untouched,
// so the other analyzers keep their target-plus-dependencies view.
func (p *Program) modulePackages() ([]*Package, error) {
	p.moduleOnce.Do(func() {
		l := p.loader
		dirs, err := ExpandPatterns(p.Root, p.Root, p.ModPath, []string{"./..."})
		if err == nil {
			_, err = l.load(dirs)
		}
		if err != nil {
			p.moduleErr = err
			return
		}
		l.mu.Lock()
		for _, pkg := range l.pkgs {
			p.module = append(p.module, pkg)
		}
		l.mu.Unlock()
		sort.Slice(p.module, func(i, j int) bool { return p.module[i].Path < p.module[j].Path })
	})
	return p.module, p.moduleErr
}
