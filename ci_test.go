package mhm_test

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCISelectedTestsExist checks that every test name a CI step selects
// still exists. CI's race and gate steps pick tests by name with -run,
// -bench and -fuzz, and a renamed test silently drops out of its step.
// Matching as go test does, each alternative of each pattern must select
// at least one Test, Benchmark or Fuzz function declared in the
// _test.go files of the packages its command names.
func TestCISelectedTestsExist(t *testing.T) {
	f, err := os.Open(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	funcs := map[string][]string{} // package dir -> test function names
	checked := 0
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		i := strings.Index(text, "go test ")
		if i < 0 || strings.HasPrefix(strings.TrimSpace(text), "#") {
			continue
		}
		cmd := text[i:]
		if strings.HasSuffix(text[:i], "$(") {
			cmd = cmd[:strings.LastIndex(cmd, ")")]
		}
		patterns, pkgs := parseGoTest(shellWords(cmd))
		var names []string
		for _, pkg := range pkgs {
			dir := filepath.Clean(pkg)
			if _, ok := funcs[dir]; !ok {
				funcs[dir] = testFuncs(t, dir)
			}
			names = append(names, funcs[dir]...)
		}
		for flag, pattern := range patterns {
			for _, alt := range alternatives(pattern) {
				if alt == "^$" {
					continue // selects nothing on purpose
				}
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("ci.yml:%d: %s alternative %q: %v", line, flag, alt, err)
					continue
				}
				if !selectsAny(re, flag, names) {
					t.Errorf("ci.yml:%d: %s alternative %q selects no function in %v", line, flag, alt, pkgs)
				}
				checked++
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("ci.yml: no -run, -bench or -fuzz pattern found")
	}
}

// shellWords splits a command line into words, honouring single quotes,
// the only quoting ci.yml's go test commands use.
func shellWords(s string) []string {
	var words []string
	var w strings.Builder
	inWord, quoted := false, false
	for _, r := range s {
		switch {
		case r == '\'':
			quoted, inWord = !quoted, true
		case r == ' ' && !quoted:
			if inWord {
				words = append(words, w.String())
				w.Reset()
				inWord = false
			}
		default:
			w.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		words = append(words, w.String())
	}
	return words
}

// parseGoTest reads the -run, -bench and -fuzz patterns and the package
// arguments of one go test command's words.
func parseGoTest(words []string) (patterns map[string]string, pkgs []string) {
	valued := map[string]bool{"run": true, "bench": true, "fuzz": true, "skip": true,
		"count": true, "benchtime": true, "fuzztime": true}
	patterns = map[string]string{}
	for i := 2; i < len(words); i++ { // words[0:2] are "go test"
		w := words[i]
		if !strings.HasPrefix(w, "-") {
			pkgs = append(pkgs, w)
			continue
		}
		name, value, hasValue := strings.Cut(strings.TrimLeft(w, "-"), "=")
		if valued[name] && !hasValue && i+1 < len(words) {
			i++
			value = words[i]
		}
		if name == "run" || name == "bench" || name == "fuzz" {
			patterns["-"+name] = value
		}
	}
	if len(pkgs) == 0 {
		pkgs = []string{"."}
	}
	return patterns, pkgs
}

// alternatives splits a pattern at its top-level | bars.
func alternatives(pattern string) []string {
	var out []string
	depth, start := 0, 0
	for i, r := range pattern {
		switch r {
		case '(':
			depth++
		case ')':
			depth--
		case '|':
			if depth == 0 {
				out = append(out, pattern[start:i])
				start = i + 1
			}
		}
	}
	return append(out, pattern[start:])
}

// selectsAny reports whether re selects one of names under flag: -run
// runs tests and fuzz seed corpora, -bench benchmarks, -fuzz fuzz
// targets.
func selectsAny(re *regexp.Regexp, flag string, names []string) bool {
	prefixes := map[string][]string{"-run": {"Test", "Fuzz"}, "-bench": {"Benchmark"}, "-fuzz": {"Fuzz"}}[flag]
	for _, name := range names {
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) && re.MatchString(name) {
				return true
			}
		}
	}
	return false
}

// testFuncs lists the top-level functions declared in the _test.go
// files of dir.
func testFuncs(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil {
				names = append(names, fd.Name.Name)
			}
		}
	}
	return names
}
