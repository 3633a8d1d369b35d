package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// want expectation comments follow the go/analysis convention: a
// `// want "regexp"` (or backquoted) comment on a line means exactly one
// diagnostic whose message matches the regexp is expected on that line.
var wantRe = regexp.MustCompile("//\\s*want\\s+(`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\")")

type wantExpect struct {
	file string // base name
	line int
	re   *regexp.Regexp
	raw  string
	hit  bool
}

// collectWants scans every non-test .go file in dir for want comments.
func collectWants(t *testing.T, dir string) []*wantExpect {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read fixture dir: %v", err)
	}
	var wants []*wantExpect
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("read fixture file: %v", err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			raw := m[1]
			var pat string
			if raw[0] == '`' {
				pat = raw[1 : len(raw)-1]
			} else {
				pat, err = strconv.Unquote(raw)
				if err != nil {
					t.Fatalf("%s:%d: bad want string %s: %v", e.Name(), i+1, raw, err)
				}
			}
			re, err := regexp.Compile(pat)
			if err != nil {
				t.Fatalf("%s:%d: bad want regexp %q: %v", e.Name(), i+1, pat, err)
			}
			wants = append(wants, &wantExpect{file: e.Name(), line: i + 1, re: re, raw: pat})
		}
	}
	return wants
}

// checkFixture loads the fixture package at dir (relative to this
// package), runs the named analyzers over it, and asserts that the
// diagnostics and the want comments match one-to-one.
func checkFixture(t *testing.T, dir string, names ...string) {
	t.Helper()
	checkFixtureAt(t, ".", "./"+filepath.ToSlash(dir), dir, names...)
}

// checkFixtureAt loads pattern from cwd, runs the named analyzers, and
// matches the diagnostics one-to-one against the want comments in
// wantDir; a diagnostic anywhere else is unexpected.
func checkFixtureAt(t *testing.T, cwd, pattern, wantDir string, names ...string) {
	t.Helper()
	prog, err := Load(cwd, []string{pattern})
	if err != nil {
		t.Fatalf("load %s from %s: %v", pattern, cwd, err)
	}
	var selected []*Analyzer
	for _, a := range Analyzers() {
		for _, name := range names {
			if a.Name == name {
				selected = append(selected, a)
			}
		}
	}
	if len(selected) != len(names) {
		t.Fatalf("unknown analyzer in %v", names)
	}
	diags := RunAnalyzers(prog, selected)
	wants := collectWants(t, wantDir)

	var unmatched []string
	absDir, err := filepath.Abs(wantDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		base := filepath.Base(d.Pos.Filename)
		found := false
		for _, w := range wants {
			if !w.hit && filepath.Dir(d.Pos.Filename) == absDir && w.file == base &&
				w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				found = true
				break
			}
		}
		if !found {
			unmatched = append(unmatched, fmt.Sprintf("unexpected diagnostic %s:%d: %s: %s",
				base, d.Pos.Line, d.Analyzer, d.Message))
		}
	}
	for _, w := range wants {
		if !w.hit {
			unmatched = append(unmatched, fmt.Sprintf("missing diagnostic %s:%d: want %q",
				w.file, w.line, w.raw))
		}
	}
	sort.Strings(unmatched)
	for _, msg := range unmatched {
		t.Error(msg)
	}
}

func TestAtomicFieldFixture(t *testing.T) {
	checkFixture(t, "testdata/src/atomicfield/af", "atomicfield")
}

func TestNilReceiverFixture(t *testing.T) {
	checkFixture(t, "testdata/src/nilreceiver/obs", "nilreceiver")
}

func TestHotpathFixture(t *testing.T) {
	checkFixture(t, "testdata/src/hotpath/hp", "hotpath")
}

func TestFloatEqFixture(t *testing.T) {
	checkFixture(t, "testdata/src/floateq/gmm", "floateq")
}

func TestErrDropFixture(t *testing.T) {
	checkFixture(t, "testdata/src/errdrop/ed", "errdrop")
}

func TestDetOrderFixture(t *testing.T) {
	checkFixture(t, "testdata/src/detorder/det", "detorder")
}

func TestLockOrderFixture(t *testing.T) {
	checkFixture(t, "testdata/src/lockorder/lo", "lockorder")
}

func TestGoLeakFixture(t *testing.T) {
	checkFixture(t, "testdata/src/goleak/gl", "goleak")
}

// TestDeadAPIFixture runs deadapi over its fixture module — a module
// of its own, since packages under testdata are not judged — once over
// the lib package alone and once over the whole module. Both runs must
// produce exactly lib's want comments: an uncalled export and one only
// a test calls are reported; interface-satisfying methods, a use from
// another GOARCH's file and a directive-suppressed export are not; and
// the subset run reports nothing the full run does not.
func TestDeadAPIFixture(t *testing.T) {
	const mod = "testdata/src/deadapi"
	for _, tc := range []struct{ name, pattern string }{
		{"subset", "./lib"},
		{"module", "./..."},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkFixtureAt(t, mod, tc.pattern, filepath.Join(mod, "lib"), "deadapi")
		})
	}
}

// TestCleanFixture is the negative case: a package that plays by every
// rule (including one suppressed violation) yields zero findings from
// the full analyzer suite.
func TestCleanFixture(t *testing.T) {
	names := make([]string, 0, len(Analyzers()))
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	checkFixture(t, "testdata/src/clean/clean", names...)
}

// TestIgnoreRequiresReason verifies that a bare ignore directive is
// itself reported rather than silently honored.
func TestIgnoreRequiresReason(t *testing.T) {
	dir := t.TempDir()
	src := `package bad

import "os"

func f() {
	//mhmlint:ignore errdrop
	os.Remove("x")
}
`
	if err := os.WriteFile(filepath.Join(dir, "bad.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module example.com/bad\n\ngo 1.21\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	prog, err := Load(dir, []string{"."})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	diags := RunAnalyzers(prog, Analyzers())
	var gotBad, gotDrop bool
	for _, d := range diags {
		switch d.Analyzer {
		case "mhmlint":
			gotBad = true
		case "errdrop":
			gotDrop = true
		}
	}
	if !gotBad {
		t.Errorf("malformed directive not reported; got %v", diags)
	}
	if !gotDrop {
		t.Errorf("errdrop finding unexpectedly suppressed by a reason-less directive; got %v", diags)
	}
}
