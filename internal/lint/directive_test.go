package lint

import (
	"go/types"
	"strings"
	"testing"
)

// loadSnippet materializes a one-package module and loads it.
func loadSnippet(t *testing.T, src string) *Program {
	t.Helper()
	dir := t.TempDir()
	writeModule(t, dir, map[string]string{
		"go.mod": "module example.com/snip\n\ngo 1.21\n",
		"p/p.go": src,
	})
	prog, err := Load(dir, []string{"./p"})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return prog
}

// lookupFunc finds a declared function object by name in the target
// package.
func lookupFunc(t *testing.T, prog *Program, name string) types.Object {
	t.Helper()
	scope := prog.Pkgs[0].Types.Scope()
	obj := scope.Lookup(name)
	if obj == nil {
		t.Fatalf("no function %s in fixture", name)
	}
	return obj
}

// TestDeterministicDirectiveParsing pins the exact-line rule: the
// directive registers only as its own doc-comment line, not with a
// space after the slashes, trailing text, or placement inside a body.
func TestDeterministicDirectiveParsing(t *testing.T) {
	prog := loadSnippet(t, `package p

//mhm:deterministic
func Exact() int { return 1 }

// mhm:deterministic
func Spaced() int { return 2 }

//mhm:deterministic trailing words
func Trailing() int { return 3 }

// Documented functions register too.
//
//mhm:deterministic
func Documented() int { return 4 }

func Inside() int {
	//mhm:deterministic
	return 5
}
`)
	cases := []struct {
		name string
		want bool
	}{
		{"Exact", true},
		{"Spaced", false},
		{"Trailing", false},
		{"Documented", true},
		{"Inside", false},
	}
	for _, tc := range cases {
		if got := prog.deterministic[lookupFunc(t, prog, tc.name)]; got != tc.want {
			t.Errorf("deterministic(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestDeterministicTransitiveScoping pins which callees the contract
// reaches: static calls and references (function values, method
// expressions) are in; interface calls and stdlib are out.
func TestDeterministicTransitiveScoping(t *testing.T) {
	prog := loadSnippet(t, `package p

//mhm:deterministic
func Root(xs []float64) float64 {
	direct(xs)
	f := viaValue
	f(xs)
	g := recv.viaMethodExpr
	g(recv{}, xs)
	var i iface = impl{}
	i.viaIface(xs)
	return 0
}

func direct(xs []float64) float64       { return xs[0] }
func viaValue(xs []float64) float64     { return xs[0] }
func unreached(xs []float64) float64    { return xs[0] }

type recv struct{}

func (recv) viaMethodExpr(xs []float64) float64 { return xs[0] }

type iface interface{ viaIface(xs []float64) float64 }

type impl struct{}

func (impl) viaIface(xs []float64) float64 { return xs[0] }
`)
	set := detSet(prog)
	inSet := func(name string) bool {
		for obj := range set {
			if obj.Name() == name {
				return true
			}
		}
		return false
	}
	for _, name := range []string{"Root", "direct", "viaValue", "viaMethodExpr"} {
		if !inSet(name) {
			t.Errorf("%s should be in the deterministic closure", name)
		}
	}
	for _, name := range []string{"unreached", "viaIface"} {
		if inSet(name) {
			t.Errorf("%s should NOT be in the deterministic closure (caller vouches for dynamic calls)", name)
		}
	}
}

// TestIgnoreDeterministicInteraction pins that an //mhmlint:ignore
// directive suppresses exactly the named analyzer at that line: the
// detorder suppression leaves a same-line errdrop finding standing, and
// an ignore naming a different analyzer suppresses nothing.
func TestIgnoreDeterministicInteraction(t *testing.T) {
	prog := loadSnippet(t, `package p

import (
	"os"
	"time"
)

//mhm:deterministic
func Both() int64 {
	//mhmlint:ignore detorder reviewed wall-clock read in a log path
	os.Remove(time.Now().String())
	return 0
}

//mhm:deterministic
func WrongName() int64 {
	//mhmlint:ignore errdrop not the analyzer that fires here
	return time.Now().Unix()
}
`)
	diags := RunAnalyzers(prog, Analyzers())
	var gotErrdrop, gotDetorderBoth, gotDetorderWrong bool
	for _, d := range diags {
		switch {
		case d.Analyzer == "errdrop":
			gotErrdrop = true
		case d.Analyzer == "detorder" && strings.Contains(d.Message, "Both"):
			gotDetorderBoth = true
		case d.Analyzer == "detorder" && strings.Contains(d.Message, "WrongName"):
			gotDetorderWrong = true
		}
	}
	if !gotErrdrop {
		t.Errorf("errdrop finding was wrongly suppressed by a detorder ignore; diags: %v", diags)
	}
	if gotDetorderBoth {
		t.Errorf("detorder finding in Both survived its suppression; diags: %v", diags)
	}
	if !gotDetorderWrong {
		t.Errorf("detorder finding in WrongName was suppressed by an errdrop ignore; diags: %v", diags)
	}
}

// TestDeterministicViaCalleeMessage pins the "(deterministic via X)"
// attribution on transitively reached functions.
func TestDeterministicViaCalleeMessage(t *testing.T) {
	prog := loadSnippet(t, `package p

import "time"

//mhm:deterministic
func Entry() int64 { return stamp() }

func stamp() int64 { return time.Now().Unix() }
`)
	diags := RunAnalyzers(prog, []*Analyzer{DetOrderAnalyzer()})
	if len(diags) != 1 {
		t.Fatalf("diags = %v, want exactly one", diags)
	}
	if !strings.Contains(diags[0].Message, "stamp (deterministic via Entry)") {
		t.Errorf("missing attribution: %s", diags[0].Message)
	}
}
