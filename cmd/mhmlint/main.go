// Command mhmlint runs the repository's static-analysis suite
// (internal/lint) over package patterns, go-vet style:
//
//	mhmlint [-json] [-sarif] [-only a,b] [-disable a,b] [-list] ./...
//
// Analyzers: atomicfield, nilreceiver, hotpath, floateq, errdrop,
// detorder, lockorder, goleak, deadapi — each enforcing one of the
// invariants in DESIGN.md "Enforced invariants". deadapi scans the whole
// module for references whatever packages are named, so a run over a
// subset reports nothing a full run would not. Findings are suppressed with
// `//mhmlint:ignore <analyzer> <reason>` on the offending line or the
// line above. -sarif emits SARIF 2.1.0 for CI annotation uploads.
//
// Exit status: 0 clean, 1 findings reported, 2 usage or load error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/memheatmap/mhm/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonFinding is the -json wire form of one diagnostic.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mhmlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as JSON")
	sarifOut := fs.Bool("sarif", false, "emit findings as SARIF 2.1.0")
	only := fs.String("only", "", "comma-separated analyzers to run (default: all)")
	disable := fs.String("disable", "", "comma-separated analyzers to skip")
	list := fs.Bool("list", false, "list analyzers and exit")
	fs.Usage = func() {
		fprintf(stderr, "usage: mhmlint [-json] [-sarif] [-only a,b] [-disable a,b] [-list] packages...\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	selected, err := selectAnalyzers(analyzers, *only, *disable)
	if err != nil {
		fprintf(stderr, "mhmlint: %v\n", err)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fprintf(stderr, "mhmlint: %v\n", err)
		return 2
	}
	prog, err := lint.Load(cwd, patterns)
	if err != nil {
		fprintf(stderr, "mhmlint: %v\n", err)
		return 2
	}
	diags := lint.RunAnalyzers(prog, selected)

	switch {
	case *sarifOut && *jsonOut:
		fprintf(stderr, "mhmlint: -json and -sarif are mutually exclusive\n")
		return 2
	case *sarifOut:
		if err := lint.WriteSARIF(stdout, prog.Root, selected, diags); err != nil {
			fprintf(stderr, "mhmlint: %v\n", err)
			return 2
		}
	case *jsonOut:
		findings := make([]jsonFinding, 0, len(diags))
		for _, d := range diags {
			findings = append(findings, jsonFinding{
				Analyzer: d.Analyzer,
				File:     relTo(prog.Root, d.Pos.Filename),
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Findings []jsonFinding `json:"findings"`
		}{findings}); err != nil {
			fprintf(stderr, "mhmlint: %v\n", err)
			return 2
		}
	default:
		for _, d := range diags {
			fprintf(stdout, "%s:%d:%d: %s: %s\n",
				relTo(prog.Root, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
		}
	}
	if len(diags) > 0 {
		fprintf(stderr, "mhmlint: %d finding(s) in %d package(s)\n", len(diags), len(prog.Pkgs))
		return 1
	}
	return 0
}

// selectAnalyzers applies -only and -disable.
func selectAnalyzers(all []*lint.Analyzer, only, disable string) ([]*lint.Analyzer, error) {
	byName := map[string]*lint.Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	validate := func(csv string) ([]string, error) {
		if csv == "" {
			return nil, nil
		}
		names := strings.Split(csv, ",")
		for _, n := range names {
			if byName[n] == nil {
				return nil, fmt.Errorf("unknown analyzer %q (try -list)", n)
			}
		}
		return names, nil
	}
	onlyNames, err := validate(only)
	if err != nil {
		return nil, err
	}
	disabledNames, err := validate(disable)
	if err != nil {
		return nil, err
	}
	disabled := map[string]bool{}
	for _, n := range disabledNames {
		disabled[n] = true
	}
	var out []*lint.Analyzer
	if onlyNames != nil {
		for _, n := range onlyNames {
			if !disabled[n] {
				out = append(out, byName[n])
			}
		}
	} else {
		for _, a := range all {
			if !disabled[a.Name] {
				out = append(out, a)
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no analyzers selected")
	}
	return out, nil
}

// fprintf is best-effort console output: a diagnostic about failing to
// print diagnostics would have nowhere to go.
func fprintf(w io.Writer, format string, args ...any) {
	_, _ = fmt.Fprintf(w, format, args...)
}

// relTo renders path relative to root when possible, for stable output.
func relTo(root, path string) string {
	rel, err := filepath.Rel(root, path)
	if err != nil || strings.HasPrefix(rel, "..") {
		return path
	}
	return filepath.ToSlash(rel)
}
