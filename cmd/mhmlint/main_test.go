package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/memheatmap/mhm/internal/lint"
)

// fixture returns the path of a lint fixture package relative to this
// package directory (tests run with cwd = cmd/mhmlint).
func fixture(name string) string {
	return "../../internal/lint/testdata/src/" + name
}

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestFixturesFail verifies that each violation fixture drives the exit
// status to 1 and that the findings carry the right analyzer label.
func TestFixturesFail(t *testing.T) {
	cases := []struct {
		analyzer string
		dir      string
	}{
		{"atomicfield", fixture("atomicfield/af")},
		{"nilreceiver", fixture("nilreceiver/obs")},
		{"hotpath", fixture("hotpath/hp")},
		{"floateq", fixture("floateq/gmm")},
		{"errdrop", fixture("errdrop/ed")},
		{"detorder", fixture("detorder/det")},
		{"lockorder", fixture("lockorder/lo")},
		{"goleak", fixture("goleak/gl")},
	}
	for _, tc := range cases {
		t.Run(tc.analyzer, func(t *testing.T) {
			code, stdout, stderr := runCLI(t, tc.dir)
			if code != 1 {
				t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
			}
			if !strings.Contains(stdout, ": "+tc.analyzer+": ") {
				t.Errorf("stdout has no %s finding:\n%s", tc.analyzer, stdout)
			}
			if !strings.Contains(stderr, "finding(s)") {
				t.Errorf("stderr summary missing:\n%s", stderr)
			}
		})
	}
}

// TestCleanFixturePasses is the negative case, including the suppressed
// violation inside it.
func TestCleanFixturePasses(t *testing.T) {
	code, stdout, stderr := runCLI(t, fixture("clean/clean"))
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if stdout != "" {
		t.Errorf("expected no output, got:\n%s", stdout)
	}
}

// TestWholeTreeClean asserts the repo itself satisfies its own suite —
// the same invariant CI enforces with `go run ./cmd/mhmlint ./...`.
func TestWholeTreeClean(t *testing.T) {
	code, stdout, stderr := runCLI(t, "github.com/memheatmap/mhm/...")
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
}

func TestJSONOutput(t *testing.T) {
	code, stdout, _ := runCLI(t, "-json", fixture("errdrop/ed"))
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var doc struct {
		Findings []struct {
			Analyzer string `json:"analyzer"`
			File     string `json:"file"`
			Line     int    `json:"line"`
			Col      int    `json:"col"`
			Message  string `json:"message"`
		} `json:"findings"`
	}
	if err := json.Unmarshal([]byte(stdout), &doc); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, stdout)
	}
	if len(doc.Findings) != 4 {
		t.Fatalf("findings = %d, want 4:\n%s", len(doc.Findings), stdout)
	}
	for _, f := range doc.Findings {
		if f.Analyzer != "errdrop" || f.Line == 0 || f.Col == 0 ||
			!strings.HasSuffix(f.File, "ed.go") || f.Message == "" {
			t.Errorf("malformed finding: %+v", f)
		}
	}
}

func TestOnlySelectsAnalyzer(t *testing.T) {
	// The errdrop fixture is clean under every other analyzer.
	code, stdout, _ := runCLI(t, "-only", "floateq", fixture("errdrop/ed"))
	if code != 0 || stdout != "" {
		t.Errorf("exit = %d, stdout:\n%s", code, stdout)
	}
}

func TestDisableSkipsAnalyzer(t *testing.T) {
	code, stdout, _ := runCLI(t, "-disable", "errdrop", fixture("errdrop/ed"))
	if code != 0 || stdout != "" {
		t.Errorf("exit = %d, stdout:\n%s", code, stdout)
	}
}

func TestListAnalyzers(t *testing.T) {
	code, stdout, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	names := []string{
		"atomicfield", "nilreceiver", "hotpath", "floateq", "errdrop",
		"detorder", "lockorder", "goleak", "deadapi",
	}
	for _, name := range names {
		if !strings.Contains(stdout, name) {
			t.Errorf("-list output missing %s:\n%s", name, stdout)
		}
	}
	if got := len(strings.Fields(strings.ReplaceAll(stdout, "\n", " "))); got == 0 {
		t.Fatalf("empty -list output")
	}
	if lines := strings.Count(strings.TrimSpace(stdout), "\n") + 1; lines != len(names) {
		t.Errorf("-list shows %d analyzers, want %d:\n%s", lines, len(names), stdout)
	}
}

func TestUnknownAnalyzer(t *testing.T) {
	code, _, stderr := runCLI(t, "-only", "nosuch", fixture("clean/clean"))
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr, "unknown analyzer") {
		t.Errorf("stderr:\n%s", stderr)
	}
}

func TestBadPattern(t *testing.T) {
	code, _, stderr := runCLI(t, "./no/such/dir")
	if code != 2 {
		t.Fatalf("exit = %d, want 2\nstderr:\n%s", code, stderr)
	}
}

// sarifDoc mirrors the required slice of the SARIF 2.1.0 schema; the
// validation below is structural (no external schema validator): every
// property the standard marks required for log, run, tool, rule, result
// and location objects must be present and well-formed.
type sarifDoc struct {
	Schema  string `json:"$schema"`
	Version string `json:"version"`
	Runs    []struct {
		Tool struct {
			Driver struct {
				Name  string `json:"name"`
				Rules []struct {
					ID               string `json:"id"`
					ShortDescription struct {
						Text string `json:"text"`
					} `json:"shortDescription"`
				} `json:"rules"`
			} `json:"driver"`
		} `json:"tool"`
		Results []struct {
			RuleID    string `json:"ruleId"`
			RuleIndex int    `json:"ruleIndex"`
			Level     string `json:"level"`
			Message   struct {
				Text string `json:"text"`
			} `json:"message"`
			Locations []struct {
				PhysicalLocation struct {
					ArtifactLocation struct {
						URI string `json:"uri"`
					} `json:"artifactLocation"`
					Region struct {
						StartLine   int `json:"startLine"`
						StartColumn int `json:"startColumn"`
					} `json:"region"`
				} `json:"physicalLocation"`
			} `json:"locations"`
		} `json:"results"`
	} `json:"runs"`
}

// TestSARIFOutput validates -sarif output against the SARIF 2.1.0
// schema requirements.
func TestSARIFOutput(t *testing.T) {
	code, stdout, _ := runCLI(t, "-sarif", fixture("errdrop/ed"))
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var doc sarifDoc
	dec := json.NewDecoder(strings.NewReader(stdout))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("output has fields outside the emitted schema slice: %v\n%s", err, stdout)
	}
	if doc.Version != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", doc.Version)
	}
	if doc.Schema != lint.SARIFSchemaURI {
		t.Errorf("$schema = %q, want %q", doc.Schema, lint.SARIFSchemaURI)
	}
	if len(doc.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(doc.Runs))
	}
	run := doc.Runs[0]
	if run.Tool.Driver.Name != "mhmlint" {
		t.Errorf("tool.driver.name = %q", run.Tool.Driver.Name)
	}
	ruleIndex := map[string]int{}
	for i, r := range run.Tool.Driver.Rules {
		if r.ID == "" || r.ShortDescription.Text == "" {
			t.Errorf("rule %d incomplete: %+v", i, r)
		}
		if _, dup := ruleIndex[r.ID]; dup {
			t.Errorf("duplicate rule id %q", r.ID)
		}
		ruleIndex[r.ID] = i
	}
	if len(run.Results) == 0 {
		t.Fatal("no results for a failing fixture")
	}
	for i, res := range run.Results {
		if res.Message.Text == "" {
			t.Errorf("result %d has empty message", i)
		}
		if res.Level != "error" {
			t.Errorf("result %d level = %q", i, res.Level)
		}
		if idx, ok := ruleIndex[res.RuleID]; !ok || idx != res.RuleIndex {
			t.Errorf("result %d ruleId %q / ruleIndex %d do not resolve in driver.rules", i, res.RuleID, res.RuleIndex)
		}
		if len(res.Locations) != 1 {
			t.Fatalf("result %d has %d locations, want 1", i, len(res.Locations))
		}
		loc := res.Locations[0].PhysicalLocation
		if loc.ArtifactLocation.URI == "" || strings.Contains(loc.ArtifactLocation.URI, "\\") {
			t.Errorf("result %d artifact URI %q not slash-separated", i, loc.ArtifactLocation.URI)
		}
		if loc.Region.StartLine < 1 {
			t.Errorf("result %d startLine = %d", i, loc.Region.StartLine)
		}
	}
}

// TestSARIFCleanTree emits SARIF for the clean fixture: still a valid
// log, with an empty (but present) results array.
func TestSARIFCleanTree(t *testing.T) {
	code, stdout, _ := runCLI(t, "-sarif", fixture("clean/clean"))
	if code != 0 {
		t.Fatalf("exit = %d, want 0\n%s", code, stdout)
	}
	var doc sarifDoc
	if err := json.Unmarshal([]byte(stdout), &doc); err != nil {
		t.Fatalf("bad SARIF: %v", err)
	}
	if len(doc.Runs) != 1 || doc.Runs[0].Results == nil || len(doc.Runs[0].Results) != 0 {
		t.Errorf("clean run should carry an empty results array:\n%s", stdout)
	}
}

// TestSARIFExclusiveWithJSON pins the flag contract.
func TestSARIFExclusiveWithJSON(t *testing.T) {
	code, _, stderr := runCLI(t, "-sarif", "-json", fixture("clean/clean"))
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr, "mutually exclusive") {
		t.Errorf("stderr:\n%s", stderr)
	}
}

// TestSelfLint runs the driver over its own implementation package: the
// analyzers must hold on the code that implements them.
func TestSelfLint(t *testing.T) {
	code, stdout, stderr := runCLI(t, "../../internal/lint")
	if code != 0 {
		t.Fatalf("internal/lint fails its own suite (exit %d):\n%s\n%s", code, stdout, stderr)
	}
}

// TestFleetDecisionPathClean pins the fleet control plane specifically:
// its routing, admission, registry, autoscale and simulator decision
// functions are //mhm:deterministic-annotated, so detorder walks their
// transitive closure — a time.Now, global rand, or unordered map fold
// slipping into a decision path must fail this test, not just the
// whole-tree run.
func TestFleetDecisionPathClean(t *testing.T) {
	code, stdout, stderr := runCLI(t, "../../internal/fleet")
	if code != 0 {
		t.Fatalf("internal/fleet fails the lint suite (exit %d):\n%s\n%s", code, stdout, stderr)
	}
	// The annotations must actually be present — a clean result because
	// someone deleted the markers is not a pass.
	data, err := os.ReadFile("../../internal/fleet/router.go")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "//mhm:deterministic") {
		t.Fatal("fleet routing lost its //mhm:deterministic annotations")
	}
}

// worstCase is a generated package violating every analyzer at once; the
// import path ends in "score" so the floateq scope applies.
const worstCase = `package score

import (
	"os"
	"sync"
	"sync/atomic"
	"time"
)

var sink float64

type ctr struct{ n int64 }

func (c *ctr) Inc()       { atomic.AddInt64(&c.n, 1) }
func (c *ctr) Raw() int64 { return c.n }

//mhm:nilsafe
type Handle struct{ v float64 }

func (h *Handle) Value() float64 { return h.v }

//mhm:hotpath
func Hot(n int) []int { return make([]int, n) }

func Eq(a, b float64) bool { return a == b }

func Drop() { os.Remove("x") }

//mhm:deterministic
func Det() int64 { return time.Now().Unix() }

var (
	mu1 sync.Mutex
	mu2 sync.Mutex
)

func AB() {
	mu1.Lock()
	defer mu1.Unlock()
	mu2.Lock()
	defer mu2.Unlock()
	sink++
}

func BA() {
	mu2.Lock()
	defer mu2.Unlock()
	mu1.Lock()
	defer mu1.Unlock()
	sink++
}

func Leak() {
	go func() {
		sink++
	}()
}
`

// TestWorstCasePackage generates a package that trips every analyzer
// and checks each one fires.
func TestWorstCasePackage(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module example.com/worst\n\ngo 1.21\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	pkgDir := filepath.Join(dir, "score")
	if err := os.MkdirAll(pkgDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(pkgDir, "worst.go"), []byte(worstCase), 0o644); err != nil {
		t.Fatal(err)
	}
	prog, err := lint.Load(dir, []string{"./score"})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	fired := map[string]bool{}
	for _, d := range lint.RunAnalyzers(prog, lint.Analyzers()) {
		fired[d.Analyzer] = true
	}
	for _, a := range lint.Analyzers() {
		if !fired[a.Name] {
			t.Errorf("analyzer %s did not fire on the worst-case package", a.Name)
		}
	}
}
