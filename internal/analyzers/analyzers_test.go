package analyzers

import (
	"go/ast"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The fixture harness mirrors golang.org/x/tools' analysistest
// convention: packages under testdata/src carry `// want "regex"`
// comments on the lines where diagnostics are expected, and the test
// fails on any unmatched expectation or unexpected diagnostic.  The
// offset form `// want:-2 "regex"` anchors the expectation N lines
// above the comment, for analyzers (exporteddoc) where a same-line
// comment would change the analysis result itself.

// wantRE splits a want comment into its optional line offset and the
// quoted expectation list.
var wantRE = regexp.MustCompile("^//\\s?want(:-?\\d+)?((?:\\s+(?:`[^`]*`|\"[^\"]*\"))+)\\s*$")

// wantArgRE extracts each quoted expectation.
var wantArgRE = regexp.MustCompile("`[^`]*`|\"[^\"]*\"")

// expectation is one want entry: a diagnostic matching re must be
// reported at file:line.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
}

// collectWants extracts every want comment from the package's files.
func collectWants(t *testing.T, pkg *Package) []expectation {
	t.Helper()
	var wants []expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					if strings.Contains(c.Text, "// want") {
						t.Errorf("%s: malformed want comment: %s", pkg.Fset.Position(c.Pos()), c.Text)
					}
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				line := pos.Line
				if m[1] != "" {
					off, err := strconv.Atoi(m[1][1:])
					if err != nil {
						t.Fatalf("%s: bad want offset %q", pos, m[1])
					}
					line += off
				}
				for _, q := range wantArgRE.FindAllString(m[2], -1) {
					pattern := q[1 : len(q)-1]
					re, err := regexp.Compile(pattern)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, pattern, err)
					}
					wants = append(wants, expectation{file: pos.Filename, line: line, re: re})
				}
			}
		}
	}
	return wants
}

// runFixture loads one testdata/src package, runs a single analyzer
// over it, and checks the diagnostics against the want comments.
func runFixture(t *testing.T, path string, a *Analyzer) {
	t.Helper()
	pkgs, err := Load(LoadConfig{Dir: "testdata/src"}, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages for %q, want 1", len(pkgs), path)
	}
	diags, err := RunAnalyzers(pkgs, []*Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	wants := collectWants(t, pkgs[0])
	if len(wants) == 0 {
		t.Fatalf("fixture %q has no want comments; it proves nothing", path)
	}
	matched := make([]bool, len(wants))
	for _, d := range diags {
		found := false
		for i, w := range wants {
			if w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				matched[i] = true
				found = true
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.re)
		}
	}
}

func TestCacheKeyFixture(t *testing.T)    { runFixture(t, "cachekeytest", CacheKey) }
func TestDeterminismFixture(t *testing.T) { runFixture(t, "internal/power5", Determinism) }
func TestFFwdFixture(t *testing.T)        { runFixture(t, "internal/isa", FFwd) }
func TestRegistryFixture(t *testing.T)    { runFixture(t, "registrytest", Registry) }
func TestGuardedByFixture(t *testing.T)   { runFixture(t, "guardedbytest", GuardedBy) }
func TestAtomicGuardFixture(t *testing.T) { runFixture(t, "atomicguardtest", AtomicGuard) }
func TestCtxFlowFixture(t *testing.T)     { runFixture(t, "ctxflowtest", CtxFlow) }
func TestGoSpawnFixture(t *testing.T)     { runFixture(t, "gospawntest", GoSpawn) }
func TestExportedDocFixture(t *testing.T) { runFixture(t, "exporteddoctest", ExportedDoc) }

// TestRepoClean is the regression gate: the whole repository, loaded
// from source, must produce zero diagnostics from the full suite.  A
// new violation anywhere fails this test even before CI's mtlint job.
func TestRepoClean(t *testing.T) {
	mod, err := ModulePathOf("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(LoadConfig{Dir: "../..", ModulePath: mod}, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; the repo walk is broken", len(pkgs))
	}
	diags, err := RunAnalyzers(pkgs, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestDirectiveParsing pins the verb-boundary rule: a longer verb must
// not satisfy a shorter verb's lookup.
func TestDirectiveParsing(t *testing.T) {
	cg := func(lines ...string) *ast.CommentGroup {
		g := &ast.CommentGroup{}
		for _, l := range lines {
			g.List = append(g.List, &ast.Comment{Text: l})
		}
		return g
	}
	cases := []struct {
		doc     *ast.CommentGroup
		verb    string
		wantArg string
		wantOK  bool
	}{
		{nil, "cachekey", "", false},
		{cg("// Options tunes a run."), "cachekey", "", false},
		{cg("//mtlint:cachekey run"), "cachekey", "run", true},
		{cg("//mtlint:cachekey"), "cachekey", "", true},
		{cg("//mtlint:cachekey-hasher run"), "cachekey", "", false},
		{cg("//mtlint:cachekey-hasher run"), "cachekey-hasher", "run", true},
		{cg("// doc", "//mtlint:no-ffwd  spaced reason "), "no-ffwd", "spaced reason", true},
	}
	for _, c := range cases {
		arg, ok := directive(c.doc, c.verb)
		if arg != c.wantArg || ok != c.wantOK {
			t.Errorf("directive(%v, %q) = (%q, %v), want (%q, %v)", c.doc, c.verb, arg, ok, c.wantArg, c.wantOK)
		}
	}
}

// TestPathHasSuffix pins the segment-boundary rule.
func TestPathHasSuffix(t *testing.T) {
	cases := []struct {
		path, suffix string
		want         bool
	}{
		{"repro/internal/mem", "internal/mem", true},
		{"internal/mem", "internal/mem", true},
		{"repro/internal/memx", "internal/mem", false},
		{"repro/xinternal/mem", "internal/mem", false},
	}
	for _, c := range cases {
		if got := pathHasSuffix(c.path, c.suffix); got != c.want {
			t.Errorf("pathHasSuffix(%q, %q) = %v, want %v", c.path, c.suffix, got, c.want)
		}
	}
}

// TestDiagnosticString pins the rendered diagnostic format mtlint
// prints on stderr.
func TestDiagnosticString(t *testing.T) {
	pkgs, err := Load(LoadConfig{Dir: "testdata/src"}, "exporteddoctest")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunAnalyzers(pkgs, []*Analyzer{ExportedDoc})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) == 0 {
		t.Fatal("fixture produced no diagnostics")
	}
	s := diags[0].String()
	if !strings.Contains(s, "exporteddoctest.go:") || !strings.HasSuffix(s, "[exporteddoc]") {
		t.Errorf("unexpected rendering: %s", s)
	}
	for i := 1; i < len(diags); i++ {
		if diags[i-1].Pos.Line > diags[i].Pos.Line && diags[i-1].Pos.Filename == diags[i].Pos.Filename {
			t.Errorf("diagnostics out of order: %s before %s", diags[i-1], diags[i])
		}
	}
}

// TestLoadErrors pins the loader's failure modes.
func TestLoadErrors(t *testing.T) {
	if _, err := Load(LoadConfig{Dir: "testdata/src"}, "nonexistent"); err == nil {
		t.Error("loading a nonexistent package succeeded")
	}
	if _, err := ModulePathOf("testdata"); err == nil {
		t.Error("ModulePathOf without a go.mod succeeded")
	}
	if mod, err := ModulePathOf("../.."); err != nil || mod == "" {
		t.Errorf("ModulePathOf(repo root) = (%q, %v)", mod, err)
	}
}

// TestSuiteShape pins the suite listing: every analyzer is named,
// documented, and runnable, and names are unique.
func TestSuiteShape(t *testing.T) {
	seen := make(map[string]bool)
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v is missing name, doc, or run", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	if len(seen) != 9 {
		t.Errorf("suite has %d analyzers, want 9", len(seen))
	}
}
