// Package analyzers is mtlint: a suite of static-analysis passes that
// mechanically enforce this repository's correctness invariants — the
// cache-key audit, simulator-core determinism, the phase-skip
// FastForwarder contract, registry grammar consistency, and exported-
// symbol documentation.  See docs/lint.md for what each pass enforces
// and how to add an exemption.
//
// The package deliberately depends only on the standard library
// (go/ast, go/types, go/importer): the build environment is offline, so
// it mirrors the golang.org/x/tools/go/analysis API shape — Analyzer,
// Pass, Diagnostic — without importing it.  cmd/mtlint drives the suite
// over the module loaded from source (`mtlint ./...`).
package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one named, documented analysis pass, mirroring the shape
// of golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the pass in diagnostics and documentation.
	Name string
	// Doc is the one-paragraph description printed by `mtlint -help`.
	Doc string
	// Run executes the pass over one package, reporting findings
	// through pass.Reportf.
	Run func(*Pass) error
}

// Pass carries one type-checked package through one analyzer, mirroring
// golang.org/x/tools/go/analysis.Pass.
type Pass struct {
	// Analyzer is the pass being run.
	Analyzer *Analyzer
	// Fset maps token positions of Files to file/line/column.
	Fset *token.FileSet
	// Files holds the package's parsed syntax trees (comments included).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds the type-checker's results for Files.
	Info *types.Info
	// Report receives every diagnostic the pass emits.
	Report func(Diagnostic)
}

// Diagnostic is one finding: a position, the reporting analyzer, and a
// human-readable message.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Position
	// Analyzer names the pass that reported it.
	Analyzer string
	// Message describes the violated invariant and how to fix it.
	Message string
}

// String renders the diagnostic in the conventional
// file:line:col: message [analyzer] form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// inTestFile reports whether pos lies in a _test.go file.  The suite
// analyzes production sources only: test files may use wall clocks,
// deprecated wrappers and undocumented helpers freely.
func (p *Pass) inTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// directivePrefix introduces every mtlint source directive.  A
// directive is a //-comment of the form `//mtlint:<verb> <argument>`,
// attached to the declaration (or field) it modifies.
const directivePrefix = "//mtlint:"

// directive returns the argument of the first `//mtlint:<verb>`
// directive in the comment group, or ok=false when the group carries no
// such directive.  The argument is the directive text after the verb,
// whitespace-trimmed ("" when the verb stands alone).
func directive(doc *ast.CommentGroup, verb string) (arg string, ok bool) {
	if doc == nil {
		return "", false
	}
	for _, c := range doc.List {
		rest, found := strings.CutPrefix(c.Text, directivePrefix+verb)
		if !found {
			continue
		}
		// The verb must end exactly here: `//mtlint:cachekey-hasher`
		// must not match verb `cachekey`.
		if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
			continue
		}
		return strings.TrimSpace(rest), true
	}
	return "", false
}

// pathHasSuffix reports whether an import path ends with the given
// slash-separated suffix on a path-segment boundary: "internal/mem"
// matches "repro/internal/mem" but not "repro/internal/memx".
func pathHasSuffix(path, suffix string) bool {
	if path == suffix {
		return true
	}
	return strings.HasSuffix(path, "/"+suffix)
}

// namedOrPointee unwraps one level of pointer and reports the named
// type beneath, if any.
func namedOrPointee(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}
