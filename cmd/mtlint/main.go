// Command mtlint runs the repository's invariant-enforcing analysis
// suite (internal/analyzers): the cache-key audit, simulator-core
// determinism, the phase-skip FastForwarder contract, the registry
// spec grammar, the concurrency contracts (lock discipline, atomic
// consistency, context flow, goroutine ownership), and exported-symbol
// documentation.  See docs/lint.md.
//
// Run it from the module root:
//
//	mtlint ./...
//
// It loads and type-checks the module from source.  -json writes the
// findings as a machine-readable JSON array (to stdout, or to the -out
// path), and -github prints one GitHub Actions `::error` workflow
// command per finding on stdout so CI findings annotate the offending
// lines of a pull request.  The human-readable file:line form always
// goes to stderr.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analyzers"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("mtlint", flag.ExitOnError)
	dir := fs.String("dir", ".", "module root to analyze")
	jsonOut := fs.Bool("json", false, "also emit findings as a JSON array")
	out := fs.String("out", "", "write the -json report here instead of stdout")
	github := fs.Bool("github", false, "also emit GitHub Actions ::error annotations on stdout")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: mtlint [packages]\n\nAnalyzers:\n")
		for _, a := range analyzers.All() {
			fmt.Fprintf(fs.Output(), "  %-12s %s\n", a.Name, a.Doc)
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	mod, err := analyzers.ModulePathOf(*dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mtlint: %v\n", err)
		return 2
	}
	pkgs, err := analyzers.Load(analyzers.LoadConfig{Dir: *dir, ModulePath: mod}, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mtlint: %v\n", err)
		return 2
	}
	diags, err := analyzers.RunAnalyzers(pkgs, analyzers.All())
	if err != nil {
		fmt.Fprintf(os.Stderr, "mtlint: %v\n", err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if *github {
		for _, d := range diags {
			fmt.Println(githubAnnotation(d))
		}
	}
	if *jsonOut {
		if err := writeJSONReport(*out, diags); err != nil {
			fmt.Fprintf(os.Stderr, "mtlint: %v\n", err)
			return 2
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// jsonDiagnostic is one element of the -json report.
type jsonDiagnostic struct {
	// File is the diagnostic's path, relative to the analyzed module
	// root (exactly what GitHub annotations and editors want).
	File string `json:"file"`
	// Line and Col are 1-based.
	Line int `json:"line"`
	Col  int `json:"col"`
	// Analyzer names the reporting pass.
	Analyzer string `json:"analyzer"`
	// Message describes the violated invariant.
	Message string `json:"message"`
}

// writeJSONReport renders diags as an indented JSON array — always an
// array, so a clean run yields [] rather than null — to path, or
// stdout when path is empty.
func writeJSONReport(path string, diags []analyzers.Diagnostic) error {
	report := make([]jsonDiagnostic, 0, len(diags))
	for _, d := range diags {
		report = append(report, jsonDiagnostic{
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o666)
}

// githubAnnotation renders one finding as a GitHub Actions workflow
// command, which the Actions runner turns into an inline annotation on
// the pull request's diff.
func githubAnnotation(d analyzers.Diagnostic) string {
	return fmt.Sprintf("::error file=%s,line=%d,col=%d,title=mtlint/%s::%s",
		escapeAnnotationProperty(d.Pos.Filename), d.Pos.Line, d.Pos.Column,
		escapeAnnotationProperty(d.Analyzer), escapeAnnotationData(d.Message))
}

// escapeAnnotationData escapes a workflow command's message per the
// Actions runner's rules.
func escapeAnnotationData(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

// escapeAnnotationProperty escapes a workflow command property value,
// which additionally reserves the property separators.
func escapeAnnotationProperty(s string) string {
	s = escapeAnnotationData(s)
	s = strings.ReplaceAll(s, ":", "%3A")
	s = strings.ReplaceAll(s, ",", "%2C")
	return s
}
