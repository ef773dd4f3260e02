// Package multichecker drives a set of analyzers over package patterns,
// playing the role of golang.org/x/tools/go/analysis/multichecker for the
// cmd/acic-lint binary.
package multichecker

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"sort"
	"strings"

	"acic/internal/analysis"
	"acic/internal/analysis/load"
)

// Finding is one diagnostic with its analyzer and resolved position.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Pos, f.Message, f.Analyzer)
}

// jsonFinding is the -json wire form of one Finding, flat so the CI
// artifact is greppable/jq-able without knowing token.Position's shape.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

// Run loads patterns from dir and applies every analyzer to each module
// package in dependency order — dependencies are analyzed too, so facts
// exported while analyzing them (see analysis.Facts) are visible to their
// dependents, which is what makes the suite interprocedural across package
// boundaries. Findings are only reported for root packages (the ones the
// patterns matched); they come back sorted by file position.
func Run(dir string, patterns []string, analyzers []*analysis.Analyzer) ([]Finding, error) {
	res, err := load.Load(dir, patterns)
	if err != nil {
		return nil, err
	}
	facts := analysis.NewFacts()
	var findings []Finding
	for _, pkg := range res.Packages {
		for _, a := range analyzers {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      res.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				Facts:     facts,
			}
			name := a.Name
			root := pkg.Root
			pass.Report = func(d analysis.Diagnostic) {
				if !root {
					return // dependency pass: facts only, findings belong to its own lint run
				}
				findings = append(findings, Finding{
					Analyzer: name,
					Pos:      res.Fset.Position(d.Pos),
					Message:  d.Message,
				})
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %v", a.Name, pkg.Path, err)
			}
		}
	}
	Sort(findings)
	return findings, nil
}

// Sort orders findings by file position.
func Sort(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
}

// Options configures Main beyond the analyzer list.
type Options struct {
	// Analyzers is the suite run in the default (and -json) mode.
	Analyzers []*analysis.Analyzer
	// Noalloc implements the -noalloc mode: the static zero-allocation
	// gate, which is not a per-package AST pass (it shells out to the
	// compiler's escape analysis) and therefore plugs in as a whole-tree
	// check here. Nil disables the flag.
	Noalloc func(dir string, patterns []string) ([]Finding, error)
}

// Main is the CLI entry point: analyze the patterns given as arguments
// (default ./...) in the current directory, print findings, and exit 0 when
// clean, 1 on findings, 2 on load or internal errors.
func Main(opts Options) {
	os.Exit(cliMain(os.Args[1:], os.Stdout, os.Stderr, opts))
}

func cliMain(args []string, stdout, stderr io.Writer, opts Options) int {
	fs := flag.NewFlagSet("acic-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array on stdout (machine-readable CI artifact)")
	noalloc := fs.Bool("noalloc", false, "run the static zero-allocation gate over //acic:noalloc functions instead of the analyzer suite")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: acic-lint [-json] [-noalloc] [package patterns]")
		fmt.Fprintln(stderr, "\nflags:")
		fs.PrintDefaults()
		fmt.Fprintln(stderr, "\nanalyzers:")
		for _, a := range opts.Analyzers {
			summary, _, _ := strings.Cut(a.Doc, "\n")
			fmt.Fprintf(stderr, "  %-14s %s\n", a.Name, summary)
		}
		if opts.Noalloc != nil {
			fmt.Fprintf(stderr, "  %-14s %s\n", "noalloc (-noalloc)", "gate //acic:noalloc functions on the compiler's escape analysis")
		}
	}
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	var findings []Finding
	var err error
	if *noalloc {
		if opts.Noalloc == nil {
			fmt.Fprintln(stderr, "acic-lint: -noalloc is not wired in this build")
			return 2
		}
		findings, err = opts.Noalloc(".", patterns)
	} else {
		findings, err = Run(".", patterns, opts.Analyzers)
	}
	if err != nil {
		fmt.Fprintln(stderr, "acic-lint:", err)
		return 2
	}
	if *jsonOut {
		out := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			out = append(out, jsonFinding{
				Analyzer: f.Analyzer,
				File:     f.Pos.Filename,
				Line:     f.Pos.Line,
				Column:   f.Pos.Column,
				Message:  f.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stderr, "acic-lint:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "acic-lint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}
