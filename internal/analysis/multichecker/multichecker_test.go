package multichecker

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/token"
	"strings"
	"testing"

	"acic/internal/analysis"
)

// funcs reports every function declaration among names, so a test picks a
// clean run (no names) or a run with findings.
func funcs(names ...string) *analysis.Analyzer {
	want := make(map[string]bool)
	for _, n := range names {
		want[n] = true
	}
	return &analysis.Analyzer{
		Name: "funcs",
		Doc:  "report the named functions\n\nfor driver tests",
		Run: func(pass *analysis.Pass) error {
			for _, f := range pass.Files {
				for _, d := range f.Decls {
					if fd, ok := d.(*ast.FuncDecl); ok && want[fd.Name.Name] {
						pass.Reportf(fd.Pos(), "function %s", fd.Name.Name)
					}
				}
			}
			return nil
		},
	}
}

func run(t *testing.T, opts Options, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := cliMain(args, &stdout, &stderr, opts)
	return code, stdout.String(), stderr.String()
}

func TestExitClean(t *testing.T) {
	code, out, _ := run(t, Options{Analyzers: []*analysis.Analyzer{funcs()}}, "./testdata/clean")
	if code != 0 || out != "" {
		t.Fatalf("exit %d, stdout %q; want 0 and no output", code, out)
	}
}

func TestExitFindings(t *testing.T) {
	code, out, errOut := run(t, Options{Analyzers: []*analysis.Analyzer{funcs("Two", "One")}}, "./testdata/clean")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 || !strings.Contains(lines[0], "clean.go:5:1: function One (funcs)") ||
		!strings.Contains(lines[1], "clean.go:7:1: function Two (funcs)") {
		t.Errorf("findings not in position order:\n%s", out)
	}
	if !strings.Contains(errOut, "2 finding(s)") {
		t.Errorf("stderr = %q, want the finding count", errOut)
	}
}

func TestExitLoadFailure(t *testing.T) {
	code, _, errOut := run(t, Options{Analyzers: []*analysis.Analyzer{funcs()}}, "./testdata/missing")
	if code != 2 || !strings.Contains(errOut, "acic-lint:") {
		t.Fatalf("exit %d, stderr %q; want 2 and the load error", code, errOut)
	}
}

// TestJSONShape pins the -json wire form scripts/lint_sabotage.sh greps:
// an indented array of flat objects, one field per line, analyzer first.
func TestJSONShape(t *testing.T) {
	code, out, _ := run(t, Options{Analyzers: []*analysis.Analyzer{funcs("Two")}}, "-json", "./testdata/clean")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	var got []map[string]any
	if err := json.Unmarshal([]byte(out), &got); err != nil {
		t.Fatalf("-json output is not a JSON array: %v\n%s", err, out)
	}
	if len(got) != 1 || got[0]["analyzer"] != "funcs" || got[0]["message"] != "function Two" ||
		got[0]["line"] != float64(7) || got[0]["column"] != float64(1) ||
		!strings.HasSuffix(got[0]["file"].(string), "clean.go") {
		t.Fatalf("finding = %v", got)
	}
	if !strings.Contains(out, "\"analyzer\": \"funcs\",\n    \"file\"") {
		t.Errorf("fields are not one per line, analyzer first:\n%s", out)
	}

	code, out, _ = run(t, Options{Analyzers: []*analysis.Analyzer{funcs()}}, "-json", "./testdata/clean")
	if code != 0 || strings.TrimSpace(out) != "[]" {
		t.Fatalf("clean -json run: exit %d, stdout %q; want 0 and []", code, out)
	}
}

func TestNoallocMode(t *testing.T) {
	var gotPatterns []string
	opts := Options{Noalloc: func(dir string, patterns []string) ([]Finding, error) {
		gotPatterns = patterns
		return []Finding{{Analyzer: "noalloc", Pos: token.Position{Filename: "x.go", Line: 3}, Message: "escapes"}}, nil
	}}
	code, out, _ := run(t, opts, "-noalloc")
	if code != 1 || !strings.Contains(out, "x.go:3: escapes (noalloc)") {
		t.Fatalf("exit %d, stdout %q", code, out)
	}
	if len(gotPatterns) != 1 || gotPatterns[0] != "./..." {
		t.Errorf("patterns = %v, want the ./... default", gotPatterns)
	}
	if code, _, errOut := run(t, Options{}, "-noalloc"); code != 2 || !strings.Contains(errOut, "not wired") {
		t.Errorf("unwired -noalloc: exit %d, stderr %q; want 2", code, errOut)
	}
}

func TestUsage(t *testing.T) {
	opts := Options{Analyzers: []*analysis.Analyzer{funcs()}, Noalloc: func(string, []string) ([]Finding, error) { return nil, nil }}
	code, _, errOut := run(t, opts, "-h")
	if code != 0 || !strings.Contains(errOut, "funcs          report the named functions") ||
		!strings.Contains(errOut, "noalloc (-noalloc)") {
		t.Fatalf("exit %d, usage:\n%s", code, errOut)
	}
	if code, _, _ := run(t, opts, "-bogus"); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
}
