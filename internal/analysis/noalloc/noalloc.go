// Package noalloc implements the static zero-allocation gate behind
// `acic-lint -noalloc`.
//
// A function whose doc comment carries //acic:noalloc promises not to
// heap-allocate. Rather than measuring (testing.AllocsPerRun only sees the
// inputs the benchmark happens to feed, and only on the machine running
// it), the gate asks the compiler: it rebuilds the tree with
// -gcflags=-m and fails on any "escapes to heap" / "moved to heap"
// diagnostic inside an annotated function's body. That is a static
// overapproximation — the compiler flags conditional escapes too — which
// is exactly the right polarity for a gate: a hot-path function stays
// clean under every input or says why not.
//
// Individual lines opt out with //acic:allow-alloc <justification>
// (trailing or directly above), for allocations that are intentional and
// amortized — a pool-miss make, a once-per-connection lazy init. Bare
// allow-alloc directives are ignored, same as every other allow (see
// dircheck).
//
// Generic functions compile (and get escape-analyzed) at instantiation,
// so their diagnostics surface while compiling the instantiating package
// but point into the generic source file; the gate therefore matches by
// file position and dedups across compile units.
package noalloc

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/token"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"

	"acic/internal/analysis"
	"acic/internal/analysis/load"
	"acic/internal/analysis/multichecker"
)

// span is one //acic:noalloc function body, keyed by absolute file path.
type span struct {
	fn         string
	start, end int
}

// Check loads patterns from dir, collects //acic:noalloc function spans
// and //acic:allow-alloc line exemptions, replays the compiler's escape
// analysis, and reports every escape that lands inside a gated span.
func Check(dir string, patterns []string) ([]multichecker.Finding, error) {
	absDir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	res, err := load.Load(dir, patterns)
	if err != nil {
		return nil, err
	}

	spans := make(map[string][]span) // abs file -> gated bodies
	allowed := make(map[string]bool) // "absfile:line" -> exempt
	gated := 0
	for _, pkg := range res.Packages {
		for _, file := range pkg.Files {
			fname := res.Fset.Position(file.Pos()).Filename
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					name, just, ok := analysis.ParseDirective(c.Text)
					if !ok || name != "allow-alloc" || just == "" {
						continue
					}
					// Same coverage convention as analysis.Directives: the
					// directive excuses its own line (trailing form) and the
					// next (comment-above form).
					line := res.Fset.Position(c.Pos()).Line
					allowed[lineKey(fname, line)] = true
					allowed[lineKey(fname, line+1)] = true
				}
			}
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Doc == nil || fn.Body == nil {
					continue
				}
				for _, c := range fn.Doc.List {
					if name, _, ok := analysis.ParseDirective(c.Text); ok && name == "noalloc" {
						spans[fname] = append(spans[fname], span{
							fn:    funcName(fn),
							start: res.Fset.Position(fn.Pos()).Line,
							end:   res.Fset.Position(fn.Body.End()).Line,
						})
						gated++
						break
					}
				}
			}
		}
	}
	if gated == 0 {
		return nil, nil // nothing promised, nothing to gate
	}

	escapes, err := escapeDiagnostics(absDir, patterns)
	if err != nil {
		return nil, err
	}

	var findings []multichecker.Finding
	seen := make(map[string]bool)
	for _, e := range escapes {
		s, ok := enclosing(spans[e.pos.Filename], e.pos.Line)
		if !ok || allowed[lineKey(e.pos.Filename, e.pos.Line)] {
			continue
		}
		key := fmt.Sprintf("%s:%d:%d:%s", e.pos.Filename, e.pos.Line, e.pos.Column, e.msg)
		if seen[key] {
			continue // same generic body escape-analyzed in several compile units
		}
		seen[key] = true
		findings = append(findings, multichecker.Finding{
			Analyzer: "noalloc",
			Pos:      e.pos,
			Message: fmt.Sprintf("%s in //acic:noalloc function %s — hoist the allocation or bless the line with //acic:allow-alloc <why>",
				e.msg, s.fn),
		})
	}
	multichecker.Sort(findings)
	return findings, nil
}

type escape struct {
	pos token.Position
	msg string
}

// escapeDiagnostics rebuilds patterns with -gcflags=-m and keeps the heap
// diagnostics. The go tool caches compiler output, so warm runs replay
// from the build cache instead of recompiling.
func escapeDiagnostics(absDir string, patterns []string) ([]escape, error) {
	args := append([]string{"build", "-gcflags=-m"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = absDir
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out // -m diagnostics arrive on stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go build -gcflags=-m: %v\n%s", err, out.String())
	}
	var escapes []escape
	for _, line := range strings.Split(out.String(), "\n") {
		if !strings.Contains(line, "escapes to heap") && !strings.Contains(line, "moved to heap") {
			continue
		}
		pos, msg, ok := splitDiagnostic(line)
		if !ok {
			continue // explanation sub-line from -m=2, or a "# pkg" header
		}
		if !filepath.IsAbs(pos.Filename) {
			pos.Filename = filepath.Join(absDir, pos.Filename)
		}
		pos.Filename = filepath.Clean(pos.Filename)
		escapes = append(escapes, escape{pos: pos, msg: msg})
	}
	return escapes, nil
}

// splitDiagnostic parses "file.go:line:col: message".
func splitDiagnostic(line string) (token.Position, string, bool) {
	line = strings.TrimSpace(line)
	// Find ".go:" to survive both relative and absolute (even windowsy)
	// filename prefixes.
	i := strings.Index(line, ".go:")
	if i < 0 {
		return token.Position{}, "", false
	}
	file := line[:i+3]
	rest := line[i+4:]
	parts := strings.SplitN(rest, ":", 3)
	if len(parts) != 3 {
		return token.Position{}, "", false
	}
	ln, err1 := strconv.Atoi(parts[0])
	col, err2 := strconv.Atoi(parts[1])
	if err1 != nil || err2 != nil {
		return token.Position{}, "", false
	}
	return token.Position{Filename: file, Line: ln, Column: col},
		strings.TrimSpace(parts[2]), true
}

func enclosing(spans []span, line int) (span, bool) {
	for _, s := range spans {
		if s.start <= line && line <= s.end {
			return s, true
		}
	}
	return span{}, false
}

func lineKey(file string, line int) string {
	return file + ":" + strconv.Itoa(line)
}

func funcName(fn *ast.FuncDecl) string {
	if fn.Recv != nil && len(fn.Recv.List) == 1 {
		if n := recvTypeName(fn.Recv.List[0].Type); n != "" {
			return n + "." + fn.Name.Name
		}
	}
	return fn.Name.Name
}

// recvTypeName extracts the bare type name from a receiver expression:
// *T, T[P], *T[P] all yield "T".
func recvTypeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvTypeName(e.X)
	case *ast.IndexExpr:
		return recvTypeName(e.X)
	case *ast.IndexListExpr:
		return recvTypeName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return ""
}
