package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Directives indexes //acic:<name> escape-hatch comments of one file.
//
// A directive suppresses an analyzer's diagnostic when it appears
//
//   - on the offending line itself (trailing comment),
//   - on its own line directly above the offending one, or
//   - in the doc comment of the function declaration enclosing the offense,
//     which blesses the whole function body.
//
// The text after the directive name is a free-form justification; the
// convention (enforced by review, not machine) is that every use says why
// the exemption is sound.
type Directives struct {
	fset *token.FileSet
	// lines maps directive name -> set of line numbers it covers.
	lines map[string]map[int]bool
	// spans are function bodies blessed by a doc-comment directive.
	spans []dirSpan
}

type dirSpan struct {
	name     string
	from, to token.Pos
}

// DirectivePrefix introduces every ACIC lint directive.
const DirectivePrefix = "//acic:"

// KnownDirectives is the complete directive vocabulary. dircheck rejects
// anything outside it, so a typo cannot silently fail to suppress (or,
// worse, silently suppress nothing while reading as if it did).
var KnownDirectives = map[string]bool{
	"allow-unreleased": true, // releasecheck: pooled batch, chunk or buffer deliberately kept
	"allow-lock-order": true, // lockorder: acquisition ordered, or send under lock proven safe
	"allow-goroutine":  true, // simcheck: runtime-owned thread
	"allow-wallclock":  true, // simcheck: sanctioned wall-clock boundary
	"allow-unpadded":   true, // sharedpad: shard provably uncontended
	"allow-alloc":      true, // noalloc gate: intentional allocation on one line
	"noalloc":          true, // noalloc gate: function must not heap-allocate
}

// NewDirectives scans file for //acic: directives. Bare allow-* directives
// (no justification text) are ignored — they do not suppress anything;
// dircheck reports them so they cannot linger.
func NewDirectives(fset *token.FileSet, file *ast.File) *Directives {
	d := &Directives{fset: fset, lines: make(map[string]map[int]bool)}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			name, just, ok := ParseDirective(c.Text)
			if !ok || (strings.HasPrefix(name, "allow-") && just == "") {
				continue
			}
			if d.lines[name] == nil {
				d.lines[name] = make(map[int]bool)
			}
			line := fset.Position(c.Pos()).Line
			// The directive covers its own line (trailing-comment form) and
			// the next line (standalone comment-above form).
			d.lines[name][line] = true
			d.lines[name][line+1] = true
		}
	}
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Doc == nil || fn.Body == nil {
			continue
		}
		for _, c := range fn.Doc.List {
			if name, just, ok := ParseDirective(c.Text); ok && !(strings.HasPrefix(name, "allow-") && just == "") {
				d.spans = append(d.spans, dirSpan{name: name, from: fn.Pos(), to: fn.Body.End()})
			}
		}
	}
	return d
}

// ParseDirective splits an //acic:<name> comment into the directive name
// and its free-form justification text (trimmed; empty when absent). ok is
// false for comments that are not acic directives at all.
func ParseDirective(text string) (name, justification string, ok bool) {
	if !strings.HasPrefix(text, DirectivePrefix) {
		return "", "", false
	}
	rest := text[len(DirectivePrefix):]
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		name, justification = rest[:i], strings.TrimSpace(rest[i+1:])
	} else {
		name = rest
	}
	if name == "" {
		return "", "", false
	}
	return name, justification, true
}

// Allowed reports whether directive name covers pos.
func (d *Directives) Allowed(name string, pos token.Pos) bool {
	if d.lines[name][d.fset.Position(pos).Line] {
		return true
	}
	for _, s := range d.spans {
		if s.name == name && s.from <= pos && pos < s.to {
			return true
		}
	}
	return false
}

// FileDirectives builds the directive index for every file of the pass,
// returning a lookup over the whole package.
func FileDirectives(pass *Pass) *PkgDirectives {
	pd := &PkgDirectives{fset: pass.Fset}
	for _, f := range pass.Files {
		pd.perFile = append(pd.perFile, fileDir{file: f, dirs: NewDirectives(pass.Fset, f)})
	}
	return pd
}

// PkgDirectives is the package-wide directive lookup.
type PkgDirectives struct {
	fset    *token.FileSet
	perFile []fileDir
}

type fileDir struct {
	file *ast.File
	dirs *Directives
}

// Allowed reports whether directive name covers pos in its file.
func (pd *PkgDirectives) Allowed(name string, pos token.Pos) bool {
	for _, fd := range pd.perFile {
		if fd.file.FileStart <= pos && pos < fd.file.FileEnd {
			return fd.dirs.Allowed(name, pos)
		}
	}
	return false
}
