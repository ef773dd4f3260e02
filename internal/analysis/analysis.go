// Package analysis is a self-contained reimplementation of the
// golang.org/x/tools/go/analysis core: just enough of the Analyzer / Pass /
// Diagnostic contract for ACIC's project-specific linters, built only on the
// standard library so the module stays dependency-free.
//
// The five analyzers under this directory enforce invariants the Go
// compiler cannot see but the runtime's correctness depends on:
// releasecheck (pool discipline for tram batches, arena chunks and borrowed
// buffers), lockorder (an acyclic lock graph and no sends under a lock),
// simcheck (no wall clock, ambient rand or raw goroutines in the simulation,
// no function-style sync/atomic anywhere), sharedpad (padded shards) and
// dircheck (the directive vocabulary itself). They are wired into CI
// through cmd/acic-lint (see scripts/ci.sh) and the "Codebase invariants"
// section of DESIGN.md documents each rule.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one independent analysis pass, mirroring the x/tools
// type of the same name so the analyzers read as standard go/analysis code.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and CLI output.
	Name string
	// Doc is the help text; the first line is the one-sentence summary.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// Pass provides one analyzed package to an Analyzer's Run function.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Facts is the cross-package fact store shared by every pass of one
	// driver invocation. Packages are analyzed in dependency order, so a
	// fact exported while analyzing a dependency is visible when its
	// dependents are analyzed — the mechanism behind the interprocedural
	// analyzers (lockorder acquisition graphs, releasecheck carrier fields
	// and sink summaries). May be nil when a driver has no use for facts;
	// the helpers below are nil-safe.
	Facts *Facts

	// Report publishes one diagnostic.
	Report func(Diagnostic)
}

// ExportFact records a fact under this pass's analyzer namespace.
func (p *Pass) ExportFact(key, value string) { p.Facts.Export(p.Analyzer.Name, key, value) }

// HasFact reports whether a fact exists in this pass's analyzer namespace.
func (p *Pass) HasFact(key string) bool { _, ok := p.Facts.Import(p.Analyzer.Name, key); return ok }

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding, bound to a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Facts is a string-keyed, string-valued fact store scoped per analyzer.
// Keys follow the ObjKey/FieldKey conventions ("pkgpath.Recv.Name"), with an
// analyzer-chosen prefix when one analyzer exports facts of several kinds
// ("sink:", "carrier:", "locks:", ...). Values carry small summaries in an
// analyzer-private encoding (comma-joined lists, positions, or empty when
// the key's existence is the fact).
//
// The zero value and the nil pointer are both usable empty stores that
// silently drop exports, so analyzers need no nil checks on drivers that do
// not thread facts through.
type Facts struct {
	m map[factKey]string
}

type factKey struct{ analyzer, key string }

// NewFacts returns an empty fact store.
func NewFacts() *Facts { return &Facts{m: make(map[factKey]string)} }

// Export records value under (analyzer, key), overwriting any previous
// value. No-op on a nil store.
func (f *Facts) Export(analyzer, key, value string) {
	if f == nil || f.m == nil {
		return
	}
	f.m[factKey{analyzer, key}] = value
}

// Import returns the value recorded under (analyzer, key).
func (f *Facts) Import(analyzer, key string) (string, bool) {
	if f == nil || f.m == nil {
		return "", false
	}
	v, ok := f.m[factKey{analyzer, key}]
	return v, ok
}

// WithPrefix returns every key (with prefix trimmed) -> value recorded in
// analyzer's namespace whose key starts with prefix.
func (f *Facts) WithPrefix(analyzer, prefix string) map[string]string {
	out := make(map[string]string)
	if f == nil || f.m == nil {
		return out
	}
	for k, v := range f.m {
		if rest, ok := strings.CutPrefix(k.key, prefix); ok && k.analyzer == analyzer {
			out[rest] = v
		}
	}
	return out
}

// ObjKey returns a position-independent identifier for a function or
// package-level object: "pkgpath.Recv.Name" for methods, "pkgpath.Name"
// otherwise. Pointer receivers and generic instances unwrap to the named
// receiver type.
func ObjKey(obj types.Object) string {
	if obj == nil {
		return ""
	}
	pkg := ""
	if obj.Pkg() != nil {
		pkg = obj.Pkg().Path()
	}
	if fn, ok := obj.(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			if name := NamedRecvName(fn); name != "" {
				return pkg + "." + name + "." + fn.Name()
			}
		}
	}
	return pkg + "." + obj.Name()
}

// ShortKey is ObjKey with the package path cut to its last element
// ("tram.Manager.Release"), so a rule names the real package and the
// test fixture standing in for it alike.
func ShortKey(obj types.Object) string {
	k := ObjKey(obj)
	return k[strings.LastIndexByte(k, '/')+1:]
}

// Callee resolves a call's static callee, or nil for dynamic calls.
func (p *Pass) Callee(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch f := call.Fun.(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return nil
	}
	fn, _ := p.TypesInfo.Uses[id].(*types.Func)
	return fn
}

// FieldKey returns the identifier of field name on named type t:
// "pkgpath.Type.field".
func FieldKey(t *types.Named, name string) string {
	pkg := ""
	if t.Obj().Pkg() != nil {
		pkg = t.Obj().Pkg().Path()
	}
	return pkg + "." + t.Obj().Name() + "." + name
}

// NamedRecvName returns the name of fn's receiver's named type ("" for
// plain functions), unwrapping pointers and generic instances.
func NamedRecvName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// NamedOf unwraps pointers and aliases to the named type of t, or nil.
func NamedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// File returns the *ast.File of the pass that contains pos, or nil.
func (p *Pass) File(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// InTestFile reports whether pos lies in a _test.go file. The repo driver
// only loads non-test files, but analysistest fixtures may include them and
// several analyzers exempt test code explicitly.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}
