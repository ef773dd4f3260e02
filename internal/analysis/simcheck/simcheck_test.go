package simcheck_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"acic/internal/analysis"
	"acic/internal/analysis/analysistest"
	"acic/internal/analysis/simcheck"
)

func TestWallclock(t *testing.T) {
	simcheck.Deterministic["simcheck_clock"] = true
	defer delete(simcheck.Deterministic, "simcheck_clock")
	analysistest.Run(t, "testdata", simcheck.Analyzer, "simcheck_clock")
}

func TestNoGoroutine(t *testing.T) {
	simcheck.RuntimeManaged["simcheck_go"] = true
	defer delete(simcheck.RuntimeManaged, "simcheck_go")
	analysistest.Run(t, "testdata", simcheck.Analyzer, "simcheck_go")
}

// TestAtomicFunctions needs no package listing: the atomic rule applies
// module-wide.
func TestAtomicFunctions(t *testing.T) {
	analysistest.Run(t, "testdata", simcheck.Analyzer, "simcheck_atomic")
}

// TestAtomicFunctionsCrossPackage checks each half of a cross-package use
// at its own call site: the rule needs no facts.
func TestAtomicFunctionsCrossPackage(t *testing.T) {
	analysistest.Run(t, "testdata", simcheck.Analyzer, "simcheck_atomicdep", "simcheck_atomicx")
}

// TestSkipsUnlistedPackages runs the analyzer on a package full of clock
// and goroutine violations whose import path is under neither listing:
// silence expected.
func TestSkipsUnlistedPackages(t *testing.T) {
	const src = `package x

import "time"

func f() time.Time {
	go func() {}()
	time.Sleep(time.Millisecond)
	return time.Now()
}
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check("acic/internal/unlisted", fset, []*ast.File{file}, info)
	if err != nil {
		t.Fatal(err)
	}
	pass := &analysis.Pass{
		Analyzer:  simcheck.Analyzer,
		Fset:      fset,
		Files:     []*ast.File{file},
		Pkg:       pkg,
		TypesInfo: info,
		Report: func(d analysis.Diagnostic) {
			t.Errorf("unexpected diagnostic in unlisted package: %s", d.Message)
		},
	}
	if err := simcheck.Analyzer.Run(pass); err != nil {
		t.Fatal(err)
	}
}
