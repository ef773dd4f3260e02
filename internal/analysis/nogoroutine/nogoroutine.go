// Package nogoroutine forbids raw go statements in runtime-managed
// packages.
//
// All concurrency in the simulated system must flow through the runtime
// scheduler: quiescence detection counts sends, deliveries and idle PEs,
// and a goroutine the runtime does not know about can hold work invisible
// to those counters, making "quiescent" an unsound conclusion. Handler and
// algorithm packages therefore never spawn goroutines; they inject work via
// runtime.Inject or PE.Send. The scheduler's own spawn sites (PE loops, the
// netsim dispatcher, the quiescence monitor) are the sanctioned exceptions,
// each annotated //acic:allow-goroutine.
package nogoroutine

import (
	"go/ast"

	"acic/internal/analysis"
)

// Directive is the escape hatch recognized by this analyzer.
const Directive = "allow-goroutine"

// Packages are the runtime-managed packages under enforcement. The runtime
// and netsim are included: their sanctioned spawn sites carry the allow
// directive, so any new one must be justified explicitly.
var Packages = map[string]bool{
	"acic/internal/runtime":   true,
	"acic/internal/machine":   true,
	"acic/internal/netsim":    true,
	"acic/internal/tram":      true,
	"acic/internal/core":      true,
	"acic/internal/deltastep": true,
	"acic/internal/delta2d":   true,
	"acic/internal/distctrl":  true,
	"acic/internal/kla":       true,
	"acic/internal/cc":        true,
	"acic/internal/pq":        true,
	"acic/internal/histogram": true,
	"acic/internal/collect":   true,
}

// Analyzer is the nogoroutine pass.
var Analyzer = &analysis.Analyzer{
	Name: "nogoroutine",
	Doc: "forbid raw go statements in runtime-managed packages\n\n" +
		"concurrency must flow through the runtime scheduler so quiescence\n" +
		"detection stays sound; annotate //acic:allow-goroutine for scheduler\n" +
		"internals.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !Packages[pass.Pkg.Path()] {
		return nil
	}
	dirs := analysis.FileDirectives(pass)
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if !dirs.Allowed(Directive, g.Pos()) {
				pass.Reportf(g.Pos(), "raw go statement in runtime-managed package %s: route concurrency through the runtime scheduler (or annotate //acic:allow-goroutine with a justification)", pass.Pkg.Path())
			}
			return true
		})
	}
	return nil
}
