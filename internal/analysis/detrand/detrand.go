// Package detrand forbids wall-clock and global-rand nondeterminism inside
// the deterministic-simulation packages.
//
// The paper's quiescence detection — and every EXPERIMENTS.md reproduction —
// assumes a run can be replayed: the same graph, parameters and seed must
// produce the same message interleavings up to scheduler freedom, the
// property Blanco et al. rely on to reason about delay models. Randomness
// must therefore flow through internal/xrand (seeded, splittable) and time
// must come from an injected clock (internal/simclock), never from the
// process environment. This analyzer reports
//
//   - calls to time.Now, time.Since and time.Sleep, and
//   - imports of math/rand and math/rand/v2
//
// in the listed packages. Test files are exempt. Code that genuinely needs
// the wall clock — the real-time fabric boundary in netsim, measurement
// loops in bench — carries an //acic:allow-wallclock directive with a
// justification (see DESIGN.md "Codebase invariants").
package detrand

import (
	"go/ast"
	"go/types"
	"strconv"

	"acic/internal/analysis"
)

// Directive is the escape hatch recognized by this analyzer.
const Directive = "allow-wallclock"

// Packages are the deterministic-simulation packages under enforcement.
// Tests may add fixture paths.
var Packages = map[string]bool{
	"acic/internal/arena":     true,
	"acic/internal/runtime":   true,
	"acic/internal/machine":   true,
	"acic/internal/netsim":    true,
	"acic/internal/relnet":    true,
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
	"acic/internal/bench":     true,
	"acic/internal/stress":    true,
	"acic/internal/metrics":   true,
	"acic/internal/trace":     true,
}

// forbidden lists the time functions whose results depend on the wall clock
// (or, for Sleep, stall the caller on it).
var forbidden = map[string]bool{
	"Now":   true,
	"Since": true,
	"Sleep": true,
}

// Analyzer is the detrand pass.
var Analyzer = &analysis.Analyzer{
	Name: "detrand",
	Doc: "forbid wall-clock time and global rand in deterministic-simulation packages\n\n" +
		"time.Now/Since/Sleep and math/rand undermine deterministic replay; use\n" +
		"internal/simclock and internal/xrand, or annotate //acic:allow-wallclock.",
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
		for _, imp := range file.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "math/rand" || path == "math/rand/v2" {
				if !dirs.Allowed(Directive, imp.Pos()) {
					pass.Reportf(imp.Pos(), "import of %s in deterministic package %s: use internal/xrand for replayable randomness", path, pass.Pkg.Path())
				}
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" || !forbidden[fn.Name()] {
				return true
			}
			if !dirs.Allowed(Directive, sel.Pos()) {
				pass.Reportf(sel.Pos(), "call to time.%s in deterministic package %s: inject a simclock.Clock instead (or annotate //acic:allow-wallclock with a justification)", fn.Name(), pass.Pkg.Path())
			}
			return true
		})
	}
	return nil
}
