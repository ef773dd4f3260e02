// Package simcheck keeps the simulated machine replayable and its
// quiescence counters complete.
//
// The paper's quiescence detection — and every EXPERIMENTS.md reproduction —
// assumes a run can be replayed: the same graph, parameters and seed must
// produce the same message interleavings up to scheduler freedom, the
// property Blanco et al. rely on to reason about delay models. It also
// assumes no work escapes the runtime's counters. One rule table enforces
// both:
//
//   - In the Deterministic packages, no call to time.Now, time.Since or
//     time.Sleep and no import of math/rand or math/rand/v2: randomness flows
//     through internal/xrand (seeded, splittable) and time through an
//     injected clock (internal/simclock). The real-time fabric boundary in
//     netsim and the measurement loops in bench carry
//     //acic:allow-wallclock.
//   - In the RuntimeManaged packages, no raw go statement: a goroutine the
//     runtime does not know about can hold work invisible to the
//     send/deliver/idle counters, making "quiescent" unsound. The
//     scheduler's own spawn sites (PE loops, the netsim dispatcher, the
//     quiescence monitor) carry //acic:allow-goroutine.
//   - Anywhere, no call to a sync/atomic package-level function. Shared
//     counters are typed atomics (atomic.Int64 and friends), whose value is
//     only reachable through methods, so the plain-read-beside-atomic-write
//     race behind both early-quiescence bugs cannot be written. Banning the
//     function form keeps that true by construction; there is no escape
//     hatch.
//
// Test files are exempt from every rule.
package simcheck

import (
	"go/ast"
	"go/types"
	"strconv"

	"acic/internal/analysis"
)

// Deterministic are the packages that must not read the wall clock or
// ambient randomness. Tests may add fixture paths.
var Deterministic = map[string]bool{
	"acic/internal/arena":     true,
	"acic/internal/runtime":   true,
	"acic/internal/machine":   true,
	"acic/internal/netsim":    true,
	"acic/internal/tram":      true,
	"acic/internal/core":      true,
	"acic/internal/deltastep": true,
	"acic/internal/distctrl":  true,
	"acic/internal/cc":        true,
	"acic/internal/pq":        true,
	"acic/internal/histogram": true,
	"acic/internal/collect":   true,
	"acic/internal/bench":     true,
	"acic/internal/stress":    true,
	"acic/internal/metrics":   true,
	"acic/internal/trace":     true,
}

// RuntimeManaged are the packages whose concurrency must flow through the
// runtime scheduler. internal/stress is deliberately absent: it spawns its
// own workers to drive the matrix. Tests may add fixture paths.
var RuntimeManaged = map[string]bool{
	"acic/internal/runtime":   true,
	"acic/internal/machine":   true,
	"acic/internal/netsim":    true,
	"acic/internal/tram":      true,
	"acic/internal/core":      true,
	"acic/internal/deltastep": true,
	"acic/internal/distctrl":  true,
	"acic/internal/cc":        true,
	"acic/internal/pq":        true,
	"acic/internal/histogram": true,
	"acic/internal/collect":   true,
}

// rule is one row of the table: where it applies (nil: every package),
// the directive that excuses a finding ("": none), and the matcher, which
// returns the finding's message for an offending node or "".
type rule struct {
	pkgs      map[string]bool
	directive string
	match     func(pass *analysis.Pass, n ast.Node) string
}

var rules = []rule{
	{Deterministic, "allow-wallclock", wallClock},
	{Deterministic, "allow-wallclock", globalRand},
	{RuntimeManaged, "allow-goroutine", goStmt},
	{nil, "", atomicFunc},
}

// Analyzer is the simcheck pass.
var Analyzer = &analysis.Analyzer{
	Name: "simcheck",
	Doc: "keep the simulation replayable and its counters complete\n\n" +
		"no wall clock or math/rand in deterministic packages, no raw go\n" +
		"statements in runtime-managed packages, and no function-style\n" +
		"sync/atomic anywhere (use the typed atomics).",
	Run: run,
}

func run(pass *analysis.Pass) error {
	var active []rule
	for _, r := range rules {
		if r.pkgs == nil || r.pkgs[pass.Pkg.Path()] {
			active = append(active, r)
		}
	}
	dirs := analysis.FileDirectives(pass)
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			for _, r := range active {
				if msg := r.match(pass, n); msg != "" && (r.directive == "" || !dirs.Allowed(r.directive, n.Pos())) {
					pass.Reportf(n.Pos(), "%s", msg)
				}
			}
			return true
		})
	}
	return nil
}

func wallClock(pass *analysis.Pass, n ast.Node) string {
	sel, ok := n.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
		return ""
	}
	switch fn.Name() {
	case "Now", "Since", "Sleep":
		return "call to time." + fn.Name() + " in deterministic package " + pass.Pkg.Path() +
			": inject a simclock.Clock instead (or annotate //acic:allow-wallclock with a justification)"
	}
	return ""
}

func globalRand(pass *analysis.Pass, n ast.Node) string {
	imp, ok := n.(*ast.ImportSpec)
	if !ok {
		return ""
	}
	if path, _ := strconv.Unquote(imp.Path.Value); path == "math/rand" || path == "math/rand/v2" {
		return "import of " + path + " in deterministic package " + pass.Pkg.Path() +
			": use internal/xrand for replayable randomness"
	}
	return ""
}

func goStmt(pass *analysis.Pass, n ast.Node) string {
	if _, ok := n.(*ast.GoStmt); !ok {
		return ""
	}
	return "raw go statement in runtime-managed package " + pass.Pkg.Path() +
		": route concurrency through the runtime scheduler (or annotate //acic:allow-goroutine with a justification)"
}

func atomicFunc(pass *analysis.Pass, n ast.Node) string {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return ""
	}
	fn := pass.Callee(call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" || analysis.NamedRecvName(fn) != "" {
		return ""
	}
	return "call to sync/atomic." + fn.Name() +
		": keep shared counters in a typed atomic (atomic.Int64 and friends), whose value cannot be read plainly"
}
