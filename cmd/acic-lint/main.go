// Command acic-lint runs the project's invariant analyzers (see
// internal/analysis and DESIGN.md "Codebase invariants") over package
// patterns, exactly like a go/analysis multichecker:
//
//	go run ./cmd/acic-lint ./...
//	go run ./cmd/acic-lint -json ./... > lint.json
//	go run ./cmd/acic-lint -noalloc ./...
//
// Exit status: 0 clean, 1 findings, 2 load failure. scripts/ci.sh runs it
// (both modes) as a gate on every push.
package main

import (
	"acic/internal/analysis"
	"acic/internal/analysis/dircheck"
	"acic/internal/analysis/lockorder"
	"acic/internal/analysis/multichecker"
	"acic/internal/analysis/noalloc"
	"acic/internal/analysis/releasecheck"
	"acic/internal/analysis/sharedpad"
	"acic/internal/analysis/simcheck"
)

func main() {
	multichecker.Main(multichecker.Options{
		Analyzers: []*analysis.Analyzer{
			dircheck.Analyzer,
			lockorder.Analyzer,
			releasecheck.Analyzer,
			sharedpad.Analyzer,
			simcheck.Analyzer,
		},
		Noalloc: noalloc.Check,
	})
}
