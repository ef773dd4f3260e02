// Package acic is a from-scratch Go reproduction of "An Adaptive
// Asynchronous Approach for the Single-Source Shortest Paths Problem"
// (Rao, Chandrasekar, Kale; SC 2024).
//
// The module's root package holds only the figure-regeneration benchmarks
// (bench_test.go); the system lives under internal/:
//
//   - internal/core — the ACIC algorithm (§II-§III) with the paper's §V
//     future-work extensions (over-decomposition, smooth thresholds).
//   - internal/runtime, internal/netsim, internal/tram — the Charm++-style
//     message-driven substrate, the simulated cluster, and the tramlib
//     aggregation library.
//   - internal/deltastep, internal/distctrl, internal/seq — the two
//     comparators (hybrid Δ-stepping, distributed control) and the
//     sequential oracles.
//   - internal/cc — asynchronous connected components, the §V extension
//     that reuses ACIC's work-paced reduction cycle.
//   - internal/bench — one experiment per figure of the paper's evaluation.
//
// Entry points for users are the binaries under cmd/ and the runnable
// programs under examples/. See README.md for a guided tour, DESIGN.md for
// the system inventory and substitution rationale, and EXPERIMENTS.md for
// the paper-vs-measured record.
package acic
