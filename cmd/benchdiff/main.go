// Command benchdiff compares the BENCH_N.json records produced by
// scripts/bench.sh and enforces the perf-regression gate in CI.
//
// Usage:
//
//	benchdiff OLD.json NEW.json             # print per-benchmark deltas
//	benchdiff -gate OLD.json NEW.json       # also exit 1 on a regression
//	benchdiff -markdown seed=BENCH_1.json pr3=BENCH_3.json pr6=BENCH_6.json
//
// The gate fails when a zero-alloc benchmark starts allocating or when a
// baseline benchmark disappears. ns/op deltas are printed but never gated:
// the committed baseline comes from another session, whose host noise
// alone exceeds any useful threshold. -markdown renders the
// perf-trajectory table embedded in EXPERIMENTS.md from a labeled series
// of records.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"acic/internal/benchdiff"
)

func main() {
	var (
		gate     = flag.Bool("gate", false, "exit non-zero when the regression gate fails")
		markdown = flag.Bool("markdown", false, "render a Markdown trajectory table from label=file arguments")
	)
	flag.Parse()

	if *markdown {
		runMarkdown(flag.Args())
		return
	}
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-gate] OLD.json NEW.json")
		fmt.Fprintln(os.Stderr, "       benchdiff -markdown label=FILE.json [label=FILE.json ...]")
		os.Exit(2)
	}
	old, err := benchdiff.Load(flag.Arg(0))
	if err != nil {
		fail(err)
	}
	cur, err := benchdiff.Load(flag.Arg(1))
	if err != nil {
		fail(err)
	}
	fmt.Printf("benchdiff: %s (%s) -> %s (%s)\n", flag.Arg(0), old.Commit, flag.Arg(1), cur.Commit)
	fmt.Print(benchdiff.DiffTable(old, cur))
	violations := benchdiff.Gate(old, cur)
	for _, v := range violations {
		fmt.Fprintln(os.Stderr, "benchdiff: FAIL:", v)
	}
	if len(violations) == 0 {
		fmt.Println("benchdiff: gate OK")
	} else if *gate {
		os.Exit(1)
	}
}

// runMarkdown renders the trajectory table from label=file arguments,
// oldest first.
func runMarkdown(argv []string) {
	if len(argv) == 0 {
		fail(fmt.Errorf("-markdown needs at least one label=FILE.json argument"))
	}
	labels := make([]string, 0, len(argv))
	files := make([]*benchdiff.File, 0, len(argv))
	for _, arg := range argv {
		label, path, ok := strings.Cut(arg, "=")
		if !ok {
			fail(fmt.Errorf("argument %q is not label=FILE.json", arg))
		}
		f, err := benchdiff.Load(path)
		if err != nil {
			fail(err)
		}
		labels = append(labels, label)
		files = append(files, f)
	}
	fmt.Print(benchdiff.MarkdownTrajectory(labels, files))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(1)
}
