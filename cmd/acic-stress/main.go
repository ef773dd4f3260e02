// Command acic-stress runs the seeded differential schedule-stress harness
// (internal/stress): every algorithm in the repository, across a matrix of
// topologies, graph families and adversarial jitter profiles, each run
// checked against its sequential oracle and audited for exact message
// conservation. One master seed determines the whole matrix, so any
// counterexample schedule is replayable — a failing run prints the exact
// command that re-executes it alone.
//
// Examples:
//
//	acic-stress -short                 # the CI smoke pass
//	acic-stress -seed 7 -runs 3        # three full passes with seed 7
//	acic-stress -profile burst,reorder # only those jitter profiles
//	acic-stress -fault drop,lossy      # only those fabric fault profiles
//	acic-stress -seed 7 -run 42        # replay run #42 of seed 7's matrix
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"acic/internal/stress"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run parses args, executes the harness, prints the report, and returns
// the process exit code.
func run(args []string, out *os.File) int {
	fs := flag.NewFlagSet("acic-stress", flag.ContinueOnError)
	var (
		seed     = fs.Uint64("seed", 1, "master seed; determines the whole run matrix")
		runs     = fs.Int("runs", 1, "full passes over the algorithm × topology × graph × profile matrix")
		profiles = fs.String("profile", "all", "comma-separated jitter profiles (uniform, stall-tier, reorder, burst) or 'all'")
		faults   = fs.String("fault", "all", "comma-separated fabric fault profiles for the acic fault sub-matrix (reorder), 'all', or 'none' to disable it")
		churn    = fs.String("churn", "on", "dynamic-graph churn sub-matrix: on, off, or only")
		short    = fs.Bool("short", false, "CI smoke mode: shrunken matrix and graphs")
		only     = fs.Int("run", -1, "replay exactly one run index from the matrix")
		timeout  = fs.Duration("timeout", 60*time.Second, "per-run hang watchdog")
		verbose  = fs.Bool("v", false, "log every run, not only failures")
		artDir   = fs.String("artifacts", "", "replay failing acic runs instrumented and dump trace/metrics/audit under DIR/run-N/")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	churnMode, err := stress.ParseChurn(*churn)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	opts := stress.Options{
		Seed:        *seed,
		Rounds:      *runs,
		Churn:       churnMode,
		Short:       *short,
		Timeout:     *timeout,
		Log:         out,
		Verbose:     *verbose,
		ArtifactDir: *artDir,
	}
	if *only >= 0 {
		opts.Only = only
	}
	if *profiles != "all" {
		for _, s := range strings.Split(*profiles, ",") {
			p, err := stress.ParseProfile(strings.TrimSpace(s))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 2
			}
			opts.Profiles = append(opts.Profiles, p)
		}
	}
	if *faults != "all" {
		for _, s := range strings.Split(*faults, ",") {
			f, err := stress.ParseFault(strings.TrimSpace(s))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 2
			}
			opts.Faults = append(opts.Faults, f)
		}
	}
	rep, err := stress.Run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if len(rep.Failures) > 0 {
		fmt.Fprintf(out, "\nstress: %d/%d runs FAILED (seed %d)\n", len(rep.Failures), rep.Total, *seed)
		for _, f := range rep.Failures {
			fmt.Fprintf(out, "  %s\n  replay: go run ./cmd/acic-stress %s -run %d\n",
				f.Spec, replayFlags(*seed, *runs, *profiles, *faults, *churn, *short), f.Spec.Index)
		}
		return 1
	}
	fmt.Fprintf(out, "stress: %d runs ok (seed %d)\n", rep.Total, *seed)
	return 0
}

// replayFlags reconstructs the enumeration-determining flags so the printed
// replay command rebuilds the identical matrix and hits the same run index.
func replayFlags(seed uint64, runs int, profiles, faults, churn string, short bool) string {
	s := fmt.Sprintf("-seed %d -runs %d", seed, runs)
	if profiles != "all" {
		s += " -profile " + profiles
	}
	if faults != "all" {
		s += " -fault " + faults
	}
	if churn != "on" {
		s += " -churn " + churn
	}
	if short {
		s += " -short"
	}
	return s
}
