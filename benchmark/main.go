// Command benchmark is the repository's end-to-end benchmark: six workloads
// over the solver (core.Run) and the query daemon (engine behind net/http),
// every answer checked against seq.Dijkstra, and a traced pass that
// attributes time to layers from outside them. BENCHMARK.json at the root
// declares what it measures; README.md here defines every number.
//
//	bash benchmark/run.sh --workload solve-small --seed 1 --seconds 12 --trace 0
//	bash benchmark/run.sh                  # every workload, both passes
//	bash benchmark/run.sh -aa              # every workload twice, differences beside bounds
//
// Each pass prints its metrics by name with unit and sample count, then one
// JSON object: the contract's last line.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 12

func main() {
	var (
		name    = flag.String("workload", "all", "workload name, or all")
		seed    = flag.Uint64("seed", 1, "seed of every generated input: graph, sources, op schedule, mutation stream")
		seconds = flag.Float64("seconds", defaultSeconds, "measuring time per pass")
		trace   = flag.Int("trace", -1, "0: end-to-end pass, tracing off; 1: traced pass with layer probes; -1: both")
		aa      = flag.Bool("aa", false, "run the end-to-end pass twice and fail if any metric differs by more than its bound")
		quick   = flag.Bool("quick", false, "smoke-test sizes: graphs 16x smaller, probe repetitions / 20")
		outDir  = flag.String("out", filepath.Join(".bench_build", "out"), "directory for result and span files")
	)
	flag.Parse()

	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.Name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 || *seconds <= 0 || *trace < -1 || *trace > 1 {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q, or bad -seconds / -trace\n", *name)
		os.Exit(2)
	}

	env := recordEnv(*seed)
	ok := true
	for _, w := range selected {
		cfg := runConfig{seed: *seed, seconds: *seconds, quick: *quick}
		if *aa {
			ok = runAA(w, cfg) && ok
			continue
		}
		for _, traced := range []bool{false, true} {
			if *trace == -1 || traced == (*trace == 1) {
				cfg.traced = traced
				ok = runPass(os.Stdout, w, cfg, env, *outDir) && ok
			}
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// pass runs one pass of w.
func pass(w workload, cfg runConfig) (*outcome, error) {
	if w.serve {
		return runServe(w, cfg)
	}
	return runSolve(w, cfg)
}

// lastLine is the contract's result object.
type lastLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runPass runs one pass, prints its table and last line to w, and writes the
// result (and a traced pass's spans) under outDir. It reports whether the
// pass ran and every answer was correct.
func runPass(out io.Writer, w workload, cfg runConfig, env environment, outDir string) bool {
	began := time.Now()
	o, err := pass(w, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
		return false
	}
	declared, kind := endToEnd, "end_to_end"
	if cfg.traced {
		declared, kind = perLayer, "per_layer"
	}
	fmt.Fprintf(out, "# %s seed=%d seconds=%g trace=%t  (%s; pass took %.1fs)\n", w.Name, cfg.seed, cfg.seconds, cfg.traced, env, time.Since(began).Seconds())
	line := lastLine{Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	complete := true
	for _, d := range declared {
		v, have := o.res.vals[d.Name]
		if !have || math.IsNaN(v.V) || math.IsInf(v.V, 0) {
			fmt.Fprintf(os.Stderr, "benchmark: %s: no value for %s\n", w.Name, d.Name)
			complete = false
			continue
		}
		printMetric(out, d.Name, v, d.Unit, kind)
		line.Metrics[d.Name] = metricValue{v.V, d.Unit}
	}
	for _, name := range o.res.order {
		if unit, reported := o.res.units[name]; reported {
			printMetric(out, name, o.res.vals[name], unit, "reported")
		}
	}
	printMetric(out, "ops_failed_share", value{ratio(float64(o.failed), float64(o.attempted)), o.attempted}, "share", "reported")
	line.Correct = complete && o.failed == 0 && o.attempted > 0

	if err := writeOut(outDir, w, cfg, env, o, line); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: writing results: %v\n", w.Name, err)
	}
	buf, _ := json.Marshal(line)
	fmt.Fprintf(out, "%s\n", buf)
	return line.Correct
}

func printMetric(out io.Writer, name string, v value, unit, kind string) {
	fmt.Fprintf(out, "%-38s %16.6g %-6s n=%-7d %s\n", name, v.V, unit, v.N, kind)
}

// runAA runs w's end-to-end pass twice on the same seed and prints, per
// metric, how far the second run sits from the first beside the metric's
// bound. It reports whether both passes were correct and every difference
// stayed inside its bound.
func runAA(w workload, cfg runConfig) bool {
	var runs [2]*outcome
	for i := range runs {
		o, err := pass(w, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
			return false
		}
		runs[i] = o
	}
	ok := runs[0].failed == 0 && runs[1].failed == 0
	fmt.Printf("# A/A %s seed=%d seconds=%g failed=%d,%d\n", w.Name, cfg.seed, cfg.seconds, runs[0].failed, runs[1].failed)
	for _, d := range endToEnd {
		a, b := runs[0].res.vals[d.Name].V, runs[1].res.vals[d.Name].V
		diff := ratio(b-a, a)
		verdict := "ok"
		if math.Abs(diff) > d.Bound {
			verdict, ok = "DISAGREE", false
		}
		fmt.Printf("%-38s %14.6g %14.6g %-6s diff %+7.2f%%  bound %4.0f%%  %s\n", d.Name, a, b, d.Unit, 100*diff, 100*d.Bound, verdict)
	}
	return ok
}

// environment is what a result must carry for a change of session to show
// instead of silently re-basing the numbers.
type environment struct {
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Kernel     string  `json:"kernel"`
	BinarySHA  string  `json:"binary_sha256"`
	Seed       uint64  `json:"seed"`
	Sleep50US  float64 `json:"host_sleep_50us_us"`
}

func (e environment) String() string {
	return fmt.Sprintf("%s commit=%s nproc=%d gomaxprocs=%d kernel=%s binary=%.12s sleep50us=%.0fus",
		e.GoVersion, e.Commit, e.NumCPU, e.GOMAXPROCS, e.Kernel, e.BinarySHA, e.Sleep50US)
}

func recordEnv(seed uint64) environment {
	e := environment{
		GoVersion:  runtime.Version(),
		Commit:     "unknown", // a checkout that is not a git repository has none
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     "unknown",
		BinarySHA:  "unknown",
		Seed:       seed,
		// What one 50us sleep really costs here: the control plane's pacing
		// makes every solve a multiple of it.
		Sleep50US: median(perCall(25, func() { time.Sleep(pace) })) / 1e3,
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	var uts syscall.Utsname
	if err := syscall.Uname(&uts); err == nil {
		var release []byte
		for _, c := range uts.Release {
			if c == 0 {
				break
			}
			release = append(release, byte(c))
		}
		e.Kernel = string(release)
	}
	// os.Args[0] is the binary run.sh built and exec'd, inside the checkout.
	if f, err := os.Open(os.Args[0]); err == nil {
		h := sha256.New()
		if _, err := io.Copy(h, f); err == nil {
			e.BinarySHA = hex.EncodeToString(h.Sum(nil))
		}
		f.Close()
	}
	return e
}

// writeOut writes the pass's result file, and a traced pass's spans, once,
// after everything was measured.
func writeOut(dir string, w workload, cfg runConfig, env environment, o *outcome, line lastLine) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type named struct {
		Name  string  `json:"name"`
		Value float64 `json:"value"`
		Unit  string  `json:"unit,omitempty"`
		N     int     `json:"samples"`
	}
	result := struct {
		Workload    string      `json:"workload"`
		Seconds     float64     `json:"seconds"`
		Traced      bool        `json:"traced"`
		Quick       bool        `json:"quick"`
		Environment environment `json:"environment"`
		Result      lastLine    `json:"result"`
		All         []named     `json:"all"`
		SelfTimes   []selfTime  `json:"self_times,omitempty"`
	}{Workload: w.Name, Seconds: cfg.seconds, Traced: cfg.traced, Quick: cfg.quick, Environment: env, Result: line}
	for _, name := range o.res.order {
		v := o.res.vals[name]
		unit := o.res.units[name]
		if m, declared := line.Metrics[name]; declared {
			unit = m.Unit
		}
		result.All = append(result.All, named{name, v.V, unit, v.N})
	}
	trace := 0
	if cfg.traced {
		trace = 1
		result.SelfTimes = o.spans.selfTimes()
		if err := writeJSON(filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", w.Name, cfg.seed)), o.spans.spans); err != nil {
			return err
		}
	}
	return writeJSON(filepath.Join(dir, fmt.Sprintf("result-%s-seed%d-trace%d.json", w.Name, cfg.seed, trace)), result)
}

func writeJSON(path string, v any) error {
	buf, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
