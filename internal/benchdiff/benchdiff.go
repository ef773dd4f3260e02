// Package benchdiff loads the BENCH_N.json records written by
// scripts/bench.sh, diffs two of them, and applies the CI regression gate.
// cmd/benchdiff is the thin CLI over this package; keeping the logic here
// makes the gate rules unit-testable.
package benchdiff

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// File is one bench.sh output (see scripts/bench.sh for the writer).
type File struct {
	Go                   string  `json:"go"`
	Commit               string  `json:"commit"`
	RunsPerBench         int     `json:"runs_per_bench"`
	VarianceThresholdPct float64 `json:"variance_threshold_pct"`
	Benchmarks           []Entry `json:"benchmarks"`
}

// Entry is one benchmark's aggregated result.
type Entry struct {
	Name        string    `json:"name"`
	RunsNsPerOp []float64 `json:"runs_ns_per_op"`
	MeanNsPerOp float64   `json:"mean_ns_per_op"`
	SpreadPct   float64   `json:"spread_pct"`
	BytesPerOp  int64     `json:"bytes_per_op"`
	AllocsPerOp int64     `json:"allocs_per_op"`
	Flagged     bool      `json:"flagged"`
}

// Load reads and validates one record.
func Load(path string) (*File, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks", path)
	}
	return &f, nil
}

func (f *File) entry(name string) *Entry {
	for i := range f.Benchmarks {
		if f.Benchmarks[i].Name == name {
			return &f.Benchmarks[i]
		}
	}
	return nil
}

// Delta is one benchmark's old-vs-new comparison. Old is nil for a
// benchmark that only exists in the new record.
type Delta struct {
	Name     string
	Old, New *Entry
	// NsPct is the relative ns/op change in percent (+ is slower);
	// meaningless when Old is nil.
	NsPct float64
}

// Diff pairs up the two records' benchmarks in the new record's order.
// Benchmarks that disappeared from the new record are appended with
// New == nil so the caller can surface them.
func Diff(old, cur *File) []Delta {
	var out []Delta
	for i := range cur.Benchmarks {
		n := &cur.Benchmarks[i]
		d := Delta{Name: n.Name, New: n, Old: old.entry(n.Name)}
		if d.Old != nil && d.Old.MeanNsPerOp > 0 {
			d.NsPct = 100 * (n.MeanNsPerOp - d.Old.MeanNsPerOp) / d.Old.MeanNsPerOp
		}
		out = append(out, d)
	}
	for i := range old.Benchmarks {
		o := &old.Benchmarks[i]
		if cur.entry(o.Name) == nil {
			out = append(out, Delta{Name: o.Name, Old: o})
		}
	}
	return out
}

// Gate applies the CI regression rules and returns one message per
// violation (empty means the gate passes):
//
//   - allocs/op: a benchmark whose baseline is allocation-free must stay
//     allocation-free. Allocation counts are deterministic, so this rule
//     ignores the variance flag.
//   - A benchmark present in the baseline but missing from the new record
//     fails (a silently dropped benchmark is how coverage rots).
//
// ns/op is reported by DiffTable but never gated: the baseline was
// recorded in another session, and on a shared host that distance alone
// moves untouched rows by more than any useful threshold.
func Gate(old, cur *File) []string {
	var v []string
	for _, d := range Diff(old, cur) {
		switch {
		case d.New == nil:
			v = append(v, fmt.Sprintf("%s: present in baseline but missing from new record", d.Name))
		case d.Old == nil:
			// New benchmark: nothing to compare against.
		case d.Old.AllocsPerOp == 0 && d.New.AllocsPerOp > 0:
			v = append(v, fmt.Sprintf("%s: allocs/op regressed 0 -> %d (zero-alloc benchmarks must stay zero-alloc)",
				d.Name, d.New.AllocsPerOp))
		}
	}
	return v
}

// DiffTable renders an aligned old-vs-new comparison.
func DiffTable(old, cur *File) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-34s %14s %14s %8s %10s %10s\n",
		"benchmark", "old ns/op", "new ns/op", "Δ%", "allocs", "flags")
	for _, d := range Diff(old, cur) {
		switch {
		case d.New == nil:
			fmt.Fprintf(&b, "%-34s %14s %14s %8s %10s %10s\n",
				d.Name, fmtNs(d.Old.MeanNsPerOp), "-", "-", "-", "removed")
		case d.Old == nil:
			fmt.Fprintf(&b, "%-34s %14s %14s %8s %10s %10s\n",
				d.Name, "-", fmtNs(d.New.MeanNsPerOp), "-",
				fmt.Sprintf("%d", d.New.AllocsPerOp), flags("", d.New))
		default:
			fmt.Fprintf(&b, "%-34s %14s %14s %7.1f%% %10s %10s\n",
				d.Name, fmtNs(d.Old.MeanNsPerOp), fmtNs(d.New.MeanNsPerOp), d.NsPct,
				fmt.Sprintf("%d->%d", d.Old.AllocsPerOp, d.New.AllocsPerOp),
				flags(flags("", d.Old)+"/", d.New))
		}
	}
	return b.String()
}

func flags(prefix string, e *Entry) string {
	if e.Flagged {
		return prefix + "noisy"
	}
	if prefix == "" {
		return "ok"
	}
	return prefix + "ok"
}

func fmtNs(ns float64) string {
	switch {
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.2fµs", ns/1e3)
	default:
		return fmt.Sprintf("%.2fns", ns)
	}
}

// MarkdownTrajectory renders the perf history across an ordered series of
// records (e.g. seed -> PR 1 -> PR 6) as a Markdown table, one row per
// benchmark, one ns/op + allocs/op column pair per record. Benchmarks are
// ordered as in the newest record; a benchmark absent from an older
// record shows "-". Noisy (variance-flagged) numbers are marked with †.
func MarkdownTrajectory(labels []string, files []*File) string {
	if len(labels) != len(files) {
		panic("benchdiff: labels/files length mismatch")
	}
	var b strings.Builder
	b.WriteString("| benchmark |")
	for _, l := range labels {
		fmt.Fprintf(&b, " %s ns/op | allocs/op |", l)
	}
	b.WriteString("\n|---|")
	for range labels {
		b.WriteString("---|---|")
	}
	b.WriteString("\n")
	newest := files[len(files)-1]
	for _, e := range newest.Benchmarks {
		fmt.Fprintf(&b, "| %s |", e.Name)
		for _, f := range files {
			if fe := f.entry(e.Name); fe != nil {
				mark := ""
				if fe.Flagged {
					mark = "†"
				}
				fmt.Fprintf(&b, " %s%s | %d |", fmtNs(fe.MeanNsPerOp), mark, fe.AllocsPerOp)
			} else {
				b.WriteString(" - | - |")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}
