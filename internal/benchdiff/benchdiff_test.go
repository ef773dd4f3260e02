package benchdiff

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func mk(entries ...Entry) *File {
	return &File{Go: "go1.x", Commit: "abc", RunsPerBench: 3, VarianceThresholdPct: 10, Benchmarks: entries}
}

func e(name string, ns float64, allocs int64, flagged bool) Entry {
	return Entry{Name: name, MeanNsPerOp: ns, RunsNsPerOp: []float64{ns}, AllocsPerOp: allocs, Flagged: flagged}
}

func TestDiffPairsAndOrders(t *testing.T) {
	old := mk(e("A", 100, 0, false), e("Gone", 50, 1, false))
	cur := mk(e("B", 10, 2, false), e("A", 120, 0, false))
	ds := Diff(old, cur)
	if len(ds) != 3 {
		t.Fatalf("got %d deltas, want 3", len(ds))
	}
	if ds[0].Name != "B" || ds[0].Old != nil {
		t.Errorf("delta 0 = %+v, want new-only B", ds[0])
	}
	if ds[1].Name != "A" || ds[1].NsPct != 20 {
		t.Errorf("delta 1 = %+v, want A at +20%%", ds[1])
	}
	if ds[2].Name != "Gone" || ds[2].New != nil {
		t.Errorf("delta 2 = %+v, want removed Gone", ds[2])
	}
}

func TestGatePassesHealthyRecord(t *testing.T) {
	old := mk(e("Hot", 100, 5, false), e("Zero", 40, 0, false))
	cur := mk(e("Hot", 109, 4, false), e("Zero", 43, 0, false))
	if v := Gate(old, cur); len(v) != 0 {
		t.Errorf("gate flagged a healthy record: %v", v)
	}
}

// TestGateReportsSlowdownWithoutFailing pins ns/op as reported-only: a
// cross-session slowdown shows in the table but is not a violation.
func TestGateReportsSlowdownWithoutFailing(t *testing.T) {
	old := mk(e("Hot", 100, 5, false))
	cur := mk(e("Hot", 150, 5, false))
	if v := Gate(old, cur); len(v) != 0 {
		t.Errorf("gate = %v, want no violation for an ns/op slowdown", v)
	}
	if out := DiffTable(old, cur); !strings.Contains(out, "50.0%") {
		t.Errorf("DiffTable does not report the slowdown:\n%s", out)
	}
}

func TestGateChecksAllocsOnNoisyRows(t *testing.T) {
	old := mk(e("Noisy", 100, 0, true))
	cur := mk(e("Noisy", 200, 3, false))
	v := Gate(old, cur)
	if len(v) != 1 || !strings.Contains(v[0], "allocs/op regressed 0 -> 3") {
		t.Errorf("gate = %v, want the allocs violation despite the noisy baseline", v)
	}
}

func TestGateFailsOnZeroAllocRegression(t *testing.T) {
	old := mk(e("Zero", 40, 0, false))
	cur := mk(e("Zero", 40, 1, false))
	v := Gate(old, cur)
	if len(v) != 1 || !strings.Contains(v[0], "zero-alloc") {
		t.Errorf("gate = %v, want zero-alloc violation", v)
	}
}

func TestGateFailsOnMissingBenchmark(t *testing.T) {
	old := mk(e("Kept", 10, 0, false), e("Dropped", 10, 0, false))
	cur := mk(e("Kept", 10, 0, false))
	v := Gate(old, cur)
	if len(v) != 1 || !strings.Contains(v[0], "missing") {
		t.Errorf("gate = %v, want missing-benchmark violation", v)
	}
}

func TestGateIgnoresNewBenchmarks(t *testing.T) {
	old := mk(e("A", 10, 0, false))
	cur := mk(e("A", 10, 0, false), e("Fresh", 999, 42, false))
	if v := Gate(old, cur); len(v) != 0 {
		t.Errorf("gate = %v, want pass (new benchmark has no baseline)", v)
	}
}

func TestLoadRoundTrip(t *testing.T) {
	f := mk(e("A", 12345, 7, false))
	raw, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Benchmarks[0].Name != "A" || got.Benchmarks[0].AllocsPerOp != 7 {
		t.Errorf("round trip lost data: %+v", got.Benchmarks[0])
	}
	if _, err := Load(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Error("Load of missing file did not error")
	}
}

func TestLoadRejectsEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.json")
	if err := os.WriteFile(path, []byte(`{"benchmarks":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Error("Load of empty record did not error")
	}
}

func TestDiffTableRendersAllCases(t *testing.T) {
	old := mk(e("Same", 100, 1, false), e("Gone", 5e6, 0, false))
	cur := mk(e("Same", 90, 1, true), e("New", 2e3, 0, false))
	out := DiffTable(old, cur)
	for _, want := range []string{"Same", "Gone", "New", "removed", "noisy", "5.00ms", "2.00µs", "-10.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("DiffTable missing %q in:\n%s", want, out)
		}
	}
}

func TestMarkdownTrajectory(t *testing.T) {
	seed := mk(e("Hot", 1e8, 9000, false))
	pr1 := mk(e("Hot", 8e7, 7000, true))
	now := mk(e("Hot", 5e7, 1800, false), e("Fresh", 50, 0, false))
	out := MarkdownTrajectory([]string{"seed", "PR 1", "PR 6"}, []*File{seed, pr1, now})
	for _, want := range []string{
		"| benchmark |", "seed ns/op", "PR 6 ns/op",
		"| Hot | 100.00ms | 9000 | 80.00ms† | 7000 | 50.00ms | 1800 |",
		"| Fresh | - | - | - | - | 50.00ns | 0 |",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trajectory missing %q in:\n%s", want, out)
		}
	}
}
