package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

// drawOps returns the first n ops of every client's stream.
func drawOps(w workload, seed uint64, n int) [][]op {
	g := w.makeGraph(seed, true)
	var out [][]op
	for _, gen := range newOpGens(w, g, pickSources(g.NumVertices(), seed), seed) {
		ops := make([]op, n)
		for i := range ops {
			ops[i] = gen.next()
		}
		out = append(out, ops)
	}
	return out
}

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	churn := workloads[len(workloads)-1]
	if churn.writes == 0 {
		t.Fatalf("%s is expected to be the write workload", churn.Name)
	}
	a, again, other := drawOps(churn, 1, 400), drawOps(churn, 1, 400), drawOps(churn, 2, 400)
	if !reflect.DeepEqual(a, again) {
		t.Error("the same seed drew two different op schedules")
	}
	if reflect.DeepEqual(a, other) {
		t.Error("seeds 1 and 2 drew the same op schedule")
	}
	if reflect.DeepEqual(a[0], a[1]) {
		t.Error("both clients drew the same stream")
	}
	kinds := map[opKind]int{}
	for _, o := range a[0] {
		kinds[o.Kind]++
	}
	for kind := opHot; kind <= opMutate; kind++ {
		if kinds[kind] == 0 {
			t.Errorf("the writer's first 400 ops hold no op of kind %d", kind)
		}
	}
	for _, o := range a[1] {
		if o.Kind == opMutate {
			t.Fatal("a client other than the writer drew a mutation")
		}
	}
	if !reflect.DeepEqual(churn.makeGraph(1, true).Edges(), churn.makeGraph(1, true).Edges()) {
		t.Error("the same seed generated two different graphs")
	}
	if reflect.DeepEqual(churn.makeGraph(1, true).Edges(), churn.makeGraph(2, true).Edges()) {
		t.Error("seeds 1 and 2 generated the same graph")
	}
}

// No percentile is reported with fewer than ten samples beyond it, short of
// falling back to the median.
func TestTailRule(t *testing.T) {
	for n := 0; n <= 400; n++ {
		q := tailQuantile(n)
		beyond := (1 - q) * float64(n)
		switch {
		case q < 0.5 || q > 0.9:
			t.Fatalf("n=%d: percentile %.3f outside [0.5, 0.9]", n, q)
		case n >= 100 && q != 0.9:
			t.Fatalf("n=%d: percentile %.3f, want the 90th", n, q)
		case q > 0.5 && beyond < 10-1e-9:
			t.Fatalf("n=%d: percentile %.3f has only %.1f samples beyond it", n, q, beyond)
		}
	}
	ramp := make([]float64, 101)
	for i := range ramp {
		ramp[i] = float64(i)
	}
	if got := tail(ramp); got != 90 {
		t.Errorf("tail of 0..100 = %v, want 90", got)
	}
	if got := median(ramp[:4]); got != 1.5 {
		t.Errorf("median of 0..3 = %v, want 1.5", got)
	}
}

func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		RunSeconds float64 `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []decl `json:"end_to_end"`
		PerLayer   []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %v, the program's default is %v", file.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(file.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n file    %+v\n program %+v", file.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(file.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n file    %+v\n program %+v", file.PerLayer, perLayer)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the program", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.Name || file.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: file %+v, program %q: %q", i, file.Workloads[i], w.Name, w.Why)
		}
	}
}

// Every workload, both passes, at smoke-test sizes: every answer correct,
// and the last line carries exactly the declared names.
func TestQuickSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name, declared := w.Name+"/end_to_end", endToEnd
			if traced {
				name, declared = w.Name+"/per_layer", perLayer
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				var out bytes.Buffer
				cfg := runConfig{seed: 1, seconds: 0.2, traced: traced, quick: true}
				if !runPass(&out, w, cfg, environment{}, t.TempDir()) {
					t.Errorf("pass failed or answers were wrong:\n%s", out.String())
				}
				lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
				var last lastLine
				if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
					t.Fatalf("last line is not the result object: %v", err)
				}
				if !last.Correct || last.Failed != 0 || last.Attempted < 1 {
					t.Errorf("correct=%t attempted=%d failed=%d", last.Correct, last.Attempted, last.Failed)
				}
				var got, want []string
				for name := range last.Metrics {
					got = append(got, name)
				}
				for _, d := range declared {
					want = append(want, d.Name)
				}
				sort.Strings(got)
				sort.Strings(want)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("printed names differ from the declared ones:\n got  %v\n want %v", got, want)
				}
			})
		}
	}
}
