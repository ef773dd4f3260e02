package main

import (
	"math"
	"sort"
)

// decl declares one metric of BENCHMARK.json. The two lists below are the
// source of truth for names, units and bounds; bench_test.go checks that
// BENCHMARK.json says the same.
type decl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the numbers a caller of the solver or a client of the daemon
// feels. Every workload reports every one: on solve-* an op is one core.Run
// call, on serve-* one HTTP request, and "solve" is the op class that runs
// the ACIC machine (every op on solve-*, the /sssp cache misses on serve-*).
// The bounds come from the A/A spreads in README.md: this host replays the
// same binary and seed 10-15% apart within minutes, so every timing takes
// the contract's cap; only the allocation count is steadier.
var endToEnd = []decl{
	{"setup_s", "s", "lower", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"solve_ms_p50", "ms", "lower", 0.25},
	{"solve_ms_p90", "ms", "lower", 0.25},
	{"solve_mteps", "Mteps", "higher", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"allocs_per_op", "count", "lower", 0.20},
}

// perLayer are the single-layer numbers of the traced pass. In-situ metrics
// come from the traced workload itself (solver counters on serve-* from the
// ?metrics=1 snapshots of its misses); isolated metrics from probes.go.
// In-situ metrics of a layer the workload does not reach read 0; they carry
// no time unit, so that no time reads the same on every run.
var perLayer = []decl{
	// core, in-situ
	{Name: "core.reductions", Unit: "count", Better: "lower"},
	{Name: "core.reduction_period_us", Unit: "us", Better: "lower"},
	{Name: "core.control_floor_share", Unit: "share", Better: "lower"},
	{Name: "core.quiescence_tail_share", Unit: "share", Better: "lower"},
	{Name: "core.build_ms", Unit: "ms", Better: "lower"},
	{Name: "core.updates_created", Unit: "count", Better: "lower"},
	{Name: "core.useful_update_ratio", Unit: "share", Better: "higher"},
	{Name: "core.relaxations_per_s", Unit: "1/s", Better: "higher"},
	{Name: "core.hold_parked", Unit: "count", Better: "lower"},
	// runtime
	{Name: "runtime.blocked_share", Unit: "share", Better: "lower"},
	{Name: "runtime.blocks", Unit: "count", Better: "lower"},
	{Name: "runtime.app_delivered", Unit: "count", Better: "lower"},
	{Name: "runtime.reduce_cycle_us", Unit: "us", Better: "lower"},
	{Name: "runtime.paced_cycle_us", Unit: "us", Better: "lower"},
	{Name: "runtime.startstop_us", Unit: "us", Better: "lower"},
	{Name: "runtime.pingpong_us", Unit: "us", Better: "lower"},
	{Name: "host.sleep_50us_us", Unit: "us", Better: "lower"},
	// tram
	{Name: "tram.batches", Unit: "count", Better: "lower"},
	{Name: "tram.items_per_batch", Unit: "count", Better: "higher"},
	{Name: "tram.manual_flush_share", Unit: "share", Better: "lower"},
	{Name: "tram.insert_ns", Unit: "ns", Better: "lower"},
	// pq, graph, seq
	{Name: "pq.pushpop_ns", Unit: "ns", Better: "lower"},
	{Name: "graph.scan_ns_per_edge", Unit: "ns", Better: "lower"},
	{Name: "graph.build_ms", Unit: "ms", Better: "lower"},
	{Name: "seq.dijkstra_ms", Unit: "ms", Better: "lower"},
	{Name: "seq.slowdown_x", Unit: "x", Better: "lower"},
	// netsim
	{Name: "netsim.messages", Unit: "count", Better: "lower"},
	{Name: "netsim.max_queue_depth", Unit: "count", Better: "lower"},
	{Name: "netsim.send_ns", Unit: "ns", Better: "lower"},
	{Name: "netsim.delay_overshoot_us", Unit: "us", Better: "lower"},
	// sockfab, wire
	{Name: "sockfab.boundary_frames", Unit: "count", Better: "lower"},
	{Name: "sockfab.mesh_setup_ms", Unit: "ms", Better: "lower"},
	{Name: "sockfab.rtt_us", Unit: "us", Better: "lower"},
	{Name: "wire.encode_ns_per_item", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns_per_item", Unit: "ns", Better: "lower"},
	// engine, http
	{Name: "engine.hit_share", Unit: "share", Better: "higher"},
	{Name: "engine.unplanned_miss_share", Unit: "share", Better: "lower"},
	{Name: "engine.follows", Unit: "count", Better: "lower"},
	{Name: "engine.shed", Unit: "count", Better: "lower"},
	{Name: "engine.solver_share_of_miss", Unit: "share", Better: "lower"},
	{Name: "engine.path_settled_per_query", Unit: "count", Better: "lower"},
	{Name: "http.transport_share_of_hit", Unit: "share", Better: "lower"},
	{Name: "engine.query_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.handler_hit_us", Unit: "us", Better: "lower"},
	{Name: "http.roundtrip_hit_us", Unit: "us", Better: "lower"},
	{Name: "engine.path_ms", Unit: "ms", Better: "lower"},
	// engine mutate, dynamic
	{Name: "engine.repaired_vectors_per_mutate", Unit: "count", Better: "lower"},
	{Name: "engine.invalidated_labels_per_mutate", Unit: "count", Better: "lower"},
	{Name: "engine.mutate1_ms_v14", Unit: "ms", Better: "lower"},
	{Name: "engine.mutate1_ms_v16", Unit: "ms", Better: "lower"},
	{Name: "engine.mutate_scale_x", Unit: "x", Better: "lower"},
	{Name: "dynamic.apply1_us", Unit: "us", Better: "lower"},
	{Name: "dynamic.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "dynamic.repair1_us", Unit: "us", Better: "lower"},
	// the traced pass itself
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
}

// value is one measured number with the count of samples behind it.
type value struct {
	V float64
	N int
}

// results collects a pass's numbers by name. Declared names go into the
// final JSON line; the rest ("reported-only") are printed and written to
// -out but carry no bound.
type results struct {
	vals  map[string]value
	units map[string]string // units of reported-only names
	order []string
}

func newResults() *results {
	return &results{vals: map[string]value{}, units: map[string]string{}}
}

// set records a declared metric.
func (r *results) set(name string, v float64, n int) {
	if _, seen := r.vals[name]; !seen {
		r.order = append(r.order, name)
	}
	r.vals[name] = value{v, n}
}

// report records a reported-only number.
func (r *results) report(name, unit string, v float64, n int) {
	r.units[name] = unit
	r.set(name, v, n)
}

// quantile returns the q-quantile of samples by linear interpolation
// between order statistics; 0 for no samples. It sorts a copy.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(samples []float64) float64 { return quantile(samples, 0.5) }

// tailQuantile is the percentile a *_p90 metric reports for n samples: the
// 90th when at least ten samples lie beyond it (n >= 100), otherwise the
// highest percentile that still has ten beyond it, and never below the
// median. A run too short for a p90 therefore degrades to an honest lower
// percentile instead of reporting a tail it has not sampled.
func tailQuantile(n int) float64 {
	if n <= 20 {
		return 0.5
	}
	return math.Min(0.9, 1-10/float64(n))
}

func tail(samples []float64) float64 { return quantile(samples, tailQuantile(len(samples))) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
