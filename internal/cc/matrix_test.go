package cc

import (
	"fmt"
	"testing"
	"time"

	"acic/internal/gen"
	"acic/internal/graph"
	"acic/internal/netsim"
	"acic/internal/simclock"
	"acic/internal/tram"
)

// runAndAudit is runAndVerify plus the bookkeeping every terminated run must
// satisfy: the quiescence counters agree, the runtime's conservation ledger
// balances, the last cycle saw no label change, every accepted label update
// was reported to exactly one reduction, and Components counts the oracle's
// components.
func runAndAudit(t *testing.T, g *graph.Graph, opts Options) *Result {
	t.Helper()
	res := runAndVerify(t, g, opts)
	s := res.Stats
	if s.UpdatesCreated != s.UpdatesProcessed {
		t.Errorf("not quiescent: created %d != processed %d", s.UpdatesCreated, s.UpdatesProcessed)
	}
	if u := s.Audit.Unaccounted(); u != 0 || s.Audit.NetQueue != 0 {
		t.Errorf("ledger: unaccounted %d, NetQueue %d, want 0 and 0", u, s.Audit.NetQueue)
	}
	if int64(len(s.ChangeTrace)) != s.Reductions {
		t.Errorf("change trace has %d cycles, Reductions = %d", len(s.ChangeTrace), s.Reductions)
	}
	if n := len(s.ChangeTrace); n == 0 || s.ChangeTrace[n-1] != 0 {
		t.Errorf("change trace %v does not end at zero", s.ChangeTrace)
	}
	// Every vertex starts as one created frontier entry; every other
	// created update is a label offer that was either rejected or accepted,
	// and each acceptance is one label change.
	var reported int64
	for _, c := range s.ChangeTrace {
		reported += c
	}
	if accepted := s.UpdatesCreated - int64(g.NumVertices()) - s.Rejected; reported != accepted {
		t.Errorf("reductions reported %d label changes, %d offers were accepted", reported, accepted)
	}
	components := make(map[int32]struct{})
	for _, l := range SequentialCC(g) {
		components[l] = struct{}{}
	}
	if s.Components != len(components) {
		t.Errorf("Components = %d, oracle has %d", s.Components, len(components))
	}
	return res
}

func TestFixtures(t *testing.T) {
	var reversed []graph.Edge
	for v := int32(1); v < 100; v++ {
		reversed = append(reversed, graph.Edge{From: v, To: v - 1, Weight: 1})
	}
	cases := map[string]*graph.Graph{
		"path":          gen.Path(120),
		"reversed-path": graph.MustBuild(100, reversed),
		"star":          gen.Star(120),
		"cycle":         gen.Cycle(70),
		"grid":          gen.Grid(9, 9, gen.Config{Seed: 1}),
		"complete":      gen.Complete(20, gen.Config{Seed: 2}),
		"singleton":     graph.MustBuild(1, nil),
		"isolated":      graph.MustBuild(9, nil),
		"forest": graph.MustBuild(10, []graph.Edge{
			{From: 9, To: 4, Weight: 1}, {From: 4, To: 7, Weight: 1},
			{From: 1, To: 2, Weight: 1}, {From: 6, To: 5, Weight: 1},
		}),
	}
	for name, g := range cases {
		g := g
		t.Run(name, func(t *testing.T) {
			runAndAudit(t, g, Options{Topo: netsim.SingleNode(4)})
		})
	}
}

// TestAllTramModes runs every aggregation mode on one node and across
// nodes, where WP and PP batches are demultiplexed to sibling PEs.
func TestAllTramModes(t *testing.T) {
	g := gen.ErdosRenyi(600, 900, gen.Config{Seed: 6})
	topos := map[string]netsim.Topology{
		"single-node": netsim.SingleNode(6),
		"multi-node":  {Nodes: 2, ProcsPerNode: 2, PEsPerProc: 2},
	}
	for _, mode := range []tram.Mode{tram.WW, tram.WP, tram.PW, tram.PP} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			for name, topo := range topos {
				topo := topo
				t.Run(name, func(t *testing.T) {
					p := DefaultParams()
					p.TramMode = mode
					runAndAudit(t, g, Options{Topo: topo, Params: p})
				})
			}
		})
	}
}

// TestTramCapacities covers both ends of aggregation. Capacity 1 ships
// every offer at once; a capacity no buffer reaches leaves the broadcast's
// flush as the only way an offer leaves its PE, so the run terminates only
// if that flush keeps the cycle and the propagation moving.
func TestTramCapacities(t *testing.T) {
	g := gen.ErdosRenyi(600, 1200, gen.Config{Seed: 7})
	for _, capacity := range []int{1, 2, 31, 4096} {
		capacity := capacity
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			p := DefaultParams()
			p.TramCapacity = capacity
			res := runAndAudit(t, g, Options{Topo: netsim.SingleNode(4), Params: p})
			ts := res.Stats.TramStats
			if capacity == 1 && ts.ManualFlushes != 0 {
				t.Errorf("capacity 1: %d manual flushes produced a batch, want 0", ts.ManualFlushes)
			}
			if capacity == 4096 && (ts.AutoFlushes != 0 || ts.ManualFlushes == 0) {
				t.Errorf("capacity 4096: auto/manual flushes %d/%d, want 0 and > 0",
					ts.AutoFlushes, ts.ManualFlushes)
			}
		})
	}
}

// TestTopologies varies the PE count and the machine's shape, including
// more PEs than vertices: a PE that owns nothing has an empty frontier from
// the start and pays every contribution at once.
func TestTopologies(t *testing.T) {
	g := gen.ErdosRenyi(500, 800, gen.Config{Seed: 8})
	tiny := gen.Path(8)
	cases := []struct {
		name string
		g    *graph.Graph
		topo netsim.Topology
	}{
		{"1pe", g, netsim.SingleNode(1)},
		{"2pe", g, netsim.SingleNode(2)},
		{"3pe", g, netsim.SingleNode(3)},
		{"7pe", g, netsim.SingleNode(7)},
		{"pes-exceed-vertices", tiny, netsim.SingleNode(12)},
		{"2x1x4", g, netsim.Topology{Nodes: 2, ProcsPerNode: 1, PEsPerProc: 4}},
		{"2x2x2", g, netsim.Topology{Nodes: 2, ProcsPerNode: 2, PEsPerProc: 2}},
		{"3x2x1", g, netsim.Topology{Nodes: 3, ProcsPerNode: 2, PEsPerProc: 1}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			runAndAudit(t, c.g, Options{Topo: c.topo})
		})
	}
}

// TestFakeClockTerminates runs whole graphs on a clock that never advances:
// every cycle is paced by work or by an empty frontier, never by time.
func TestFakeClockTerminates(t *testing.T) {
	cases := map[string]*graph.Graph{
		"erdos-renyi": gen.ErdosRenyi(800, 1200, gen.Config{Seed: 9}),
		"rmat":        gen.RMAT(9, 4, gen.DefaultRMAT(), gen.Config{Seed: 10}),
		"grid":        gen.Grid(12, 12, gen.Config{Seed: 11}),
		"path":        gen.Path(300),
		"star":        gen.Star(300),
	}
	for name, g := range cases {
		g := g
		t.Run(name, func(t *testing.T) {
			res := runAndAudit(t, g, Options{
				Topo:  netsim.SingleNode(4),
				Clock: simclock.NewFake(time.Unix(0, 0)),
			})
			if res.Stats.Elapsed != 0 {
				t.Errorf("Elapsed = %v on a clock that never advances", res.Stats.Elapsed)
			}
		})
	}
}

// skew is deterministic per-message jitter: it reorders deliveries across
// PE pairs (the fabric keeps each pair FIFO) differently for each seed.
func skew(seed uint64) netsim.JitterFunc {
	return func(src, dst, size int, base time.Duration) time.Duration {
		h := seed*0x9e3779b97f4a7c15 ^ uint64(src)<<40 ^ uint64(dst)<<20 ^ uint64(size)
		h ^= h >> 29
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 32
		return base + time.Duration(h%8)*time.Microsecond
	}
}

func TestJitter(t *testing.T) {
	g := gen.ErdosRenyi(500, 900, gen.Config{Seed: 12})
	for seed := uint64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			runAndAudit(t, g, Options{
				Topo:    netsim.Topology{Nodes: 2, ProcsPerNode: 2, PEsPerProc: 2},
				Latency: netsim.LatencyModel{IntraProcess: time.Microsecond, InterNode: 4 * time.Microsecond},
				Jitter:  skew(seed),
			})
		})
	}
}
