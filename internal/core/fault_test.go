package core

// Delivery-semantics tests for the full algorithm over a hostile fabric.
// They pin two facts about ACIC's messaging assumptions:
//
//   - Reordering alone is harmless: edge relaxations are order-insensitive
//     (the dist(v) <= d dead-update guard rejects stale arrivals) and the
//     control plane is causally serialized — a PE contributes to epoch e+1
//     only after receiving broadcast e, so at most one control message is
//     ever in flight per tree edge.
//   - Message loss hangs loudly — the quiescence counters stay unequal
//     forever — never silently corrupts distances (the runtime's
//     drop-hangs contract, at the algorithm level).

import (
	"sync/atomic"
	"testing"
	"time"

	"acic/internal/gen"
	"acic/internal/graph"
	"acic/internal/netsim"
)

func TestReorderFaultAloneOracleCorrect(t *testing.T) {
	g := gen.Uniform(400, 1600, gen.Config{Seed: 11, MaxWeight: 100})
	var n atomic.Int64
	opts := Options{
		Topo: netsim.SingleNode(4),
		Fault: netsim.FaultPlan{
			Reorder: func(src, dst, size int) (time.Duration, bool) {
				return 300 * time.Microsecond, n.Add(1)%9 == 0
			},
		},
	}
	res := runAndVerify(t, g, 0, opts)
	if res.Stats.Network.Reordered == 0 {
		t.Error("Reordered = 0: the filter never fired, nothing was stressed")
	}
	if u := res.Stats.Audit.Unaccounted(); u != 0 {
		t.Errorf("Unaccounted = %d, want 0; ledger: %+v", u, res.Stats.Audit)
	}
}

func TestDropFaultHangsLoudlyWithoutReliability(t *testing.T) {
	g := gen.Uniform(200, 800, gen.Config{Seed: 12, MaxWeight: 100})
	var n atomic.Int64
	opts := Options{
		Topo: netsim.SingleNode(4),
		Fault: netsim.FaultPlan{
			Drop: func(src, dst, size int) bool { return n.Add(1)%6 == 0 },
		},
	}
	done := make(chan struct{})
	go func() {
		Run(g, 0, opts) // abandoned on hang; the goroutine leak is the point
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("run terminated despite dropped messages — quiescence fired on unequal counters")
	case <-time.After(1500 * time.Millisecond):
		// Hung, as the bare runtime's at-most-once contract demands.
	}
}

// TestReorderFaultOracleCorrectAcrossShapes carries the reorder contract
// past the one graph and machine above: over every latency tier a machine
// can have and over graph shapes with very different relaxation patterns
// (hubs, long chains, wide frontiers), a fabric that holds every 7th
// message back past later traffic still yields Dijkstra's distances with a
// balanced ledger.
func TestReorderFaultOracleCorrectAcrossShapes(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		topo netsim.Topology
	}{
		{"uniform/two-nodes", gen.Uniform(300, 1200, gen.Config{Seed: 21, MaxWeight: 100}), netsim.Topology{Nodes: 2, ProcsPerNode: 2, PEsPerProc: 2}},
		{"rmat/four-processes", gen.RMAT(8, 8, gen.DefaultRMAT(), gen.Config{Seed: 22, MaxWeight: 100}), netsim.Topology{Nodes: 1, ProcsPerNode: 4, PEsPerProc: 2}},
		{"grid/single8", gen.Grid(16, 16, gen.Config{Seed: 23, MaxWeight: 100}), netsim.SingleNode(8)},
		{"star/single4", gen.Star(300), netsim.SingleNode(4)},
		{"path/single4", gen.Path(120), netsim.SingleNode(4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var n atomic.Int64
			opts := Options{
				Topo:    tc.topo,
				Latency: netsim.DefaultLatency(),
				Fault: netsim.FaultPlan{
					Reorder: func(src, dst, size int) (time.Duration, bool) {
						return 300 * time.Microsecond, n.Add(1)%7 == 0
					},
				},
			}
			res := runAndVerify(t, tc.g, 0, opts)
			if res.Stats.Network.Reordered == 0 {
				t.Error("Reordered = 0: the filter never fired, nothing was stressed")
			}
			if u := res.Stats.Audit.Unaccounted(); u != 0 {
				t.Errorf("Unaccounted = %d, want 0; ledger: %+v", u, res.Stats.Audit)
			}
		})
	}
}
