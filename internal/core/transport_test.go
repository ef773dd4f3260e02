package core

import (
	"strings"
	"testing"
	"time"

	"acic/internal/gen"
	"acic/internal/graph"
	"acic/internal/netsim"
)

// tcpTopo is the transport tests' machine: 4 processes of 2 PEs each, so
// most traffic crosses a real loopback TCP connection.
func tcpTopo() netsim.Topology {
	return netsim.Topology{Nodes: 1, ProcsPerNode: 4, PEsPerProc: 2}
}

// TestTransportTCPMatchesDijkstra runs ACIC over real sockets and holds it
// to the same oracle as every simulated run, plus the transport-specific
// ledger: the conservation identity closes with the boundary columns in
// place, and the mesh's out/in boundary counters agree exactly.
func TestTransportTCPMatchesDijkstra(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"rmat": gen.RMAT(10, 8, gen.DefaultRMAT(), gen.Config{Seed: 7}),
		"grid": gen.Grid(24, 24, gen.Config{Seed: 3}),
	}
	for name, g := range graphs {
		g := g
		t.Run(name, func(t *testing.T) {
			res := runAndVerify(t, g, 0, Options{Topo: tcpTopo(), Transport: TransportTCP})
			a := res.Stats.Audit
			if un := a.Unaccounted(); un != 0 {
				t.Errorf("conservation ledger unbalanced: %d unaccounted\n%+v", un, a)
			}
			if a.NetQueue != 0 {
				t.Errorf("fabric not drained: %d frames queued", a.NetQueue)
			}
			if a.BoundaryOut != a.BoundaryIn {
				t.Errorf("boundary counters: out %d != in %d", a.BoundaryOut, a.BoundaryIn)
			}
			if a.BoundaryOut == 0 {
				t.Error("no frame crossed a process boundary on a 4-process mesh")
			}
			ts := res.Stats.TramStats
			if ts.PoolGets != ts.PoolPuts {
				t.Errorf("tram pool imbalance across the socket: %d gets, %d puts", ts.PoolGets, ts.PoolPuts)
			}
		})
	}
}

// TestTransportTCPSingleProcess keeps everything in one process: the mesh
// exists but no frame should ever hit a socket.
func TestTransportTCPSingleProcess(t *testing.T) {
	g := gen.Grid(12, 12, gen.Config{Seed: 1})
	topo := netsim.Topology{Nodes: 1, ProcsPerNode: 1, PEsPerProc: 4}
	res := runAndVerify(t, g, 0, Options{Topo: topo, Transport: TransportTCP})
	a := res.Stats.Audit
	if a.BoundaryOut != 0 || a.BoundaryIn != 0 {
		t.Errorf("single-process run crossed a boundary: out %d in %d", a.BoundaryOut, a.BoundaryIn)
	}
	if un := a.Unaccounted(); un != 0 {
		t.Errorf("conservation ledger unbalanced: %d unaccounted", un)
	}
}

// TestTransportTCPRepeatedRunsShareScratch reruns over fresh meshes with
// one Scratch, the query-engine usage pattern.
func TestTransportTCPRepeatedRunsShareScratch(t *testing.T) {
	g := gen.Grid(16, 16, gen.Config{Seed: 5})
	sc := &Scratch{}
	for i := 0; i < 3; i++ {
		src := (i * 37) % g.NumVertices()
		runAndVerify(t, g, src, Options{Topo: tcpTopo(), Transport: TransportTCP, Scratch: sc})
	}
}

// TestTransportTCPRejectsSimKnobs pins the contract that the simulation-
// only options fail loudly instead of being silently ignored.
func TestTransportTCPRejectsSimKnobs(t *testing.T) {
	g := gen.Path(8)
	cases := map[string]Options{
		"latency": {Transport: TransportTCP, Latency: netsim.DefaultLatency()},
		"jitter":  {Transport: TransportTCP, Jitter: func(src, dst, size int, base time.Duration) time.Duration { return base }},
		"fault":   {Transport: TransportTCP, Fault: netsim.FaultPlan{Drop: func(src, dst, size int) bool { return false }}},
	}
	for name, opts := range cases {
		opts := opts
		t.Run(name, func(t *testing.T) {
			if _, err := Run(g, 0, opts); err == nil || !strings.Contains(err.Error(), "TransportTCP") {
				t.Errorf("want a TransportTCP rejection, got %v", err)
			}
		})
	}
}
