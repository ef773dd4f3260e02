// Compare example: every algorithm in the repository on the same graphs.
//
//	go run ./examples/compare
//
// Runs ACIC, hybrid Δ-stepping, distributed control and the two sequential
// oracles on a random and an RMAT graph, cross-checks all distance vectors,
// and prints a side-by-side table.
//
// The runs charge no simulated compute time (ComputeCost 0, the library
// default), so only the modeled network separates the algorithms, and on
// that footing the paper's RMAT ordering flips. On a 2-core host ACIC
// leads Δ-stepping on RMAT by roughly 1.4–2× and sits between 0.9× and
// 1.4× of it on the random graph, varying run to run. The paper's
// contrast (ACIC ahead on random, behind on RMAT) needs a per-relaxation
// compute cost: see `sssp-bench -fig 7` at its default 1 µs, recorded in
// EXPERIMENTS.md.
package main

import (
	"fmt"
	"log"
	"time"

	"acic/internal/core"
	"acic/internal/deltastep"
	"acic/internal/distctrl"
	"acic/internal/gen"
	"acic/internal/graph"
	"acic/internal/netsim"
	"acic/internal/seq"
)

func main() {
	const scale = 12
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"random", gen.Uniform(1<<scale, 16<<scale, gen.Config{Seed: 5})},
		{"rmat", gen.RMAT(scale, 16, gen.DefaultRMAT(), gen.Config{Seed: 5})},
	}
	topo := netsim.Topology{Nodes: 2, ProcsPerNode: 2, PEsPerProc: 2}
	latency := netsim.DefaultLatency()

	for _, item := range graphs {
		g := item.g
		fmt.Printf("== %s graph: |V|=%d |E|=%d ==\n", item.name, g.NumVertices(), g.NumEdges())
		oracle := seq.Dijkstra(g, 0)

		check := func(name string, dist []float64) {
			if !seq.Equal(dist, oracle.Dist) {
				log.Fatalf("%s: wrong distances on %s graph", name, item.name)
			}
		}
		row := func(name string, elapsed time.Duration, relaxations int64) {
			fmt.Printf("  %-12s %12v  %10d relaxations\n", name, elapsed, relaxations)
		}

		start := time.Now()
		d := seq.Dijkstra(g, 0)
		row("dijkstra", time.Since(start), d.Relaxations)

		start = time.Now()
		bf := seq.BellmanFord(g, 0)
		row("bellman-ford", time.Since(start), bf.Relaxations)

		ar, err := core.Run(g, 0, core.Options{Topo: topo, Latency: latency, Params: core.DefaultParams()})
		if err != nil {
			log.Fatal(err)
		}
		check("acic", ar.Dist)
		row("acic", ar.Stats.Elapsed, ar.Stats.Relaxations)

		dr, err := deltastep.Run(g, 0, deltastep.Options{Topo: topo, Latency: latency, Params: deltastep.DefaultParams()})
		if err != nil {
			log.Fatal(err)
		}
		check("delta", dr.Dist)
		row("delta-hybrid", dr.Stats.Elapsed, dr.Stats.Relaxations)

		cr, err := distctrl.Run(g, 0, distctrl.Options{Topo: topo, Latency: latency, Params: distctrl.DefaultParams()})
		if err != nil {
			log.Fatal(err)
		}
		check("distctrl", cr.Dist)
		row("distctrl", cr.Stats.Elapsed, cr.Stats.Relaxations)

		fmt.Printf("  ACIC vs delta wall time: %.2fx (>1 means ACIC faster)\n\n",
			dr.Stats.Elapsed.Seconds()/ar.Stats.Elapsed.Seconds())
	}
}
