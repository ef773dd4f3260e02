// Social-network example: degrees of influence over a scale-free graph.
//
//	go run ./examples/socialnetwork
//
// The paper's introduction motivates SSSP with social networks, whose
// power-law degree distributions are exactly what the RMAT generator
// models (§IV-B). This example builds an RMAT "follower" graph where an
// edge u→v weighted w means "u reaches v with interaction cost w", then
// uses ACIC to compute the cheapest influence path from one seed user to
// everyone — and shows the load-imbalance problem the paper attributes to
// 1-D partitioning of scale-free graphs.
package main

import (
	"fmt"
	"log"
	"math"
	"sort"

	"acic/internal/core"
	"acic/internal/gen"
	"acic/internal/netsim"
	"acic/internal/partition"
	"acic/internal/seq"
)

func main() {
	const scale = 12 // 4096 users
	g := gen.RMAT(scale, 16, gen.DefaultRMAT(), gen.Config{Seed: 7, MaxWeight: 10})
	stats := g.OutDegreeStats()
	fmt.Printf("follower graph: %d users, %d edges, degree mean=%.1f max=%d (power law)\n",
		g.NumVertices(), g.NumEdges(), stats.Mean, stats.Max)

	// Seed the influence search at the highest-degree user (the "hub").
	hub := 0
	for v := 0; v < g.NumVertices(); v++ {
		if g.OutDegree(v) > g.OutDegree(hub) {
			hub = v
		}
	}
	fmt.Printf("seeding from hub user %d (degree %d)\n", hub, g.OutDegree(hub))

	topo := netsim.Topology{Nodes: 2, ProcsPerNode: 2, PEsPerProc: 2}
	res, err := core.Run(g, hub, core.Options{
		Topo:    topo,
		Latency: netsim.DefaultLatency(),
		Params:  core.DefaultParams(),
	})
	if err != nil {
		log.Fatal(err)
	}
	if want := seq.Dijkstra(g, hub); !seq.Equal(res.Dist, want.Dist) {
		log.Fatal("socialnetwork: ACIC disagreed with Dijkstra")
	}

	// Histogram of "degrees of influence" (path cost bands).
	reached := 0
	bands := map[int]int{}
	for _, d := range res.Dist {
		if math.IsInf(d, 1) {
			continue
		}
		reached++
		bands[int(d)/10]++
	}
	fmt.Printf("reached %d/%d users; cost-band histogram:\n", reached, g.NumVertices())
	keys := make([]int, 0, len(bands))
	for k := range bands {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		fmt.Printf("  cost [%3d,%3d): %5d users\n", k*10, (k+1)*10, bands[k])
	}

	// The paper's §IV-F diagnosis: vertex-balanced 1-D partitioning
	// concentrates hub edges on single PEs; balanced layouts (the RIKEN
	// code's 2-D grid, or the edge-balanced blocks this repository's
	// Δ-stepping uses in its place) spread them.
	oneD := partition.NewOneD(g.NumVertices(), topo.TotalPEs())
	balanced := partition.NewEdgeBalancedOneD(g, topo.TotalPEs())
	fmt.Printf("edge imbalance (max/mean): vertex-balanced 1-D %.2f vs edge-balanced %.2f — why ACIC loses on RMAT\n",
		oneD.EdgeImbalance(g), balanced.EdgeImbalance(g))
	fmt.Printf("run: %v, %d updates, %d wasted (rejected)\n",
		res.Stats.Elapsed, res.Stats.UpdatesCreated, res.Stats.UpdatesRejected)
}
