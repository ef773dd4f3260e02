// Connected-components example: the paper's future-work machinery transfer
// (§V) in action.
//
//	go run ./examples/components
//
// The paper closes by proposing that ACIC's concepts — asynchronous
// reductions overlapped with computation, counter-based quiescence — carry
// to other graph problems, naming connected components on random graphs as
// the first candidate. internal/cc implements exactly that: asynchronous
// min-label propagation whose termination is detected by ACIC's
// equal-counters-twice rule riding on a concurrent reduction cycle, paced
// by work like ACIC's own. This example runs it over an Erdős–Rényi graph
// near the percolation threshold, where the component-size distribution is
// most interesting.
package main

import (
	"fmt"
	"log"
	"sort"

	"acic/internal/cc"
	"acic/internal/gen"
	"acic/internal/netsim"
)

func main() {
	const n = 20000
	// Mean degree ~1.1: just above the giant-component threshold.
	g := gen.ErdosRenyi(n, 11000, gen.Config{Seed: 42})
	fmt.Printf("Erdős–Rényi graph: %d vertices, %d edges (mean degree %.2f)\n",
		g.NumVertices(), g.NumEdges(), 2*float64(g.NumEdges())/float64(n))

	res, err := cc.Run(g, cc.Options{
		Topo:    netsim.Topology{Nodes: 2, ProcsPerNode: 2, PEsPerProc: 2},
		Latency: netsim.DefaultLatency(),
		Params:  cc.DefaultParams(),
	})
	if err != nil {
		log.Fatal(err)
	}

	// Verify against union-find.
	want := cc.SequentialCC(g)
	for v := range want {
		if res.Labels[v] != want[v] {
			log.Fatalf("label mismatch at vertex %d", v)
		}
	}

	sizes := map[int32]int{}
	for _, l := range res.Labels {
		sizes[l]++
	}
	largest := 0
	for _, s := range sizes {
		if s > largest {
			largest = s
		}
	}
	// Component size histogram (powers of two).
	hist := map[int]int{}
	for _, s := range sizes {
		b := 0
		for v := s; v > 1; v >>= 1 {
			b++
		}
		hist[b]++
	}
	fmt.Printf("components: %d total, largest %d vertices (%.1f%% of graph)\n",
		res.Stats.Components, largest, 100*float64(largest)/float64(n))
	bs := make([]int, 0, len(hist))
	for b := range hist {
		bs = append(bs, b)
	}
	sort.Ints(bs)
	for _, b := range bs {
		fmt.Printf("  size [%6d,%6d): %6d components\n", 1<<b, 1<<(b+1), hist[b])
	}
	fmt.Printf("run: %v, %d label updates (%d rejected), %d reduction cycles\n",
		res.Stats.Elapsed, res.Stats.UpdatesCreated, res.Stats.Rejected, res.Stats.Reductions)
	if res.Stats.UpdatesCreated != res.Stats.UpdatesProcessed {
		log.Fatalf("quiescence: created %d != processed %d", res.Stats.UpdatesCreated, res.Stats.UpdatesProcessed)
	}
	fmt.Printf("quiescence: created %d == processed %d ✓ (ACIC's termination rule, transferred)\n",
		res.Stats.UpdatesCreated, res.Stats.UpdatesProcessed)
}
