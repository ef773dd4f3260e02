// Tuning example: explore ACIC's parameter space (§III, §IV-E).
//
//	go run ./examples/tuning
//
// Sweeps the two percentile parameters and the tramlib buffer size on a
// random low-diameter graph and prints a compact report, reproducing in
// miniature the methodology behind Figs. 4-6. The paper's conclusions —
// p_tram high (send eagerly), p_pq low (queue reluctantly), buffer size
// trading latency against batching — can be read off the output.
package main

import (
	"fmt"
	"log"
	"time"

	"acic/internal/core"
	"acic/internal/gen"
	"acic/internal/netsim"
	"acic/internal/seq"
	"acic/internal/tram"
)

func main() {
	g := gen.Uniform(1<<12, 16<<12, gen.Config{Seed: 11})
	topo := netsim.SingleNode(4)
	latency := netsim.DefaultLatency()
	oracle := seq.Dijkstra(g, 0)

	run := func(p core.Params) (time.Duration, int64) {
		res, err := core.Run(g, 0, core.Options{Topo: topo, Latency: latency, Params: p})
		if err != nil {
			log.Fatal(err)
		}
		if !seq.Equal(res.Dist, oracle.Dist) {
			log.Fatalf("tuning: ACIC disagreed with Dijkstra at %+v", p)
		}
		return res.Stats.Elapsed, res.Stats.UpdatesCreated
	}

	fmt.Println("p_tram sweep (p_pq fixed at 0.05):")
	for _, v := range []float64{0.05, 0.25, 0.5, 0.75, 0.999} {
		p := core.DefaultParams()
		p.PTram = v
		el, upd := run(p)
		fmt.Printf("  p_tram=%.3f  runtime=%-12v updates=%d\n", v, el, upd)
	}

	fmt.Println("p_pq sweep (p_tram fixed at 0.999):")
	for _, v := range []float64{0.05, 0.25, 0.5, 0.75, 0.999} {
		p := core.DefaultParams()
		p.PPQ = v
		el, upd := run(p)
		fmt.Printf("  p_pq=%.3f    runtime=%-12v updates=%d\n", v, el, upd)
	}

	fmt.Println("tramlib buffer size sweep:")
	for _, capacity := range tram.SupportedCapacities {
		p := core.DefaultParams()
		p.TramCapacity = capacity
		el, upd := run(p)
		fmt.Printf("  capacity=%-5d runtime=%-12v updates=%d\n", capacity, el, upd)
	}

	fmt.Println("aggregation modes (paper: WP best):")
	for _, mode := range []tram.Mode{tram.PP, tram.WP, tram.WW, tram.PW} {
		p := core.DefaultParams()
		p.TramMode = mode
		el, upd := run(p)
		fmt.Printf("  mode=%s        runtime=%-12v updates=%d\n", mode, el, upd)
	}
}
