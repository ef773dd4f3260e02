// Command acic-run executes one SSSP algorithm on one graph over the
// simulated machine and prints the distances' checksum plus the run's
// statistics. It is the counterpart of the artifact's weighted_htram_smp
// binary (A2), with the graph either generated in-process (like the
// artifact's generate mode `1`) or read from an edge-list CSV (mode `0`).
//
// Examples:
//
//	acic-run -algo acic -kind random -scale 14 -nodes 2
//	acic-run -algo delta -kind rmat -scale 14 -ptram 0.999
//	acic-run -algo acic -input graph.csv -vertices 16384 -verify
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"acic/internal/core"
	"acic/internal/deltastep"
	"acic/internal/distctrl"
	"acic/internal/gen"
	"acic/internal/graph"
	"acic/internal/metrics"
	"acic/internal/netsim"
	"acic/internal/seq"
	"acic/internal/stress"
	"acic/internal/trace"
	"acic/internal/tram"
)

func main() {
	var (
		algo       = flag.String("algo", "acic", "algorithm: acic | delta | distctrl | dijkstra | bellmanford")
		kind       = flag.String("kind", "random", "generated graph kind: rmat | random | grid")
		scale      = flag.Int("scale", 12, "2^scale vertices for generated graphs")
		edgeFactor = flag.Int("edgefactor", 16, "edges = edgefactor * 2^scale")
		seed       = flag.Uint64("seed", 1, "random seed")
		input      = flag.String("input", "", "edge-list CSV to load instead of generating")
		vertices   = flag.Int("vertices", 0, "vertex count for -input graphs")
		source     = flag.Int("source", 0, "source vertex")
		nodes      = flag.Int("nodes", 1, "simulated cluster nodes")
		ppn        = flag.Int("ppn", 2, "processes per node")
		pepp       = flag.Int("pepp", 2, "PEs per process")
		ptram      = flag.Float64("ptram", 0.999, "ACIC p_tram percentile fraction")
		ppq        = flag.Float64("ppq", 0.05, "ACIC p_pq percentile fraction")
		bufSize    = flag.Int("bufsize", tram.DefaultCapacity, "tramlib buffer capacity")
		mode       = flag.String("trammode", "WP", "tram aggregation mode: WW | WP | PW | PP")
		delta      = flag.Float64("delta", 0, "Δ-stepping bucket width (0 = heuristic)")
		hybrid     = flag.Bool("hybrid", true, "Δ-stepping: enable Bellman-Ford switch")
		verify     = flag.Bool("verify", false, "check distances against Dijkstra")
		printDist  = flag.Int("printdist", 0, "print the first N distances")
		faultName  = flag.String("fault", "none", "fabric fault profile for ACIC runs: none | reorder (seeded by -seed)")
		traceSum   = flag.Bool("tracesummary", false, "print per-PE scheduling summary after an ACIC run")
		traceOut   = flag.String("trace-chrome", "", "write the ACIC run's timeline as a Chrome/Perfetto trace to FILE")
		metricsOut = flag.String("metrics-out", "", "write the ACIC run's metrics registry snapshot (JSON) to FILE")
		auditOut   = flag.String("audit-out", "", "write per-reduction threshold audit records to FILE (JSONL, or CSV when FILE ends in .csv)")
	)
	flag.Parse()
	if *algo != "acic" && (*traceOut != "" || *metricsOut != "" || *auditOut != "") {
		fail(fmt.Errorf("-trace-chrome/-metrics-out/-audit-out instrument the acic algorithm only (got -algo %s)", *algo))
	}
	fault, err := stress.ParseFault(*faultName)
	if err != nil {
		fail(err)
	}
	if fault != stress.FaultNone && *algo != "acic" {
		fail(fmt.Errorf("-fault injects into the acic driver only (got -algo %s)", *algo))
	}

	g, err := loadGraph(*input, *vertices, *kind, *scale, *edgeFactor, *seed)
	if err != nil {
		fail(err)
	}
	topo := netsim.Topology{Nodes: *nodes, ProcsPerNode: *ppn, PEsPerProc: *pepp}
	latency := netsim.DefaultLatency()
	tramMode, err := parseMode(*mode)
	if err != nil {
		fail(err)
	}

	var dist []float64
	switch *algo {
	case "acic":
		p := core.DefaultParams()
		p.PTram, p.PPQ = *ptram, *ppq
		p.TramCapacity = *bufSize
		p.TramMode = tramMode
		p.AuditTrace = *auditOut != ""
		opts := core.Options{Topo: topo, Latency: latency, Params: p}
		opts.Fault = stress.NewFaultPlan(fault, *seed, topo)
		var rec *trace.Recorder
		if *traceSum || *traceOut != "" {
			rec = trace.New(topo.TotalPEs(), 1<<16)
			opts.Trace = rec
		}
		var reg *metrics.Registry
		if *metricsOut != "" {
			reg = metrics.New(topo.TotalPEs())
			opts.Metrics = reg
		}
		res, err := core.Run(g, *source, opts)
		if err != nil {
			fail(err)
		}
		if rec != nil && *traceSum {
			if err := rec.WriteSummary(os.Stdout); err != nil {
				fail(err)
			}
		}
		if *traceOut != "" {
			if err := writeFileWith(*traceOut, rec.WriteChrome); err != nil {
				fail(err)
			}
		}
		if reg != nil {
			if err := writeFileWith(*metricsOut, reg.Snapshot().WriteJSON); err != nil {
				fail(err)
			}
		}
		if *auditOut != "" {
			writer := func(w io.Writer) error { return core.WriteAuditJSONL(w, res.Stats.AuditTrace) }
			if strings.HasSuffix(*auditOut, ".csv") {
				writer = func(w io.Writer) error { return core.WriteAuditCSV(w, res.Stats.AuditTrace) }
			}
			if err := writeFileWith(*auditOut, writer); err != nil {
				fail(err)
			}
		}
		dist = res.Dist
		s := res.Stats
		fmt.Printf("acic: elapsed=%v reductions=%d created=%d suppressed=%d processed=%d rejected=%d relaxations=%d\n",
			s.Elapsed, s.Reductions, s.UpdatesCreated, s.UpdatesSuppressed, s.UpdatesProcessed, s.UpdatesRejected, s.Relaxations)
		fmt.Printf("tram: inserts=%d batches=%d autoflush=%d manualflush=%d\n",
			s.TramStats.Inserts, s.TramStats.Batches, s.TramStats.AutoFlushes, s.TramStats.ManualFlushes)
		fmt.Printf("net : messages=%d items=%d\n", s.Network.MessagesSent, s.Network.ItemsSent)
		if fault != stress.FaultNone {
			fmt.Printf("fault: reordered=%d unaccounted=%d\n", s.Network.Reordered, s.Audit.Unaccounted())
		}
	case "delta":
		p := deltastep.DefaultParams()
		p.Delta = *delta
		p.Hybrid = *hybrid
		p.TramCapacity = *bufSize
		p.TramMode = tramMode
		res, err := deltastep.Run(g, *source, deltastep.Options{Topo: topo, Latency: latency, Params: p})
		if err != nil {
			fail(err)
		}
		dist = res.Dist
		s := res.Stats
		fmt.Printf("delta: elapsed=%v supersteps=%d buckets=%d relaxations=%d rejected=%d switchedBF=%v bfRounds=%d\n",
			s.Elapsed, s.Supersteps, s.BucketsProcessed, s.Relaxations, s.Rejected, s.SwitchedToBF, s.BFRounds)
	case "distctrl":
		p := distctrl.DefaultParams()
		p.TramCapacity = *bufSize
		p.TramMode = tramMode
		res, err := distctrl.Run(g, *source, distctrl.Options{Topo: topo, Latency: latency, Params: p})
		if err != nil {
			fail(err)
		}
		dist = res.Dist
		s := res.Stats
		fmt.Printf("distctrl: elapsed=%v created=%d processed=%d rejected=%d relaxations=%d\n",
			s.Elapsed, s.UpdatesCreated, s.UpdatesProcessed, s.UpdatesRejected, s.Relaxations)
	case "dijkstra":
		res := seq.Dijkstra(g, *source)
		dist = res.Dist
		fmt.Printf("dijkstra: settled=%d relaxations=%d\n", res.Settled, res.Relaxations)
	case "bellmanford":
		res := seq.BellmanFord(g, *source)
		dist = res.Dist
		fmt.Printf("bellmanford: settled=%d relaxations=%d\n", res.Settled, res.Relaxations)
	default:
		fail(fmt.Errorf("unknown algorithm %q", *algo))
	}

	reached, sum := summarize(dist)
	fmt.Printf("result: reached=%d/%d distance-sum=%.6g\n", reached, len(dist), sum)
	if *verify && *algo != "dijkstra" {
		want := seq.Dijkstra(g, *source)
		if !seq.Equal(dist, want.Dist) {
			fail(fmt.Errorf("VERIFY FAILED at vertex %d", seq.FirstMismatch(dist, want.Dist)))
		}
		fmt.Println("verify: distances match Dijkstra")
	}
	for i := 0; i < *printDist && i < len(dist); i++ {
		fmt.Printf("dist[%d] = %g\n", i, dist[i])
	}
}

func loadGraph(input string, vertices int, kind string, scale, edgeFactor int, seed uint64) (*graph.Graph, error) {
	if input != "" {
		if vertices <= 0 {
			return nil, fmt.Errorf("-input requires -vertices")
		}
		f, err := os.Open(input)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return graph.ReadCSV(f, vertices)
	}
	return gen.ByKind(kind, scale, edgeFactor, gen.Config{Seed: seed})
}

func parseMode(s string) (tram.Mode, error) {
	switch strings.ToUpper(s) {
	case "WW":
		return tram.WW, nil
	case "WP":
		return tram.WP, nil
	case "PW":
		return tram.PW, nil
	case "PP":
		return tram.PP, nil
	default:
		return 0, fmt.Errorf("unknown tram mode %q", s)
	}
}

func summarize(dist []float64) (reached int, sum float64) {
	for _, d := range dist {
		if !math.IsInf(d, 1) {
			reached++
			sum += d
		}
	}
	return reached, sum
}

// writeFileWith creates path and streams write's output into it, returning
// the first error from either the writer or the file.
func writeFileWith(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "acic-run:", err)
	os.Exit(1)
}
