// Command graphgen generates the evaluation's input graphs as edge-list
// CSV files, standing in for the PaRMAT generator plus the
// rmat_preprocess.py weighting step of the paper's artifact (A3).
//
// Usage:
//
//	graphgen -kind rmat -scale 16 -edgefactor 16 -seed 1 -o graph.csv
//	graphgen -kind random -scale 14 -o random.csv
//	graphgen -kind grid -scale 12 -o road.csv
//
// The output format is "from,to,weight" per line, sorted ascending by
// source vertex, exactly what cmd/acic-run -input consumes.
package main

import (
	"flag"
	"fmt"
	"os"

	"acic/internal/gen"
	"acic/internal/graph"
)

func main() {
	var (
		kind       = flag.String("kind", "rmat", "graph kind: rmat | random | grid | erdos")
		scale      = flag.Int("scale", 14, "2^scale vertices (paper uses 26)")
		edgeFactor = flag.Int("edgefactor", 16, "edges = edgefactor * 2^scale (paper uses 16)")
		seed       = flag.Uint64("seed", 1, "random seed for structure and weights")
		maxWeight  = flag.Float64("maxweight", 256, "edge weights drawn uniformly from [1, maxweight)")
		out        = flag.String("o", "", "output CSV path (default stdout)")
	)
	flag.Parse()

	g, err := makeGraph(*kind, *scale, *edgeFactor, *seed, *maxWeight)
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphgen:", err)
		os.Exit(1)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "graphgen:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if err := graph.WriteCSV(w, g); err != nil {
		fmt.Fprintln(os.Stderr, "graphgen: writing edge list:", err)
		os.Exit(1)
	}
	stats := g.OutDegreeStats()
	fmt.Fprintf(os.Stderr, "graphgen: %s graph, |V|=%d |E|=%d, out-degree mean=%.2f max=%d p99=%d\n",
		*kind, g.NumVertices(), g.NumEdges(), stats.Mean, stats.Max, stats.P99)
}

func makeGraph(kind string, scale, edgeFactor int, seed uint64, maxWeight float64) (*graph.Graph, error) {
	if scale < 1 || scale > 30 {
		return nil, fmt.Errorf("scale %d out of range [1,30]", scale)
	}
	if edgeFactor < 1 {
		return nil, fmt.Errorf("edgefactor must be positive")
	}
	cfg := gen.Config{Seed: seed, MaxWeight: maxWeight}
	if kind == "erdos" {
		n := 1 << scale
		return gen.ErdosRenyi(n, edgeFactor*n, cfg), nil
	}
	g, err := gen.ByKind(kind, scale, edgeFactor, cfg)
	if err != nil {
		return nil, fmt.Errorf("%w (want rmat, random, grid or erdos)", err)
	}
	return g, nil
}
