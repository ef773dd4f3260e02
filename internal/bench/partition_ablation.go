package bench

import (
	"acic/internal/collect"
	"acic/internal/deltastep"
)

// PartitionPoint measures one Δ-stepping partitioning strategy.
type PartitionPoint struct {
	Layout  string
	Kind    GraphKind
	Runtime collect.Sample
	Updates collect.Sample
}

// PartitionLayouts contrasts the two Δ-stepping partitionings on both graph
// families: the naive vertex-balanced 1-D blocks and the edge-balanced 1-D
// blocks this repository uses as the default baseline (§IV-A). On RMAT the
// vertex-balanced layout concentrates hub edges on one PE and should lose.
func (c Config) PartitionLayouts(nodes int) ([]PartitionPoint, error) {
	var points []PartitionPoint
	for _, kind := range []GraphKind{Random, RMAT} {
		vertexBal := PartitionPoint{Layout: "1D-vertex", Kind: kind}
		edgeBal := PartitionPoint{Layout: "1D-edge", Kind: kind}
		for trial := 0; trial < c.Trials; trial++ {
			g, err := c.MakeGraph(kind, trial)
			if err != nil {
				return nil, err
			}

			pv := c.deltaParams()
			pv.EdgeBalanced = false
			rv, err := deltastep.Run(g, 0, deltastep.Options{Topo: c.Topo(nodes), Latency: c.Latency, Params: pv})
			if err != nil {
				return nil, err
			}
			if err := c.verifyDist(g, 0, rv.Dist, "deltastep-1dv"); err != nil {
				return nil, err
			}
			vertexBal.Runtime.Add(rv.Stats.Elapsed.Seconds())
			vertexBal.Updates.Add(float64(rv.Stats.Relaxations))

			pe := c.deltaParams()
			re, err := deltastep.Run(g, 0, deltastep.Options{Topo: c.Topo(nodes), Latency: c.Latency, Params: pe})
			if err != nil {
				return nil, err
			}
			if err := c.verifyDist(g, 0, re.Dist, "deltastep-1de"); err != nil {
				return nil, err
			}
			edgeBal.Runtime.Add(re.Stats.Elapsed.Seconds())
			edgeBal.Updates.Add(float64(re.Stats.Relaxations))
		}
		points = append(points, vertexBal, edgeBal)
	}
	return points, nil
}

// PartitionTable renders the partitioning ablation.
func PartitionTable(points []PartitionPoint) *collect.Table {
	t := collect.NewTable("Δ-stepping partitioning: 1-D vertex vs 1-D edge (§IV-A)",
		"graph", "layout", "runtime_s(mean)", "relaxations(mean)")
	for _, p := range points {
		t.AddRow(string(p.Kind), p.Layout, p.Runtime.Mean(), p.Updates.Mean())
	}
	return t
}
