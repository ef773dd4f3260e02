package bench

import (
	"fmt"

	"acic/internal/collect"
	"acic/internal/core"
	"acic/internal/deltastep"
	"acic/internal/distctrl"
	"acic/internal/graph"
	"acic/internal/seq"
	"acic/internal/tram"
)

// verifyDist cross-checks a distance vector against Dijkstra when
// Config.Verify is set.
func (c Config) verifyDist(g *graph.Graph, source int, dist []float64, algo string) error {
	if !c.Verify {
		return nil
	}
	want := seq.Dijkstra(g, source)
	if !seq.Equal(dist, want.Dist) {
		i := seq.FirstMismatch(dist, want.Dist)
		return fmt.Errorf("bench: %s produced wrong distance at vertex %d", algo, i)
	}
	return nil
}

// acicParams returns ACIC's tuned defaults with the suite's compute model.
func (c Config) acicParams() core.Params {
	p := core.DefaultParams()
	p.ComputeCost = c.ComputeCost
	return p
}

// deltaParams returns the hybrid Δ-stepping defaults with the suite's
// compute model.
func (c Config) deltaParams() deltastep.Params {
	p := deltastep.DefaultParams()
	p.ComputeCost = c.ComputeCost
	return p
}

// paperUpdates is ACIC's update count as the paper's ACIC would report it.
// That ACIC has no sender-side dominance filter, so every relaxation
// candidate is an update: the created ones plus those the filter suppressed.
func paperUpdates(s core.Stats) float64 { return float64(s.UpdatesCreated + s.UpdatesSuppressed) }

// runACIC executes one ACIC trial and returns its runtime in seconds.
func (c Config) runACIC(g *graph.Graph, nodes int, p core.Params) (float64, error) {
	sec, _, err := c.runACICWithUpdates(g, nodes, p)
	return sec, err
}

// runACICWithUpdates executes one ACIC trial and returns runtime plus the
// created-update count.
func (c Config) runACICWithUpdates(g *graph.Graph, nodes int, p core.Params) (float64, int64, error) {
	res, err := core.Run(g, 0, core.Options{Topo: c.Topo(nodes), Latency: c.Latency, Params: p})
	if err != nil {
		return 0, 0, err
	}
	if err := c.verifyDist(g, 0, res.Dist, "acic"); err != nil {
		return 0, 0, err
	}
	return res.Stats.Elapsed.Seconds(), res.Stats.UpdatesCreated, nil
}

// --- Fig. 1: aggregated histogram snapshot ---

// Fig1Result carries the histogram snapshot reproducing Fig. 1: the merged
// global histogram mid-run on a one-node RMAT graph with p_tram = 0.1.
type Fig1Result struct {
	Snapshot core.ThresholdAudit
	// PeakActive is the maximum active-update count over the run; the
	// returned snapshot is the one recorded at that moment.
	PeakActive int64
	// LowestNonEmpty is the lowest bucket still holding updates in the
	// snapshot (72 in the paper's example).
	LowestNonEmpty int
}

// Fig1Histogram reproduces Fig. 1.
func (c Config) Fig1Histogram() (*Fig1Result, error) {
	g, err := c.MakeGraph(RMAT, 0)
	if err != nil {
		return nil, err
	}
	p := c.acicParams()
	p.PTram = 0.1 // the figure's caption: p_tram = 0.1
	p.AuditTrace = true
	res, err := core.Run(g, 0, core.Options{Topo: c.Topo(1), Latency: c.Latency, Params: p})
	if err != nil {
		return nil, err
	}
	if err := c.verifyDist(g, 0, res.Dist, "acic"); err != nil {
		return nil, err
	}
	if len(res.Stats.AuditTrace) == 0 {
		return nil, fmt.Errorf("bench: no histogram snapshots recorded")
	}
	out := &Fig1Result{}
	for _, snap := range res.Stats.AuditTrace {
		if snap.Active > out.PeakActive {
			out.PeakActive = snap.Active
			out.Snapshot = snap
		}
	}
	out.LowestNonEmpty = -1
	for j, b := range out.Snapshot.BucketCount {
		if b > 0 {
			out.LowestNonEmpty = out.Snapshot.BucketIdx[j]
			break
		}
	}
	return out, nil
}

// Table renders the snapshot's non-empty bucket range.
func (r *Fig1Result) Table() *collect.Table {
	t := collect.NewTable(
		fmt.Sprintf("Fig 1: global update histogram at peak (epoch %d, %d active, t_tram=%d, t_pq=%d, lowest=%d)",
			r.Snapshot.Epoch, r.Snapshot.Active, r.Snapshot.TTram, r.Snapshot.TPQ, r.LowestNonEmpty),
		"bucket", "updates")
	// The audit keeps the histogram sparse; the figure prints every bucket
	// of the occupied range, empty ones included.
	var buckets []int64
	if n := len(r.Snapshot.BucketIdx); n > 0 {
		buckets = make([]int64, r.Snapshot.BucketIdx[n-1]+1)
	}
	for j, idx := range r.Snapshot.BucketIdx {
		buckets[idx] = r.Snapshot.BucketCount[j]
	}
	lo, hi := -1, -1
	for i, b := range buckets {
		if b > 0 {
			if lo < 0 {
				lo = i
			}
			hi = i
		}
	}
	for i := lo; i >= 0 && i <= hi; i++ {
		t.AddRow(i, buckets[i])
	}
	return t
}

// --- Fig. 4 / Fig. 5: percentile sweeps ---

// SweepPoint is one (parameter value, mean runtime) pair.
type SweepPoint struct {
	Value   float64
	Runtime collect.Sample
	Updates collect.Sample
}

// PaperPercentiles returns the sweep values of §IV-E: 0.05 steps from 0.05
// to 0.95, plus the endpoint 0.999.
func PaperPercentiles() []float64 {
	var vals []float64
	for v := 0.05; v < 0.96; v += 0.05 {
		vals = append(vals, float64(int(v*100+0.5))/100)
	}
	return append(vals, 0.999)
}

// QuickPercentiles is the abbreviated sweep for fast runs.
func QuickPercentiles() []float64 { return []float64{0.05, 0.25, 0.5, 0.75, 0.999} }

// Fig4TramPercentile sweeps p_tram on the one-node random graph (Fig. 4);
// the paper finds the optimum at 0.999.
func (c Config) Fig4TramPercentile(values []float64) ([]SweepPoint, error) {
	return c.sweepPercentile(values, func(p *core.Params, v float64) { p.PTram = v })
}

// Fig5PQPercentile sweeps p_pq (Fig. 5); the paper finds the optimum at
// 0.05.
func (c Config) Fig5PQPercentile(values []float64) ([]SweepPoint, error) {
	return c.sweepPercentile(values, func(p *core.Params, v float64) { p.PPQ = v })
}

func (c Config) sweepPercentile(values []float64, set func(*core.Params, float64)) ([]SweepPoint, error) {
	points := make([]SweepPoint, 0, len(values))
	sc := &core.Scratch{} // same shape every trial: recycle run state
	for _, v := range values {
		pt := SweepPoint{Value: v}
		for trial := 0; trial < c.Trials; trial++ {
			g, err := c.MakeGraph(Random, trial)
			if err != nil {
				return nil, err
			}
			p := c.acicParams()
			set(&p, v)
			res, err := core.Run(g, 0, core.Options{Topo: c.Topo(1), Latency: c.Latency, Params: p, Scratch: sc})
			if err != nil {
				return nil, err
			}
			if err := c.verifyDist(g, 0, res.Dist, "acic"); err != nil {
				return nil, err
			}
			pt.Runtime.Add(res.Stats.Elapsed.Seconds())
			pt.Updates.Add(float64(res.Stats.UpdatesCreated))
		}
		points = append(points, pt)
	}
	return points, nil
}

// SweepTable renders a percentile sweep.
func SweepTable(title, param string, points []SweepPoint) *collect.Table {
	t := collect.NewTable(title, param, "runtime_s(mean)", "runtime_s(min)", "updates(mean)")
	for _, p := range points {
		t.AddRow(p.Value, p.Runtime.Mean(), p.Runtime.Min(), p.Updates.Mean())
	}
	return t
}

// --- Fig. 6: tramlib buffer size ---

// BufferPoint is one (buffer size, node count) measurement.
type BufferPoint struct {
	Capacity int
	Nodes    int
	Runtime  collect.Sample
}

// Fig6BufferSize sweeps the tramlib buffer capacity {512, 1024, 2048}
// across node counts on the random graph (Fig. 6): larger buffers win at
// low parallelism, smaller at high.
func (c Config) Fig6BufferSize() ([]BufferPoint, error) {
	var points []BufferPoint
	sc := &core.Scratch{} // reused within each (nodes, capacity) cell
	for _, nodes := range c.Nodes {
		for _, capacity := range tram.SupportedCapacities {
			pt := BufferPoint{Capacity: capacity, Nodes: nodes}
			for trial := 0; trial < c.Trials; trial++ {
				g, err := c.MakeGraph(Random, trial)
				if err != nil {
					return nil, err
				}
				p := c.acicParams()
				p.TramCapacity = capacity
				res, err := core.Run(g, 0, core.Options{Topo: c.Topo(nodes), Latency: c.Latency, Params: p, Scratch: sc})
				if err != nil {
					return nil, err
				}
				if err := c.verifyDist(g, 0, res.Dist, "acic"); err != nil {
					return nil, err
				}
				pt.Runtime.Add(res.Stats.Elapsed.Seconds())
			}
			points = append(points, pt)
		}
	}
	return points, nil
}

// Fig6Table renders the buffer-size sweep.
func Fig6Table(points []BufferPoint) *collect.Table {
	t := collect.NewTable("Fig 6: tramlib buffer size vs runtime", "nodes", "capacity", "runtime_s(mean)")
	for _, p := range points {
		t.AddRow(p.Nodes, p.Capacity, p.Runtime.Mean())
	}
	return t
}

// --- Figs. 7-9: ACIC vs Δ-stepping ---

// ComparePoint is one (graph kind, node count) comparison between ACIC and
// the hybrid Δ-stepping baseline; Figs. 7, 8 and 9 are three views of the
// same runs.
type ComparePoint struct {
	Kind  GraphKind
	Nodes int
	// Reachable edge count (the TEPS numerator), averaged over trials.
	ReachableEdges collect.Sample
	ACICTime       collect.Sample
	DeltaTime      collect.Sample
	ACICTEPS       collect.Sample
	DeltaTEPS      collect.Sample
	// ACICUpdates is paperUpdates; ACICCreated is what this ACIC created.
	ACICUpdates  collect.Sample
	ACICCreated  collect.Sample
	DeltaUpdates collect.Sample
}

// CompareACICDelta runs both algorithms over both graph families and the
// configured node counts, producing the raw data behind Figs. 7-9.
func (c Config) CompareACICDelta() ([]ComparePoint, error) {
	var points []ComparePoint
	sc := &core.Scratch{}
	for _, kind := range []GraphKind{Random, RMAT} {
		for _, nodes := range c.Nodes {
			pt := ComparePoint{Kind: kind, Nodes: nodes}
			for trial := 0; trial < c.Trials; trial++ {
				g, err := c.MakeGraph(kind, trial)
				if err != nil {
					return nil, err
				}
				_, reach := g.ReachableFrom(0)
				pt.ReachableEdges.Add(float64(reach))

				ar, err := core.Run(g, 0, core.Options{Topo: c.Topo(nodes), Latency: c.Latency, Params: c.acicParams(), Scratch: sc})
				if err != nil {
					return nil, err
				}
				if err := c.verifyDist(g, 0, ar.Dist, "acic"); err != nil {
					return nil, err
				}
				pt.ACICTime.Add(ar.Stats.Elapsed.Seconds())
				pt.ACICTEPS.Add(collect.TEPS(reach, ar.Stats.Elapsed))
				pt.ACICUpdates.Add(paperUpdates(ar.Stats))
				pt.ACICCreated.Add(float64(ar.Stats.UpdatesCreated))

				dr, err := deltastep.Run(g, 0, deltastep.Options{Topo: c.Topo(nodes), Latency: c.Latency, Params: c.deltaParams()})
				if err != nil {
					return nil, err
				}
				if err := c.verifyDist(g, 0, dr.Dist, "deltastep"); err != nil {
					return nil, err
				}
				pt.DeltaTime.Add(dr.Stats.Elapsed.Seconds())
				pt.DeltaTEPS.Add(collect.TEPS(reach, dr.Stats.Elapsed))
				pt.DeltaUpdates.Add(float64(dr.Stats.Relaxations))
			}
			points = append(points, pt)
		}
	}
	return points, nil
}

// Fig7Table renders execution times (Fig. 7).
func Fig7Table(points []ComparePoint) *collect.Table {
	t := collect.NewTable("Fig 7: execution time, ACIC vs hybrid Δ-stepping",
		"graph", "nodes", "acic_s", "delta_s", "acic/delta speedup")
	for _, p := range points {
		t.AddRow(string(p.Kind), p.Nodes, p.ACICTime.Mean(), p.DeltaTime.Mean(),
			collect.Speedup(p.DeltaTime.Mean(), p.ACICTime.Mean()))
	}
	return t
}

// Fig8Table renders TEPS (Fig. 8).
func Fig8Table(points []ComparePoint) *collect.Table {
	t := collect.NewTable("Fig 8: traversed edges per second",
		"graph", "nodes", "acic_teps", "delta_teps")
	for _, p := range points {
		t.AddRow(string(p.Kind), p.Nodes, p.ACICTEPS.Mean(), p.DeltaTEPS.Mean())
	}
	return t
}

// Fig9Table renders update counts (Fig. 9).
func Fig9Table(points []ComparePoint) *collect.Table {
	t := collect.NewTable("Fig 9: updates (edge relaxations) created",
		"graph", "nodes", "acic_updates", "acic_created", "delta_updates", "acic fewer by")
	for _, p := range points {
		a, d := p.ACICUpdates.Mean(), p.DeltaUpdates.Mean()
		pct := "n/a"
		if d > 0 {
			pct = fmt.Sprintf("%.1f%%", 100*(d-a)/d)
		}
		t.AddRow(string(p.Kind), p.Nodes, a, p.ACICCreated.Mean(), d, pct)
	}
	return t
}

// --- §IV-E prose: aggregation mode comparison ---

// ModePoint measures one tramlib aggregation mode.
type ModePoint struct {
	Mode    tram.Mode
	Runtime collect.Sample
}

// AggregationModes compares PP/WP/WW/PW on the random graph; the paper
// reports WP as the best choice for SSSP.
func (c Config) AggregationModes(nodes int) ([]ModePoint, error) {
	var points []ModePoint
	sc := &core.Scratch{}
	for _, mode := range []tram.Mode{tram.PP, tram.WP, tram.WW, tram.PW} {
		pt := ModePoint{Mode: mode}
		for trial := 0; trial < c.Trials; trial++ {
			g, err := c.MakeGraph(Random, trial)
			if err != nil {
				return nil, err
			}
			p := c.acicParams()
			p.TramMode = mode
			res, err := core.Run(g, 0, core.Options{Topo: c.Topo(nodes), Latency: c.Latency, Params: p, Scratch: sc})
			if err != nil {
				return nil, err
			}
			if err := c.verifyDist(g, 0, res.Dist, "acic"); err != nil {
				return nil, err
			}
			pt.Runtime.Add(res.Stats.Elapsed.Seconds())
		}
		points = append(points, pt)
	}
	return points, nil
}

// ModesTable renders the aggregation-mode comparison.
func ModesTable(points []ModePoint) *collect.Table {
	t := collect.NewTable("Aggregation modes (paper: WP best for SSSP)", "mode", "runtime_s(mean)")
	for _, p := range points {
		t.AddRow(p.Mode.String(), p.Runtime.Mean())
	}
	return t
}

// --- Ablation: distributed control ---

// AblationPoint compares ACIC with one alternative on one graph kind.
// Updates is the paper-comparable count (paperUpdates for ACIC); Created
// differs from it only for ACIC, the one algorithm with a sender filter.
type AblationPoint struct {
	Kind    GraphKind
	Algo    string
	Runtime collect.Sample
	Updates collect.Sample
	Created collect.Sample
}

// Ablations runs ACIC and distributed control (ACIC minus introspection) on
// both graph families at the given node count.
func (c Config) Ablations(nodes int) ([]AblationPoint, error) {
	var points []AblationPoint
	for _, kind := range []GraphKind{Random, RMAT} {
		acic := AblationPoint{Kind: kind, Algo: "acic"}
		dc := AblationPoint{Kind: kind, Algo: "distctrl"}
		for trial := 0; trial < c.Trials; trial++ {
			g, err := c.MakeGraph(kind, trial)
			if err != nil {
				return nil, err
			}
			ar, err := core.Run(g, 0, core.Options{Topo: c.Topo(nodes), Latency: c.Latency, Params: c.acicParams()})
			if err != nil {
				return nil, err
			}
			acic.Runtime.Add(ar.Stats.Elapsed.Seconds())
			acic.Updates.Add(paperUpdates(ar.Stats))
			acic.Created.Add(float64(ar.Stats.UpdatesCreated))

			dp := distctrl.DefaultParams()
			dp.ComputeCost = c.ComputeCost
			dr, err := distctrl.Run(g, 0, distctrl.Options{Topo: c.Topo(nodes), Latency: c.Latency, Params: dp})
			if err != nil {
				return nil, err
			}
			if err := c.verifyDist(g, 0, dr.Dist, "distctrl"); err != nil {
				return nil, err
			}
			dc.Runtime.Add(dr.Stats.Elapsed.Seconds())
			dc.Updates.Add(float64(dr.Stats.UpdatesCreated))
			dc.Created.Add(float64(dr.Stats.UpdatesCreated))
		}
		points = append(points, acic, dc)
	}
	return points, nil
}

// AblationsTable renders the ablation comparison.
func AblationsTable(points []AblationPoint) *collect.Table {
	t := collect.NewTable("Ablation: ACIC vs distributed control",
		"graph", "algorithm", "runtime_s(mean)", "updates(mean)", "created(mean)")
	for _, p := range points {
		t.AddRow(string(p.Kind), p.Algo, p.Runtime.Mean(), p.Updates.Mean(), p.Created.Mean())
	}
	return t
}

// --- §V: high-diameter road graph ---

// RoadPoint compares asynchronous ACIC with Δ-stepping variants on the
// road-style grid.
type RoadPoint struct {
	Algo    string
	Runtime collect.Sample
	Syncs   collect.Sample // supersteps for the synchronous algorithms
}

// RoadGraph runs the §V experiment: on a high-diameter graph the
// synchronous algorithm needs one barrier per bucket, so the asynchronous
// approach should close or invert the RMAT gap.
func (c Config) RoadGraph(nodes int) ([]RoadPoint, error) {
	acic := RoadPoint{Algo: "acic"}
	hybrid := RoadPoint{Algo: "delta-hybrid"}
	pure := RoadPoint{Algo: "delta-pure"}
	for trial := 0; trial < c.Trials; trial++ {
		g, err := c.MakeGraph(Road, trial)
		if err != nil {
			return nil, err
		}
		ar, err := core.Run(g, 0, core.Options{Topo: c.Topo(nodes), Latency: c.Latency, Params: c.acicParams()})
		if err != nil {
			return nil, err
		}
		if err := c.verifyDist(g, 0, ar.Dist, "acic"); err != nil {
			return nil, err
		}
		acic.Runtime.Add(ar.Stats.Elapsed.Seconds())
		acic.Syncs.Add(0)

		hp := c.deltaParams()
		hr, err := deltastep.Run(g, 0, deltastep.Options{Topo: c.Topo(nodes), Latency: c.Latency, Params: hp})
		if err != nil {
			return nil, err
		}
		hybrid.Runtime.Add(hr.Stats.Elapsed.Seconds())
		hybrid.Syncs.Add(float64(hr.Stats.Supersteps))

		pp := c.deltaParams()
		pp.Hybrid = false
		pr, err := deltastep.Run(g, 0, deltastep.Options{Topo: c.Topo(nodes), Latency: c.Latency, Params: pp})
		if err != nil {
			return nil, err
		}
		pure.Runtime.Add(pr.Stats.Elapsed.Seconds())
		pure.Syncs.Add(float64(pr.Stats.Supersteps))
	}
	return []RoadPoint{acic, hybrid, pure}, nil
}

// RoadTable renders the road-graph experiment.
func RoadTable(points []RoadPoint) *collect.Table {
	t := collect.NewTable("§V: high-diameter road grid", "algorithm", "runtime_s(mean)", "global syncs(mean)")
	for _, p := range points {
		t.AddRow(p.Algo, p.Runtime.Mean(), p.Syncs.Mean())
	}
	return t
}
