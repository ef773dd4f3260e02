package bench

// The dynamic-graph experiment: when does incremental repair beat full
// recompute? One evolving Random graph absorbs seeded mutation batches of
// increasing size; after each batch the maintained distance vector is
// repaired in place (dynamic.Repair) and, separately, recomputed from
// scratch over the same post-batch CSR (dynamic.SSSP, which is
// seq.Dijkstra), so the comparison isolates the algorithmic difference. The
// expected shape: repair wins by orders of magnitude on small batches and
// the gap narrows as batches grow, since a large enough batch invalidates
// most of the tree and repair degenerates into recompute plus bookkeeping.

import (
	"fmt"
	"time"

	"acic/internal/collect"
	"acic/internal/dynamic"
	"acic/internal/seq"
	"acic/internal/xrand"
)

// DynPoint is one batch size's aggregate over several mutation batches.
type DynPoint struct {
	// Batch is the mutations per batch.
	Batch int
	// RepairMS and RecomputeMS are mean wall milliseconds per batch for
	// incremental repair vs full Dijkstra recompute.
	RepairMS    float64
	RecomputeMS float64
	// Speedup is RecomputeMS / RepairMS.
	Speedup float64
	// Invalidated is the mean number of labels discarded per repair.
	Invalidated float64
}

// DynamicRepair sweeps mutation batch sizes on the Random graph at
// c.Scale, measuring incremental repair against full recompute. Every
// repaired vector must equal the recompute, a sequential Dijkstra of the
// post-batch graph.
//
//acic:allow-wallclock the figure reports real repair vs recompute latency, so both passes are timed on the wall clock
func (c Config) DynamicRepair() ([]DynPoint, error) {
	g, err := c.MakeGraph(Random, 0)
	if err != nil {
		return nil, err
	}
	dg := dynamic.FromCSR(g)
	const source = 0
	dist, parent := dg.SSSP(source)
	r := xrand.New(c.Seed)
	bg := dynamic.NewBatchGen(dg, r, 100)

	batchesPerPoint := c.Trials
	if batchesPerPoint < 3 {
		batchesPerPoint = 3
	}
	sizes := []int{1, 4, 16, 64, 256}
	out := make([]DynPoint, 0, len(sizes))
	for _, size := range sizes {
		pt := DynPoint{Batch: size}
		for b := 0; b < batchesPerPoint; b++ {
			batch := bg.Next(size)
			d, err := dg.Apply(batch)
			if err != nil {
				return nil, fmt.Errorf("bench: dynamic: %w", err)
			}

			start := time.Now()
			st := dg.Repair(source, dist, parent, d)
			pt.RepairMS += float64(time.Since(start).Nanoseconds()) / 1e6
			pt.Invalidated += float64(st.Invalidated)

			start = time.Now()
			fullDist, _ := dg.SSSP(source)
			pt.RecomputeMS += float64(time.Since(start).Nanoseconds()) / 1e6

			if i := seq.FirstMismatch(fullDist, dist); i >= 0 {
				return nil, fmt.Errorf("bench: dynamic: batch %d repair diverged from recompute at dist[%d]: %g vs %g",
					size, i, dist[i], fullDist[i])
			}
		}
		n := float64(batchesPerPoint)
		pt.RepairMS /= n
		pt.RecomputeMS /= n
		pt.Invalidated /= n
		if pt.RepairMS > 0 {
			pt.Speedup = pt.RecomputeMS / pt.RepairMS
		}
		out = append(out, pt)
	}
	return out, nil
}

// DynTable renders the dynamic-repair sweep.
func DynTable(points []DynPoint) *collect.Table {
	t := collect.NewTable(
		"Dynamic graphs: incremental repair vs full recompute per mutation batch",
		"batch", "repair", "recompute", "speedup", "invalidated")
	for _, p := range points {
		t.AddRow(p.Batch,
			time.Duration(p.RepairMS*float64(time.Millisecond)).Round(time.Microsecond),
			time.Duration(p.RecomputeMS*float64(time.Millisecond)).Round(time.Microsecond),
			fmt.Sprintf("%.1fx", p.Speedup),
			fmt.Sprintf("%.1f", p.Invalidated))
	}
	return t
}
