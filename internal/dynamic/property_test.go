package dynamic

// Seeded property tests for mutation batches (the ISSUE's satellite
// contract): (a) epochs are strictly monotone, (b) delete + re-insert of
// the same edge converges to the same distances as never deleting it,
// (c) repairing epoch N then N+1 equals repairing the combined batch.
// Every failure message leads with the seed, so a counterexample replays
// by pinning it.

import (
	"testing"

	"acic/internal/gen"
	"acic/internal/seq"
	"acic/internal/xrand"
)

// propGraph builds the seed's base graph, source, and exact base vectors.
func propGraph(seed uint64) (*Graph, *xrand.Rand, int) {
	r := xrand.New(seed)
	n := 60 + r.Intn(140)
	g := gen.Uniform(n, 3*n, gen.Config{Seed: r.Uint64(), MaxWeight: 100})
	return FromCSR(g), r, r.Intn(n)
}

func propSeeds(t *testing.T) []uint64 {
	n := 20
	if testing.Short() {
		n = 5
	}
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = uint64(i) + 1
	}
	return seeds
}

// TestPropertyRepairMatchesRecompute is the core randomized oracle: a
// stream of random batches, each applied and repaired, each checked
// against a sequential Dijkstra recompute of the post-mutation graph.
func TestPropertyRepairMatchesRecompute(t *testing.T) {
	for _, seed := range propSeeds(t) {
		dg, r, src := propGraph(seed)
		bg := NewBatchGen(dg, r, 100)
		dist, parent := dg.SSSP(src)
		for round := 0; round < 8; round++ {
			batch := bg.Next(1 + r.Intn(6))
			d, err := dg.Apply(batch)
			if err != nil {
				t.Fatalf("seed %d round %d: %v", seed, round, err)
			}
			dg.Repair(src, dist, parent, d)
			want := seq.Dijkstra(dg.Snapshot(), src)
			if i := seq.FirstMismatch(want.Dist, dist); i >= 0 {
				t.Fatalf("seed %d round %d: dist[%d] = %g, want %g (batch %v)",
					seed, round, i, dist[i], want.Dist[i], batch)
			}
			if err := VerifyTree(dg, src, dist, parent); err != nil {
				t.Fatalf("seed %d round %d: %v", seed, round, err)
			}
		}
	}
}

// TestPropertyEpochsStrictlyMonotone: every successful batch advances the
// epoch by exactly one; failed batches leave it untouched.
func TestPropertyEpochsStrictlyMonotone(t *testing.T) {
	for _, seed := range propSeeds(t) {
		dg, r, _ := propGraph(seed)
		bg := NewBatchGen(dg, r, 100)
		last := dg.Epoch()
		if last != 0 {
			t.Fatalf("seed %d: fresh graph at epoch %d", seed, last)
		}
		for round := 0; round < 10; round++ {
			if _, err := dg.Apply(bg.Next(1 + r.Intn(4))); err != nil {
				t.Fatalf("seed %d round %d: %v", seed, round, err)
			}
			if e := dg.Epoch(); e != last+1 {
				t.Fatalf("seed %d round %d: epoch %d after %d", seed, round, e, last)
			}
			last = dg.Epoch()
			// A rejected batch must not consume an epoch.
			if _, err := dg.Apply([]Mutation{{Op: Delete, From: 0, To: int32(dg.NumVertices() - 1), Weight: 0}}); err == nil {
				// The random graph may genuinely contain this edge; only
				// assert non-advance when the batch failed.
				if dg.Epoch() != last+1 {
					t.Fatalf("seed %d: accepted batch did not advance epoch", seed)
				}
				last = dg.Epoch()
			} else if dg.Epoch() != last {
				t.Fatalf("seed %d: failed batch advanced epoch to %d", seed, dg.Epoch())
			}
		}
	}
}

// TestPropertyDeleteReinsertConverges: delete an edge, repair, re-insert
// the identical edge, repair — distances must equal the never-deleted run.
func TestPropertyDeleteReinsertConverges(t *testing.T) {
	for _, seed := range propSeeds(t) {
		dg, r, src := propGraph(seed)
		base, _ := dg.SSSP(src)
		dist, parent := dg.SSSP(src)
		// Pick a random live edge via the snapshot's edge list.
		edges := dg.Snapshot().Edges()
		e := edges[r.Intn(len(edges))]
		d1, err := dg.Apply([]Mutation{{Op: Delete, From: e.From, To: e.To}})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		dg.Repair(src, dist, parent, d1)
		// Re-insert exactly the edge Delete removed: Apply deletes the
		// first parallel occurrence, whose weight rides in the Delta.
		removed := d1.Increased[0]
		d2, err := dg.Apply([]Mutation{{Op: Insert, From: removed.From, To: removed.To, Weight: removed.Weight}})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		dg.Repair(src, dist, parent, d2)
		if dg.Epoch() != 2 {
			t.Fatalf("seed %d: epoch %d after two batches", seed, dg.Epoch())
		}
		if i := seq.FirstMismatch(base, dist); i >= 0 {
			t.Fatalf("seed %d: delete+reinsert of %d->%d w=%g diverged at dist[%d]: %g, want %g",
				seed, removed.From, removed.To, removed.Weight, i, dist[i], base[i])
		}
		if err := VerifyTree(dg, src, dist, parent); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestPropertySplitEqualsCombined: applying batch A, repairing, then batch
// B, repairing, must land on the same distances as applying A+B as one
// batch with a single repair.
func TestPropertySplitEqualsCombined(t *testing.T) {
	for _, seed := range propSeeds(t) {
		dgSplit, r, src := propGraph(seed)
		dgComb := FromCSR(dgSplit.Snapshot()) // identical second copy
		bg := NewBatchGen(dgSplit, r, 100)
		a, b := bg.Next(1+r.Intn(5)), bg.Next(1+r.Intn(5))

		distS, parS := dgSplit.SSSP(src)
		for _, batch := range [][]Mutation{a, b} {
			d, err := dgSplit.Apply(batch)
			if err != nil {
				t.Fatalf("seed %d: split: %v", seed, err)
			}
			dgSplit.Repair(src, distS, parS, d)
		}

		distC, parC := dgComb.SSSP(src)
		combined := append(append([]Mutation(nil), a...), b...)
		d, err := dgComb.Apply(combined)
		if err != nil {
			t.Fatalf("seed %d: combined: %v", seed, err)
		}
		dgComb.Repair(src, distC, parC, d)

		if i := seq.FirstMismatch(distS, distC); i >= 0 {
			t.Fatalf("seed %d: split vs combined diverged at dist[%d]: %g vs %g (a=%v b=%v)",
				seed, i, distS[i], distC[i], a, b)
		}
		for _, chk := range []struct {
			name string
			dg   *Graph
			dist []float64
			par  []int32
		}{{"split", dgSplit, distS, parS}, {"combined", dgComb, distC, parC}} {
			if err := VerifyTree(chk.dg, src, chk.dist, chk.par); err != nil {
				t.Fatalf("seed %d: %s: %v", seed, chk.name, err)
			}
		}
		if s, c := dgSplit.Epoch(), dgComb.Epoch(); s != 2 || c != 1 {
			t.Fatalf("seed %d: epochs split=%d combined=%d", seed, s, c)
		}
	}
}

// TestPropertyFailedBatchIsNoop: any valid batch with an invalid tail must
// leave exactly the pre-Apply graph — same edge multiset, same epoch.
// Random graphs from gen.Uniform contain parallel edges, so this sweeps the
// space the deterministic parallel-edge regression test pins.
func TestPropertyFailedBatchIsNoop(t *testing.T) {
	for _, seed := range propSeeds(t) {
		dg, r, _ := propGraph(seed)
		bg := NewBatchGen(dg, r, 100)
		before := dg.Snapshot()
		batch := append(bg.Next(1+r.Intn(8)), Mutation{Op: Op(99)})
		if _, err := dg.Apply(batch); err == nil {
			t.Fatalf("seed %d: batch with invalid tail accepted", seed)
		}
		if dg.Epoch() != 0 {
			t.Fatalf("seed %d: failed batch advanced epoch to %d", seed, dg.Epoch())
		}
		ea, eb := sortedEdges(before), sortedEdges(dg.Snapshot())
		if len(ea) != len(eb) {
			t.Fatalf("seed %d: edge count %d after rollback, want %d", seed, len(eb), len(ea))
		}
		for i := range ea {
			if ea[i] != eb[i] {
				t.Fatalf("seed %d: rollback corrupted edge %d: %+v, want %+v (batch %v)",
					seed, i, eb[i], ea[i], batch)
			}
		}
	}
}

// TestBatchGenValidStream pins that the generator never emits a mutation
// the graph rejects, across a long stream.
func TestBatchGenValidStream(t *testing.T) {
	for _, seed := range propSeeds(t) {
		dg, r, _ := propGraph(seed)
		bg := NewBatchGen(dg, r, 50)
		for round := 0; round < 30; round++ {
			if _, err := dg.Apply(bg.Next(1 + r.Intn(8))); err != nil {
				t.Fatalf("seed %d round %d: generator emitted invalid batch: %v", seed, round, err)
			}
		}
		if bg.Edges() != dg.NumEdges() {
			t.Fatalf("seed %d: generator tracks %d edges, graph has %d", seed, bg.Edges(), dg.NumEdges())
		}
	}
}

// TestOneEdgeBatchSharesAllButOnePage: a one-edge batch edits one row in
// each direction, so its version rebuilds exactly the page holding that
// row in each and shares every other page with its predecessor, by
// pointer; the two page tables differ in that one slot.
func TestOneEdgeBatchSharesAllButOnePage(t *testing.T) {
	const n = 1 << 12 // 16 pages a direction
	g := gen.Uniform(n, 8*n, gen.Config{Seed: 12})
	dg := FromCSR(g)
	bg := NewBatchGen(dg, xrand.New(12), 100)
	for b := 0; b < 100; b++ {
		before := dg.Current()
		batch := bg.Next(1)
		if _, err := dg.Apply(batch); err != nil {
			t.Fatal(err)
		}
		after := dg.Current()
		m := batch[0]
		for _, dir := range []struct {
			name      string
			old, next *Pages
			row       int32
		}{{"out", before.Out, after.Out, m.From}, {"in", before.In, after.In, m.To}} {
			if len(dir.next.table) != len(dir.old.table) {
				t.Fatalf("batch %d %v: %s table of %d pages, was %d", b, m, dir.name, len(dir.next.table), len(dir.old.table))
			}
			for k := range dir.next.table {
				rebuilt := dir.next.table[k] != dir.old.table[k]
				if want := k == int(dir.row>>pageShift); rebuilt != want {
					t.Fatalf("batch %d %v: %s page %d rebuilt=%v, want %v", b, m, dir.name, k, rebuilt, want)
				}
			}
		}
	}
}
