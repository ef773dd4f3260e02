package dynamic

// BatchGen draws seeded random mutation batches that are always valid
// against the evolving graph: deletes and reweights target edges that
// exist, inserts draw uniform endpoints and weights. The stress churn
// workload, the dynamic property tests, and the churn bench all share it,
// so a single (seed, batch-size) pair reproduces one mutation stream
// everywhere.

import (
	"acic/internal/xrand"
)

// BatchGen generates one deterministic mutation stream. It tracks the
// (from, to) pairs present in the graph — the bookkeeping that keeps every
// generated Delete/SetWeight resolvable — and must therefore see every
// batch it generates applied, in order.
type BatchGen struct {
	r     *xrand.Rand
	pairs []pair // one entry per live edge (weights may be stale; pairs are exact)
	n     int
	maxW  float64
}

type pair struct{ from, to int32 }

// NewBatchGen builds a generator over g's current edge set, drawing from r.
// maxW bounds inserted/reweighted edge weights; <= 0 selects 100.
func NewBatchGen(g *Graph, r *xrand.Rand, maxW float64) *BatchGen {
	if maxW <= 0 {
		maxW = 100
	}
	b := &BatchGen{r: r, n: g.NumVertices(), maxW: maxW, pairs: make([]pair, 0, g.NumEdges())}
	for u := 0; u < b.n; u++ {
		ts, _ := g.cur.Out.Neighbors(u)
		for _, v := range ts {
			b.pairs = append(b.pairs, pair{from: int32(u), to: v})
		}
	}
	return b
}

// Next generates the next batch of size mutations: roughly 40% inserts,
// 30% deletes, 30% weight changes (all inserts when the graph has run out
// of edges). The batch is valid for sequential application to the graph
// state the generator has been tracking.
func (b *BatchGen) Next(size int) []Mutation {
	batch := make([]Mutation, 0, size)
	for i := 0; i < size; i++ {
		roll := b.r.Float64()
		switch {
		case roll < 0.4 || len(b.pairs) == 0:
			m := Mutation{
				Op:     Insert,
				From:   int32(b.r.Intn(b.n)),
				To:     int32(b.r.Intn(b.n)),
				Weight: b.r.Range(1, b.maxW),
			}
			b.pairs = append(b.pairs, pair{from: m.From, to: m.To})
			batch = append(batch, m)
		case roll < 0.7:
			j := b.r.Intn(len(b.pairs))
			p := b.pairs[j]
			b.pairs[j] = b.pairs[len(b.pairs)-1]
			b.pairs = b.pairs[:len(b.pairs)-1]
			batch = append(batch, Mutation{Op: Delete, From: p.from, To: p.to})
		default:
			p := b.pairs[b.r.Intn(len(b.pairs))]
			batch = append(batch, Mutation{
				Op:     SetWeight,
				From:   p.from,
				To:     p.to,
				Weight: b.r.Range(1, b.maxW),
			})
		}
	}
	return batch
}

// Edges returns the number of live edges the generator is tracking.
func (b *BatchGen) Edges() int { return len(b.pairs) }
