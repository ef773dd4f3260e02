// Package dynamic turns the repository's immutable CSR graphs into living
// networks: a batched mutation API (edge inserts, deletes, weight changes)
// over a mutable adjacency representation, with monotonically increasing
// graph epochs, plus the incremental SSSP repair that makes mutations cheap
// to serve (see repair.go).
//
// A batch costs what it changes. Repair's scratch (a lazy heap and the
// subtree stacks) lives on the Graph and grows with the largest damage
// seen, never with |V|; Affects tells a caller holding many vectors which
// ones a batch would write, so the rest can be shared instead of copied;
// and Snapshot splices the new CSR from the previous one, rewriting only
// the sources whose out-list a mutation touched. ReverseSnapshot does the
// same for the in-lists, so a point-to-point search can walk the graph
// backwards from its target without a transpose per batch.
//
// The design follows the incremental/decremental split of the dynamic-SSSP
// literature (SSSP-Del, Javanrood & Ripeanu, arXiv:2508.14319; Kyng et al.,
// arXiv:2110.11712): an insert or weight decrease can only create shorter
// paths, so it is repaired by re-seeding relaxations from the affected
// endpoints; a delete or weight increase can only invalidate the
// shortest-path subtree hanging off the mutated edge, so it is repaired by
// discarding that subtree and re-relaxing from its frontier. Both repairs
// ride the same label-correcting machinery (a seeded Dijkstra pass) — the
// dead-update tolerance of the ACIC core is what makes the re-seeded
// updates safe to inject at serving time.
//
// A Graph is NOT safe for concurrent use: callers (internal/engine) must
// serialize Apply/Repair/Snapshot/ReverseSnapshot. Readers of CSR
// snapshots are unaffected by later mutations — a snapshot is an immutable
// *graph.Graph that shares no storage with the adjacency lists.
package dynamic

import (
	"errors"
	"fmt"
	"math"

	"acic/internal/graph"
	"acic/internal/pq"
)

// Op is a mutation kind.
type Op uint8

const (
	// Insert adds a directed edge From→To with weight Weight. Parallel
	// edges are allowed, matching graph.Build.
	Insert Op = iota
	// Delete removes one existing edge From→To. With parallel edges the
	// first (lowest-slot) occurrence is removed. Deleting a missing edge
	// fails the batch.
	Delete
	// SetWeight changes the weight of one existing edge From→To (first
	// occurrence) to Weight. Reweighting a missing edge fails the batch.
	SetWeight
)

// String returns the wire name used by the HTTP mutation API.
func (o Op) String() string {
	switch o {
	case Insert:
		return "insert"
	case Delete:
		return "delete"
	case SetWeight:
		return "set_weight"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// ParseOp maps a wire name back to an Op.
func ParseOp(s string) (Op, error) {
	switch s {
	case "insert":
		return Insert, nil
	case "delete":
		return Delete, nil
	case "set_weight", "setweight", "set-weight":
		return SetWeight, nil
	}
	return 0, fmt.Errorf("dynamic: unknown mutation op %q", s)
}

// Mutation is one edge mutation. Weight is ignored by Delete.
type Mutation struct {
	Op     Op
	From   int32
	To     int32
	Weight float64
}

func (m Mutation) String() string {
	if m.Op == Delete {
		return fmt.Sprintf("%s %d->%d", m.Op, m.From, m.To)
	}
	return fmt.Sprintf("%s %d->%d w=%g", m.Op, m.From, m.To, m.Weight)
}

// ErrEdgeNotFound is returned (wrapped) when a Delete or SetWeight names an
// edge the graph does not contain.
var ErrEdgeNotFound = errors.New("dynamic: edge not found")

// half is one directed half-edge as stored in an adjacency list.
type half struct {
	v int32
	w float64
}

// Graph is a mutable directed weighted graph with dense vertex ids and a
// batch epoch counter. Construct with FromCSR (or New for an edgeless
// graph); mutate with Apply. Forward and reverse adjacency are both
// maintained — the delete repair needs in-edges to re-relax an invalidated
// subtree from its frontier.
type Graph struct {
	fwd      [][]half
	rev      [][]half
	numEdges int
	epoch    uint64

	// out and in are the CSR snapshots of fwd and rev, each with the
	// vertices whose list changed since it was built. The mutation
	// primitives mark the source of an edge in out and its target in in.
	out, in spliced

	// Repair scratch, reused across calls (see repair.go).
	heap                  pq.BinaryHeap
	roots, stack, invalid []int32
}

// New returns an edgeless dynamic graph with n vertices at epoch 0.
func New(n int) *Graph {
	return &Graph{fwd: make([][]half, n), rev: make([][]half, n), out: newSpliced(n), in: newSpliced(n)}
}

// FromCSR copies a CSR graph into mutable adjacency form at epoch 0. The
// CSR graph is not retained.
func FromCSR(g *graph.Graph) *Graph {
	dg := New(g.NumVertices())
	g.EachEdge(func(from, to int32, w float64) {
		dg.fwd[from] = append(dg.fwd[from], half{v: to, w: w})
		dg.rev[to] = append(dg.rev[to], half{v: from, w: w})
	})
	dg.numEdges = g.NumEdges()
	return dg
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return len(g.fwd) }

// NumEdges returns |E| under the current epoch.
func (g *Graph) NumEdges() int { return g.numEdges }

// Epoch returns the number of successfully applied mutation batches.
// Every successful Apply increments it by exactly one; a failed Apply
// leaves it (and the graph) unchanged.
func (g *Graph) Epoch() uint64 { return g.epoch }

// Snapshot returns an immutable CSR graph of the current state. It shares
// nothing with the dynamic graph, so later mutations never touch it —
// internal/engine hands snapshots to concurrent queries. With no mutation
// since the last call it returns that same graph; otherwise it splices a
// new one from the previous snapshot (see spliced.build).
func (g *Graph) Snapshot() *graph.Graph { return g.out.build(g.fwd, g.numEdges) }

// ReverseSnapshot is Snapshot for the reverse graph: row v lists the edges
// into v. Taken between the same mutations as a Snapshot, it holds the
// same edges flipped. A row keeps the reverse adjacency list's order,
// which need not be the source order of Snapshot().Reverse().
func (g *Graph) ReverseSnapshot() *graph.Graph { return g.in.build(g.rev, g.numEdges) }

// spliced is one direction's CSR snapshot together with the vertices whose
// adjacency list changed since it was built (every vertex before the
// first build).
type spliced struct {
	snap   *graph.Graph
	dirty  []bool
	ndirty int
}

func newSpliced(n int) spliced {
	s := spliced{dirty: make([]bool, n), ndirty: n}
	for v := range s.dirty {
		s.dirty[v] = true
	}
	return s
}

// touch records that v's list changed since the last build.
func (s *spliced) touch(v int32) {
	if !s.dirty[v] {
		s.dirty[v] = true
		s.ndirty++
	}
}

// build returns the CSR of adj (numEdges half-edges in all). With nothing
// dirty it is the previous snapshot; otherwise the new arrays are spliced
// from the previous ones, one copy per run of clean vertices, and only the
// dirty rows are written from adj (on the first build, all of them).
func (s *spliced) build(adj [][]half, numEdges int) *graph.Graph {
	if s.snap != nil && s.ndirty == 0 {
		return s.snap
	}
	n := len(adj)
	offsets := make([]int64, n+1)
	targets := make([]int32, numEdges)
	weights := make([]float64, numEdges)
	var prevOff []int64
	var prevT []int32
	var prevW []float64
	if s.snap != nil {
		prevOff, prevT, prevW = s.snap.CSR()
	}
	var pos int64
	for v := 0; v < n; {
		if !s.dirty[v] {
			end := v + 1
			for end < n && !s.dirty[end] {
				end++
			}
			lo, hi := prevOff[v], prevOff[end]
			for u := v; u < end; u++ {
				offsets[u] = prevOff[u] - lo + pos
			}
			copy(targets[pos:], prevT[lo:hi])
			copy(weights[pos:], prevW[lo:hi])
			pos += hi - lo
			v = end
			continue
		}
		s.dirty[v] = false
		offsets[v] = pos
		for _, h := range adj[v] {
			targets[pos], weights[pos] = h.v, h.w
			pos++
		}
		v++
	}
	offsets[n] = pos
	s.ndirty = 0
	s.snap = graph.Adopt(offsets, targets, weights)
	return s.snap
}

// touch records that the edge from→to changed: from's out-list and to's
// in-list both differ from their last snapshots.
func (g *Graph) touch(from, to int32) {
	g.out.touch(from)
	g.in.touch(to)
}

// Delta is the classified record of one applied batch, consumed by Repair.
// Decreased lists edges that were inserted or whose weight decreased
// (repair re-seeds forward relaxations from them); Increased lists edges
// that were deleted or whose weight increased, carrying the OLD weight
// (repair invalidates the shortest-path subtree hanging off them).
type Delta struct {
	// Epoch is the graph epoch after the batch.
	Epoch     uint64
	Decreased []graph.Edge
	Increased []graph.Edge
	// Inserted/Deleted/Reweighted count the batch by op.
	Inserted, Deleted, Reweighted int
}

// Empty reports whether the delta requires no repair work.
func (d *Delta) Empty() bool { return len(d.Decreased) == 0 && len(d.Increased) == 0 }

// inverse is one rollback record for Apply. Every inverse identifies its
// edge by weight, never by slot: an intervening Delete's swapRemove reorders
// adjacency lists, so "first from→to occurrence" can point at a different
// parallel edge by rollback time. For a SetWeight inverse, matchW is the
// weight the mutation wrote (what the edge holds now) and w is the weight to
// restore; for Insert/Delete inverses, w alone identifies the edge.
type inverse struct {
	op       Op
	from, to int32
	w        float64
	matchW   float64
}

// Apply executes one mutation batch atomically: either every mutation is
// applied, the epoch advances by exactly one, and the classified Delta is
// returned — or the first invalid mutation rolls the already-applied prefix
// back and the graph (and epoch) are unchanged. Mutations within a batch
// apply in order, so a batch may insert an edge and then delete it.
func (g *Graph) Apply(batch []Mutation) (*Delta, error) {
	d := &Delta{}
	applied := make([]inverse, 0, len(batch)) // inverse ops, for rollback
	rollback := func() {
		for i := len(applied) - 1; i >= 0; i-- {
			inv := applied[i]
			switch inv.op {
			case Insert:
				g.insertEdge(inv.from, inv.to, inv.w)
			case Delete:
				if !g.removeEdgeW(inv.from, inv.to, inv.w) {
					panic("dynamic: rollback lost an edge") // unreachable: inverses are weight-exact
				}
			case SetWeight:
				if !g.setWeightW(inv.from, inv.to, inv.matchW, inv.w) {
					panic("dynamic: rollback lost an edge")
				}
			}
		}
	}
	n := len(g.fwd)
	for i, m := range batch {
		if m.From < 0 || int(m.From) >= n || m.To < 0 || int(m.To) >= n {
			rollback()
			return nil, fmt.Errorf("dynamic: batch[%d] %s: vertex out of range [0,%d)", i, m, n)
		}
		switch m.Op {
		case Insert:
			if m.Weight < 0 || math.IsNaN(m.Weight) || math.IsInf(m.Weight, 0) {
				rollback()
				return nil, fmt.Errorf("dynamic: batch[%d] %s: bad weight", i, m)
			}
			g.insertEdge(m.From, m.To, m.Weight)
			applied = append(applied, inverse{op: Delete, from: m.From, to: m.To, w: m.Weight})
			d.Inserted++
			d.Decreased = append(d.Decreased, graph.Edge{From: m.From, To: m.To, Weight: m.Weight})
		case Delete:
			w, ok := g.removeEdge(m.From, m.To)
			if !ok {
				rollback()
				return nil, fmt.Errorf("%w: batch[%d] %s", ErrEdgeNotFound, i, m)
			}
			applied = append(applied, inverse{op: Insert, from: m.From, to: m.To, w: w})
			d.Deleted++
			d.Increased = append(d.Increased, graph.Edge{From: m.From, To: m.To, Weight: w})
		case SetWeight:
			if m.Weight < 0 || math.IsNaN(m.Weight) || math.IsInf(m.Weight, 0) {
				rollback()
				return nil, fmt.Errorf("dynamic: batch[%d] %s: bad weight", i, m)
			}
			old, ok := g.setWeight(m.From, m.To, m.Weight)
			if !ok {
				rollback()
				return nil, fmt.Errorf("%w: batch[%d] %s", ErrEdgeNotFound, i, m)
			}
			applied = append(applied, inverse{op: SetWeight, from: m.From, to: m.To, w: old, matchW: m.Weight})
			d.Reweighted++
			if m.Weight < old {
				d.Decreased = append(d.Decreased, graph.Edge{From: m.From, To: m.To, Weight: m.Weight})
			} else if m.Weight > old {
				d.Increased = append(d.Increased, graph.Edge{From: m.From, To: m.To, Weight: old})
			}
		default:
			rollback()
			return nil, fmt.Errorf("dynamic: batch[%d]: unknown op %d", i, m.Op)
		}
	}
	g.epoch++
	d.Epoch = g.epoch
	return d, nil
}

// insertEdge appends From→To to both adjacency lists.
func (g *Graph) insertEdge(from, to int32, w float64) {
	g.touch(from, to)
	g.fwd[from] = append(g.fwd[from], half{v: to, w: w})
	g.rev[to] = append(g.rev[to], half{v: from, w: w})
	g.numEdges++
}

// removeEdge removes the first from→to occurrence from the forward list and
// its weight-matched partner from the reverse list (parallel edges may
// differ only by weight, so the reverse removal must match the weight of
// the forward edge actually removed).
func (g *Graph) removeEdge(from, to int32) (w float64, ok bool) {
	for i, h := range g.fwd[from] {
		if h.v == to {
			g.touch(from, to)
			g.fwd[from] = swapRemove(g.fwd[from], i)
			if !removeHalf(&g.rev[to], from, h.w) {
				panic("dynamic: fwd/rev adjacency out of sync")
			}
			g.numEdges--
			return h.w, true
		}
	}
	return 0, false
}

// removeEdgeW removes one from→to occurrence with exactly weight w (the
// rollback inverse of Insert).
func (g *Graph) removeEdgeW(from, to int32, w float64) bool {
	for i, h := range g.fwd[from] {
		if h.v == to && h.w == w {
			g.touch(from, to)
			g.fwd[from] = swapRemove(g.fwd[from], i)
			if !removeHalf(&g.rev[to], from, w) {
				panic("dynamic: fwd/rev adjacency out of sync")
			}
			g.numEdges--
			return true
		}
	}
	return false
}

// setWeight rewrites the weight of the first from→to occurrence (and its
// weight-matched reverse partner), returning the old weight.
func (g *Graph) setWeight(from, to int32, w float64) (old float64, ok bool) {
	for i, h := range g.fwd[from] {
		if h.v == to {
			g.touch(from, to)
			old = h.w
			g.fwd[from][i].w = w
			for j := range g.rev[to] {
				if g.rev[to][j].v == from && g.rev[to][j].w == old {
					g.rev[to][j].w = w
					return old, true
				}
			}
			panic("dynamic: fwd/rev adjacency out of sync")
		}
	}
	return 0, false
}

// setWeightW rewrites the weight of the first from→to occurrence whose
// current weight is exactly matchW (and its weight-matched reverse partner)
// to w. This is the rollback inverse of SetWeight: matching the edge by the
// weight the forward mutation wrote keeps rollback correct for parallel
// edges even after an intervening Delete's swapRemove reordered the list.
func (g *Graph) setWeightW(from, to int32, matchW, w float64) bool {
	for i, h := range g.fwd[from] {
		if h.v == to && h.w == matchW {
			g.touch(from, to)
			g.fwd[from][i].w = w
			for j := range g.rev[to] {
				if g.rev[to][j].v == from && g.rev[to][j].w == matchW {
					g.rev[to][j].w = w
					return true
				}
			}
			panic("dynamic: fwd/rev adjacency out of sync")
		}
	}
	return false
}

func removeHalf(hs *[]half, v int32, w float64) bool {
	for i, h := range *hs {
		if h.v == v && h.w == w {
			*hs = swapRemove(*hs, i)
			return true
		}
	}
	return false
}

func swapRemove(hs []half, i int) []half {
	hs[i] = hs[len(hs)-1]
	return hs[:len(hs)-1]
}
