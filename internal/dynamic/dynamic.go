// Package dynamic turns the repository's immutable CSR graphs into living
// networks: a batched mutation API (edge inserts, deletes, weight changes)
// with monotonically increasing graph epochs, plus the incremental SSSP
// repair that makes mutations cheap to serve (see repair.go).
//
// A Graph is one immutable CSR and its transpose per epoch, nothing else.
// Apply edits copies of the rows a batch touches and, once every mutation
// has validated, splices each direction's new CSR from the previous one:
// one copy per run of untouched rows, and the edited rows written in their
// place. A rejected batch drops its copies, so the graph it leaves is the
// one it found. Snapshot and ReverseSnapshot hand out the current pair;
// the reverse one lets a point-to-point search walk the graph backwards
// from its target, and lets Repair re-relax an invalidated subtree from
// its in-edges.
//
// A batch costs what it changes. Repair's scratch (a lazy heap and the
// subtree stacks) lives on the Graph and grows with the largest damage
// seen, never with |V|; Affects tells a caller holding many vectors which
// ones a batch would write, so the rest can be shared instead of copied.
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
// serialize Apply and Repair. The graphs Snapshot and ReverseSnapshot
// return are immutable and are never written by a later batch, so readers
// may keep them across mutations.
package dynamic

import (
	"errors"
	"fmt"
	"math"
	"slices"

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
	// first occurrence in insertion order (Snapshot's row order) is
	// removed, and the rest keep their order. Deleting a missing edge
	// fails the batch.
	Delete
	// SetWeight changes the weight of one existing edge From→To (the
	// first occurrence, as for Delete) to Weight. Reweighting a missing
	// edge fails the batch.
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

// Graph is a directed weighted graph with dense vertex ids that changes in
// batches, each advancing its epoch by one. It is the graph's CSR at the
// current epoch and that CSR's transpose; no other copy of the graph
// survives a batch. Construct with FromCSR; mutate with Apply.
type Graph struct {
	// out is the graph; in holds, in row v, the edges into v.
	out, in *graph.Graph
	epoch   uint64

	// Repair scratch, reused across calls (see repair.go).
	heap                  pq.BinaryHeap
	roots, stack, invalid []int32
}

// FromCSR returns the dynamic graph of g at epoch 0. It keeps g, which is
// immutable, and transposes it once for the in-edges.
func FromCSR(g *graph.Graph) *Graph { return &Graph{out: g, in: g.Reverse()} }

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return g.out.NumVertices() }

// NumEdges returns |E| under the current epoch.
func (g *Graph) NumEdges() int { return g.out.NumEdges() }

// Epoch returns the number of successfully applied mutation batches.
// Every successful Apply increments it by exactly one; a failed Apply
// leaves it (and the graph) unchanged.
func (g *Graph) Epoch() uint64 { return g.epoch }

// Snapshot returns the CSR graph of the current epoch. Later batches
// build new graphs and never write this one — internal/engine hands
// snapshots to concurrent queries.
func (g *Graph) Snapshot() *graph.Graph { return g.out }

// ReverseSnapshot is Snapshot for the reverse graph: row v lists the edges
// into v, the same edges as Snapshot flipped. An edited row keeps the
// order its edits left it in, which need not be the source order of
// Snapshot().Reverse().
func (g *Graph) ReverseSnapshot() *graph.Graph { return g.in }

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

// Apply executes one mutation batch atomically: either every mutation is
// applied, the epoch advances by exactly one, and the classified Delta is
// returned — or the first invalid mutation fails the batch and the graph
// (and epoch) are unchanged. Mutations within a batch apply in order, so a
// batch may insert an edge and then delete it.
//
// Each direction's edits go to copies of the rows they touch; a failed
// batch drops the copies, and a successful one splices them into new CSRs.
// A delete or reweight finds the reverse half of the forward edge it hit
// by weight as well as endpoints, since parallel edges may differ only in
// weight.
func (g *Graph) Apply(batch []Mutation) (*Delta, error) {
	d := &Delta{}
	out, in := edits{g.out, map[int32][]half{}}, edits{g.in, map[int32][]half{}}
	n := g.NumVertices()
	for i, m := range batch {
		if m.From < 0 || int(m.From) >= n || m.To < 0 || int(m.To) >= n {
			return nil, fmt.Errorf("dynamic: batch[%d] %s: vertex out of range [0,%d)", i, m, n)
		}
		if (m.Op == Insert || m.Op == SetWeight) && (m.Weight < 0 || math.IsNaN(m.Weight) || math.IsInf(m.Weight, 0)) {
			return nil, fmt.Errorf("dynamic: batch[%d] %s: bad weight", i, m)
		}
		switch m.Op {
		case Insert:
			out.rows[m.From] = append(out.row(m.From), half{v: m.To, w: m.Weight})
			in.rows[m.To] = append(in.row(m.To), half{v: m.From, w: m.Weight})
			d.Inserted++
			d.Decreased = append(d.Decreased, graph.Edge{From: m.From, To: m.To, Weight: m.Weight})
		case Delete:
			row, j := out.find(m.From, m.To, 0, false)
			if j < 0 {
				return nil, fmt.Errorf("%w: batch[%d] %s", ErrEdgeNotFound, i, m)
			}
			w := row[j].w
			out.rows[m.From] = slices.Delete(row, j, j+1)
			row, j = in.find(m.To, m.From, w, true)
			in.rows[m.To] = slices.Delete(row, j, j+1)
			d.Deleted++
			d.Increased = append(d.Increased, graph.Edge{From: m.From, To: m.To, Weight: w})
		case SetWeight:
			row, j := out.find(m.From, m.To, 0, false)
			if j < 0 {
				return nil, fmt.Errorf("%w: batch[%d] %s", ErrEdgeNotFound, i, m)
			}
			old := row[j].w
			row[j].w = m.Weight
			row, j = in.find(m.To, m.From, old, true)
			row[j].w = m.Weight
			d.Reweighted++
			if m.Weight < old {
				d.Decreased = append(d.Decreased, graph.Edge{From: m.From, To: m.To, Weight: m.Weight})
			} else if m.Weight > old {
				d.Increased = append(d.Increased, graph.Edge{From: m.From, To: m.To, Weight: old})
			}
		default:
			return nil, fmt.Errorf("dynamic: batch[%d]: unknown op %d", i, m.Op)
		}
	}
	g.out, g.in = splice(g.out, out.rows), splice(g.in, in.rows)
	g.epoch++
	d.Epoch = g.epoch
	return d, nil
}

// half is one directed half-edge in an edited row: the far endpoint and
// the weight.
type half struct {
	v int32
	w float64
}

// edits is one direction's rows that a batch has edited so far, each
// copied from csr on first touch and kept in row order.
type edits struct {
	csr  *graph.Graph
	rows map[int32][]half
}

// row returns u's edited row, copying it from the CSR on first touch.
func (e *edits) row(u int32) []half {
	if r, ok := e.rows[u]; ok {
		return r
	}
	ts, ws := e.csr.Neighbors(int(u))
	r := make([]half, len(ts), len(ts)+1)
	for i, t := range ts {
		r[i] = half{v: t, w: ws[i]}
	}
	e.rows[u] = r
	return r
}

// find returns u's edited row and the slot in it of the first half to v
// (of weight w, if weighted), or -1 when there is none.
func (e *edits) find(u, v int32, w float64, weighted bool) ([]half, int) {
	r := e.row(u)
	for i, h := range r {
		if h.v == v && (!weighted || h.w == w) {
			return r, i
		}
	}
	return r, -1
}

// splice returns old with the given rows replaced. The new arrays are
// copied from old one run of unedited rows at a time, the run's offsets
// shifted, and each edited row is written in its place; graph.Adopt takes
// them without a second copy. With no edited row it returns old.
func splice(old *graph.Graph, rows map[int32][]half) *graph.Graph {
	if len(rows) == 0 {
		return old
	}
	edited := make([]int32, 0, len(rows)+1)
	m := old.NumEdges()
	for u, r := range rows {
		edited = append(edited, u)
		m += len(r) - old.OutDegree(int(u))
	}
	slices.Sort(edited)
	n := old.NumVertices()
	edited = append(edited, int32(n)) // the last run ends at n

	oldOff, oldT, oldW := old.CSR()
	offsets := make([]int64, n+1)
	targets := make([]int32, m)
	weights := make([]float64, m)
	var pos int64
	v := 0 // first row of the next unedited run
	for _, e := range edited {
		lo, hi := oldOff[v], oldOff[e]
		for u := v; u < int(e); u++ {
			offsets[u] = oldOff[u] - lo + pos
		}
		copy(targets[pos:], oldT[lo:hi])
		copy(weights[pos:], oldW[lo:hi])
		pos += hi - lo
		if int(e) == n {
			break
		}
		offsets[e] = pos
		for _, h := range rows[e] {
			targets[pos], weights[pos] = h.v, h.w
			pos++
		}
		v = int(e) + 1
	}
	offsets[n] = pos
	return graph.Adopt(offsets, targets, weights)
}
