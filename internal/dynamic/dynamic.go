// Package dynamic turns the repository's immutable CSR graphs into living
// networks: a batched mutation API (edge inserts, deletes, weight changes)
// with monotonically increasing graph epochs, plus the incremental SSSP
// repair that makes mutations cheap to serve (see repair.go).
//
// A Graph is one Version per epoch, nothing else: the graph and its
// transpose, each a graph.Graph (a paged CSR: a table of immutable
// 256-row pages), and a widen-only range of its weights. Apply edits
// copies of the rows a batch touches and, once every mutation has
// validated, hands them to graph.Graph.With, which rebuilds only the pages
// holding them; the next Version shares every other page with the last
// one by pointer. A rejected batch drops its copies, so the graph it
// leaves is the one it found. The reverse direction lets a point-to-point
// search walk the graph backwards from its target, and lets Repair
// re-relax an invalidated subtree from its in-edges. Snapshot is the
// current version's forward graph itself, in O(1).
//
// A batch costs what it changes: the pages it edits, one table of |V|/256
// pointers per direction, and O(batch) for the weight range. Repair's
// scratch (a lazy heap and the subtree stacks) lives on the Graph and
// grows with the largest damage seen, never with |V|; Affects tells a
// caller holding many vectors which ones a batch would write, so the rest
// can be shared instead of copied.
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
// serialize Apply and Repair. The Versions Current returns are immutable
// and are never written by a later batch, so readers may keep them across
// mutations.
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
// batches, each advancing its epoch by one. It is the Version of the
// current epoch and nothing else: no other copy of the graph survives a
// batch. Construct with FromCSR; mutate with Apply.
type Graph struct {
	cur   Version
	epoch uint64

	// Repair scratch, reused across calls (see repair.go).
	heap                  pq.BinaryHeap
	roots, stack, invalid []int32
}

// Version is the graph at one epoch: both directions, and a range holding
// every positive weight. Nothing a Version reaches is written after Apply
// returns it, so readers may keep it across batches.
type Version struct {
	// Out is the graph; In holds, in row v, the edges into v.
	Out, In *graph.Graph
	// MinWeight is at most the smallest positive weight and MaxWeight at
	// least the largest weight. The range only widens: inserts and
	// reweights widen it with their new weights, deletes leave it as it
	// is, so a batch keeps it in O(batch). With no positive weight ever
	// seen, MinWeight is +Inf and MaxWeight 0.
	MinWeight, MaxWeight float64
}

// widen returns v's range widened to hold w.
func (v Version) widen(w float64) Version {
	if w > 0 && w < v.MinWeight {
		v.MinWeight = w
	}
	if w > v.MaxWeight {
		v.MaxWeight = w
	}
	return v
}

// FromCSR returns the dynamic graph of g at epoch 0. Its forward
// direction is g itself, which is immutable, and its reverse one transpose
// of g; it reads g's weights once for the range.
func FromCSR(g *graph.Graph) *Graph {
	v := Version{Out: g, In: g.Reverse(), MinWeight: math.Inf(1)}
	for u := range g.NumVertices() {
		_, ws := g.Neighbors(u)
		for _, w := range ws {
			v = v.widen(w)
		}
	}
	return &Graph{cur: v}
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return g.cur.Out.NumVertices() }

// NumEdges returns |E| under the current epoch.
func (g *Graph) NumEdges() int { return g.cur.Out.NumEdges() }

// Epoch returns the number of successfully applied mutation batches.
// Every successful Apply increments it by exactly one; a failed Apply
// leaves it (and the graph) unchanged.
func (g *Graph) Epoch() uint64 { return g.epoch }

// Current returns the Version of the current epoch. Later batches make new
// versions and never write this one — internal/engine serves it to
// concurrent queries.
func (g *Graph) Current() Version { return g.cur }

// Snapshot returns the current epoch's graph, Current().Out, in O(1). A
// later batch never writes it.
func (g *Graph) Snapshot() *graph.Graph { return g.cur.Out }

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
// batch drops the copies, and a successful one hands them to
// graph.Graph.With, which rebuilds the pages holding them into the next
// Version. Both directions keep their rows in order and take the same
// edits, so the k-th from→to edge of a forward row is the k-th arc to from
// in the reverse row of to. A delete or reweight hits the first of its
// parallel edges in each direction, matched by endpoints alone, and the
// two are one edge.
func (g *Graph) Apply(batch []Mutation) (*Delta, error) {
	d := &Delta{}
	out, in := edits{g.cur.Out, map[int32][]graph.Arc{}}, edits{g.cur.In, map[int32][]graph.Arc{}}
	next := g.cur
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
			out.rows[m.From] = append(out.row(m.From), graph.Arc{To: m.To, Weight: m.Weight})
			in.rows[m.To] = append(in.row(m.To), graph.Arc{To: m.From, Weight: m.Weight})
			next = next.widen(m.Weight)
			d.Inserted++
			d.Decreased = append(d.Decreased, graph.Edge{From: m.From, To: m.To, Weight: m.Weight})
		case Delete:
			row, j := out.find(m.From, m.To)
			if j < 0 {
				return nil, fmt.Errorf("%w: batch[%d] %s", ErrEdgeNotFound, i, m)
			}
			w := row[j].Weight
			out.rows[m.From] = slices.Delete(row, j, j+1)
			row, j = in.find(m.To, m.From)
			in.rows[m.To] = slices.Delete(row, j, j+1)
			d.Deleted++
			d.Increased = append(d.Increased, graph.Edge{From: m.From, To: m.To, Weight: w})
		case SetWeight:
			row, j := out.find(m.From, m.To)
			if j < 0 {
				return nil, fmt.Errorf("%w: batch[%d] %s", ErrEdgeNotFound, i, m)
			}
			old := row[j].Weight
			row[j].Weight = m.Weight
			row, j = in.find(m.To, m.From)
			row[j].Weight = m.Weight
			next = next.widen(m.Weight)
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
	next.Out, next.In = next.Out.With(out.rows), next.In.With(in.rows)
	g.cur = next
	g.epoch++
	d.Epoch = g.epoch
	return d, nil
}

// edits is one direction's rows that a batch has edited so far, each
// copied from the graph on first touch and kept in row order.
type edits struct {
	g    *graph.Graph
	rows map[int32][]graph.Arc
}

// row returns u's edited row, copying it from the graph on first touch.
func (e *edits) row(u int32) []graph.Arc {
	if r, ok := e.rows[u]; ok {
		return r
	}
	ts, ws := e.g.Neighbors(int(u))
	r := make([]graph.Arc, len(ts), len(ts)+1)
	for i, t := range ts {
		r[i] = graph.Arc{To: t, Weight: ws[i]}
	}
	e.rows[u] = r
	return r
}

// find returns u's edited row and the slot in it of the first arc to v,
// or -1 when there is none.
func (e *edits) find(u, v int32) ([]graph.Arc, int) {
	r := e.row(u)
	for i, a := range r {
		if a.To == v {
			return r, i
		}
	}
	return r, -1
}
