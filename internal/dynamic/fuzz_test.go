package dynamic

// Fuzzing the versions: Apply edits copies of the rows a batch touches and
// hands them to graph.Graph.With, which rebuilds the pages holding them. A
// rebuild that misplaces a run of rows, or an edit that hits the wrong
// edge or reorders a row, shows up as a Snapshot that differs from
// graph.Build of a plain list model of the same batches (applyModel), or
// as a reverse row that is not the multiset of the model's edges into that
// vertex. A page written after it was published shows up as an earlier
// version whose rows changed. (That With shares every page without an
// edited row is checked in internal/graph, which sees the pages.) The tape
// mixes valid batches, invalid ones that must leave the version as it
// was, parallel edges, insert-then-delete within one batch, and
// same-weight SetWeight; a header byte of 128 or more spreads the vertices
// over several pages.

import (
	"math"
	"slices"
	"sort"
	"testing"

	"acic/internal/graph"
)

// tapeReader hands out the fuzz input one byte at a time, zero once spent.
type tapeReader struct {
	data []byte
	pos  int
}

func (r *tapeReader) next() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

func (r *tapeReader) done() bool { return r.pos >= len(r.data) }

func FuzzSnapshotSplice(f *testing.F) {
	// Header: vertex count (and page spread), initial edge count, then
	// (from, to, weight) per edge; then 4-byte ops (code, a, b, w) — see
	// the switch below.
	f.Add([]byte{1, 3, 0, 1, 1, 0, 2, 2, 0, 0, 3, 3, 0, 0, 0, 2, 1, 2, 0, 7, 0, 0, 0})       // delete, then a missing delete fails
	f.Add([]byte{0, 2, 0, 1, 1, 0, 1, 1, 0, 0, 1, 1, 7, 0, 0, 0, 6, 1, 0, 2, 7, 0, 0, 0})    // parallel edges, insert-then-delete
	f.Add([]byte{2, 4, 0, 1, 1, 0, 2, 2, 1, 2, 3, 3, 0, 1, 5, 3, 0, 1, 0, 4, 1, 0, 2, 7, 0}) // same-weight and changed SetWeight
	f.Add([]byte{5, 0, 0, 1, 2, 3, 1, 3, 4, 2, 2, 4, 4, 255, 7, 0, 0, 0, 3, 0, 0, 0})        // out-of-range vertex fails
	f.Add([]byte{3, 5, 0, 1, 1, 1, 2, 1, 2, 3, 1, 3, 0, 1, 0, 2, 1, 3, 1, 0, 0, 3, 2, 0, 0, 2, 0, 3, 1, 7, 0, 0, 0, 3, 1, 0, 0, 3, 1, 0, 0, 2, 1, 1, 1, 7})
	f.Add([]byte{0, 3, 0, 1, 1, 0, 1, 2, 0, 1, 3, 2, 0, 1, 0, 7, 0, 0, 0}) // three parallel weights: a delete keeps the rest in order
	// three vertices on two pages
	f.Add([]byte{133, 4, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 0, 1, 0, 3, 0, 0, 0, 7, 0, 0, 0, 4, 2, 0, 1, 7, 0, 0, 0})
	// seven vertices on four pages, then a failing op
	f.Add([]byte{131, 3, 0, 4, 2, 4, 0, 1, 2, 2, 3, 0, 4, 0, 0, 3, 0, 0, 1, 2, 5, 0, 3, 0, 0, 1, 7, 0, 0, 0, 4, 1, 0, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &tapeReader{data: data}
		h := r.next()
		logical := 2 + int(h%6)
		// With the spread, logical vertex i is vertex 129·i, half a
		// 256-row graph page and one: the rows between are empty and the
		// edited ones land on several pages.
		stride := int32(1)
		if h >= 128 {
			stride = 129
		}
		vertex := func(b byte) int32 { return int32(b) % int32(logical) * stride }
		n := (logical-1)*int(stride) + 1
		var edges []graph.Edge
		for i := int(r.next() % 12); i > 0; i-- {
			edges = append(edges, graph.Edge{From: vertex(r.next()), To: vertex(r.next()), Weight: float64(r.next() % 4)})
		}
		dg := FromCSR(graph.MustBuild(n, edges))
		model := make([][]graph.Arc, n)
		for _, e := range edges {
			model[e.From] = append(model[e.From], graph.Arc{To: e.To, Weight: e.Weight})
		}
		prev := checkVersion(t, dg, model, versionState{})

		// existing names the slot-th out-edge of v as it stands now, or a
		// pair that may not exist when v has none.
		existing := func(v, slot byte) (int32, int32, float64) {
			from := vertex(v)
			ts, ws := dg.Current().Out.Neighbors(int(from))
			if len(ts) == 0 {
				return from, vertex(slot), 1
			}
			i := int(slot) % len(ts)
			return from, ts[i], ws[i]
		}
		var batch []Mutation
		for !r.done() {
			code, a, b, w := r.next(), r.next(), r.next(), r.next()
			to := vertex(b)
			if w == 255 {
				to = int32(n) // out of range: the batch fails at this op
			}
			switch code % 8 {
			case 0, 1:
				batch = append(batch, Mutation{Op: Insert, From: vertex(a), To: to, Weight: float64(w % 4)})
			case 2:
				batch = append(batch, Mutation{Op: Delete, From: vertex(a), To: to})
			case 3:
				from, dst, _ := existing(a, b)
				batch = append(batch, Mutation{Op: Delete, From: from, To: dst})
			case 4:
				from, dst, _ := existing(a, b)
				batch = append(batch, Mutation{Op: SetWeight, From: from, To: dst, Weight: float64(w % 4)})
			case 5:
				from, dst, cur := existing(a, b)
				batch = append(batch, Mutation{Op: SetWeight, From: from, To: dst, Weight: cur})
			case 6:
				from := vertex(a)
				batch = append(batch,
					Mutation{Op: Insert, From: from, To: to, Weight: float64(w % 4)},
					Mutation{Op: Delete, From: from, To: to})
			case 7:
				want, ok := applyModel(model, batch)
				epoch, before := dg.Epoch(), dg.Current()
				_, err := dg.Apply(batch)
				if (err == nil) != ok {
					t.Fatalf("Apply(%v) = %v, the model says ok=%v", batch, err, ok)
				}
				if err != nil && (dg.Epoch() != epoch || dg.Current() != before) {
					t.Fatalf("failed batch %v moved the graph (epoch %d -> %d)", batch, epoch, dg.Epoch())
				}
				if err == nil {
					model = want
					prev = checkVersion(t, dg, model, prev)
				}
				batch = batch[:0]
			}
		}
	})
}

// applyModel is Apply on plain lists: the batch's ops in order on a copy
// of adj, Delete and SetWeight on the first From→To edge in row order, a
// delete keeping the order of the rest. It returns the new lists, or adj
// and false when an op names a vertex out of range or a missing edge (the
// only failures the tape makes).
func applyModel(adj [][]graph.Arc, batch []Mutation) ([][]graph.Arc, bool) {
	next := make([][]graph.Arc, len(adj))
	for v := range adj {
		next[v] = slices.Clone(adj[v])
	}
	n := int32(len(adj))
	for _, m := range batch {
		if m.From < 0 || m.From >= n || m.To < 0 || m.To >= n {
			return adj, false
		}
		row := next[m.From]
		i := slices.IndexFunc(row, func(a graph.Arc) bool { return a.To == m.To })
		switch {
		case m.Op == Insert:
			next[m.From] = append(row, graph.Arc{To: m.To, Weight: m.Weight})
		case i < 0:
			return adj, false
		case m.Op == Delete:
			next[m.From] = slices.Delete(row, i, i+1)
		default:
			row[i].Weight = m.Weight
		}
	}
	return next, true
}

// versionState is what checkVersion saw at one epoch: the version and the
// edges both its directions held then.
type versionState struct {
	v                 Version
	outEdges, inEdges []graph.Edge
}

// checkVersion requires dg's current version to hold the model: Snapshot
// equal to graph.Build of the model slot for slot, reverse row v the
// multiset of the model's edges into v, and the weight range around every
// positive weight. The previous version must still hold the edges it held.
func checkVersion(t *testing.T, dg *Graph, model [][]graph.Arc, prev versionState) versionState {
	t.Helper()
	cur := versionState{v: dg.Current()}
	checkRows(t, dg.Snapshot(), model)
	into := make([][]graph.Edge, len(model))
	for u, row := range model {
		for _, a := range row {
			into[a.To] = append(into[a.To], graph.Edge{From: a.To, To: int32(u), Weight: a.Weight})
			if a.Weight > 0 && (a.Weight < cur.v.MinWeight || a.Weight > cur.v.MaxWeight) {
				t.Fatalf("weight %g of %d->%d outside the version's range [%g, %g]", a.Weight, u, a.To, cur.v.MinWeight, cur.v.MaxWeight)
			}
		}
	}
	for v := range into {
		sortEdges(into[v])
		if got := sortedRow(cur.v.In, v); !slices.Equal(got, into[v]) {
			t.Fatalf("reverse row %d = %v, the model's edges into %d are %v", v, got, v, into[v])
		}
	}
	if prev.v.Out != nil {
		if got := prev.v.Out.Edges(); !slices.Equal(got, prev.outEdges) {
			t.Fatalf("previous version changed %v -> %v", prev.outEdges, got)
		}
		if got := prev.v.In.Edges(); !slices.Equal(got, prev.inEdges) {
			t.Fatalf("previous reverse version changed %v -> %v", prev.inEdges, got)
		}
	}
	cur.outEdges, cur.inEdges = cur.v.Out.Edges(), cur.v.In.Edges()
	return cur
}

// checkRows requires g to equal graph.Build of adj, slot for slot: the
// same row lengths, targets and weight bits.
func checkRows(t *testing.T, g *graph.Graph, adj [][]graph.Arc) {
	t.Helper()
	var edges []graph.Edge
	for v, row := range adj {
		for _, a := range row {
			edges = append(edges, graph.Edge{From: int32(v), To: a.To, Weight: a.Weight})
		}
	}
	want := graph.MustBuild(len(adj), edges)
	if g.NumVertices() != want.NumVertices() || g.NumEdges() != want.NumEdges() {
		t.Fatalf("snapshot |V|=%d |E|=%d, want %d and %d", g.NumVertices(), g.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	for v := range want.NumVertices() {
		gotT, gotW := g.Neighbors(v)
		wantT, wantW := want.Neighbors(v)
		if !slices.Equal(gotT, wantT) || !slices.EqualFunc(gotW, wantW, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Fatalf("snapshot row %d = %v %v, want %v %v", v, gotT, gotW, wantT, wantW)
		}
	}
}

// sortedRow returns v's out-edges in g, sorted by target then weight.
func sortedRow(g *graph.Graph, v int) []graph.Edge {
	ts, ws := g.Neighbors(v)
	row := make([]graph.Edge, len(ts))
	for i := range ts {
		row[i] = graph.Edge{From: int32(v), To: ts[i], Weight: ws[i]}
	}
	sortEdges(row)
	return row
}

// sortEdges sorts one row's edges by target, then weight.
func sortEdges(row []graph.Edge) {
	sort.Slice(row, func(i, j int) bool {
		if row[i].To != row[j].To {
			return row[i].To < row[j].To
		}
		return row[i].Weight < row[j].Weight
	})
}
