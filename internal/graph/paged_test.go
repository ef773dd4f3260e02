package graph

// Tests of the paged layout: rows that straddle page edges, With's
// rebuilt and shared pages, and the source graph an edit leaves alone.

import (
	"math"
	"slices"
	"testing"

	"acic/internal/xrand"
)

// rowOf returns a copy of u's row in g.
func rowOf(g *Graph, u int) []Arc {
	ts, ws := g.Neighbors(u)
	row := make([]Arc, len(ts))
	for i := range ts {
		row[i] = Arc{To: ts[i], Weight: ws[i]}
	}
	return row
}

// sameRows reports whether a and b hold the same rows slot for slot: the
// same targets in the same order and the same weight bits.
func sameRows(a, b *Graph) bool {
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for v := range a.NumVertices() {
		at, aw := a.Neighbors(v)
		bt, bw := b.Neighbors(v)
		if !slices.Equal(at, bt) || !slices.EqualFunc(aw, bw, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
			return false
		}
	}
	return true
}

// checkShared requires every page of next that holds no row in edited to
// be prev's page, by pointer, and every page that holds one to be new.
func checkShared(t *testing.T, what string, prev, next *Graph, edited map[int32][]Arc) {
	t.Helper()
	if len(next.table) != len(prev.table) {
		t.Fatalf("%s: table of %d pages, was %d", what, len(next.table), len(prev.table))
	}
	touched := map[int]bool{}
	for u := range edited {
		touched[int(u>>pageShift)] = true
	}
	for k := range next.table {
		if rebuilt := next.table[k] != prev.table[k]; rebuilt != touched[k] {
			t.Fatalf("%s: page %d rebuilt=%v, edited=%v", what, k, rebuilt, touched[k])
		}
	}
}

// TestPagedRowsAtPageEdges: at vertex counts on either side of a page
// edge, Build's rows are the edge list's edges per source in input order,
// Reverse's rows the multiset of each vertex's in-edges, and an edit of a
// few rows equals Build of the edited list slot for slot, shares every
// page it does not touch, and leaves the source graph as it was.
func TestPagedRowsAtPageEdges(t *testing.T) {
	for _, n := range []int{0, 1, 255, 256, 257, 513} {
		r := xrand.New(uint64(n) + 1)
		var edges []Edge
		for i := 0; n > 0 && i < 4*n; i++ {
			edges = append(edges, Edge{From: int32(r.Intn(n)), To: int32(r.Intn(n)), Weight: float64(r.Intn(9))})
		}
		g := MustBuild(n, edges)
		want := make([][]Arc, n)
		for _, e := range edges {
			want[e.From] = append(want[e.From], Arc{To: e.To, Weight: e.Weight})
		}
		for v := range n {
			if got := rowOf(g, v); !slices.Equal(got, want[v]) {
				t.Fatalf("n=%d: Build row %d = %v, the edge list has %v", n, v, got, want[v])
			}
		}
		if got := len(g.table); got != (n+pageSize-1)/pageSize {
			t.Fatalf("n=%d: %d pages", n, got)
		}

		rev := g.Reverse()
		into := make([][]Edge, n)
		for _, e := range edges {
			into[e.To] = append(into[e.To], Edge{From: e.To, To: e.From, Weight: e.Weight})
		}
		for v := range n {
			if !sameRow(rev, MustBuild(n, into[v]), v) {
				t.Fatalf("n=%d: Reverse row %d is not the multiset of %d's in-edges %v", n, v, v, into[v])
			}
		}

		if g.With(nil) != g {
			t.Fatalf("n=%d: With of no rows is a new graph", n)
		}
		before := g.Edges()
		for round := 0; n > 0 && round < 20; round++ {
			rows := map[int32][]Arc{}
			// The first, last and page-edge rows are the likeliest to be
			// misplaced; draw them often.
			picks := []int{0, n - 1, min(pageSize-1, n-1), min(pageSize, n-1), r.Intn(n), r.Intn(n)}
			for range 1 + r.Intn(3) {
				u := int32(picks[r.Intn(len(picks))])
				row := make([]Arc, r.Intn(6))
				for i := range row {
					row[i] = Arc{To: int32(r.Intn(n)), Weight: float64(r.Intn(9))}
				}
				rows[u] = row
			}
			next := g.With(rows)
			var edited []Edge
			for v := range n {
				row, ok := rows[int32(v)]
				if !ok {
					row = want[v]
				}
				for _, a := range row {
					edited = append(edited, Edge{From: int32(v), To: a.To, Weight: a.Weight})
				}
			}
			if !sameRows(next, MustBuild(n, edited)) {
				t.Fatalf("n=%d round %d: With(%v) differs from Build of the edited list", n, round, rows)
			}
			checkShared(t, "With", g, next, rows)
			if !slices.Equal(g.Edges(), before) {
				t.Fatalf("n=%d round %d: With changed the source graph", n, round)
			}
		}
	}
}

// TestOneEdgeBatchSharesAllButOnePage: a one-edge insert, delete or
// reweight edits one row of the graph and one of its reverse, so each
// With rebuilds exactly the page holding that row and shares every other
// page with its predecessor, by pointer; the two tables differ in that one
// slot. The edits chain, as a dynamic graph's batches do.
func TestOneEdgeBatchSharesAllButOnePage(t *testing.T) {
	const n = 1 << 12 // 16 pages a direction
	r := xrand.New(12)
	edges := make([]Edge, 8*n)
	for i := range edges {
		edges[i] = Edge{From: int32(r.Intn(n)), To: int32(r.Intn(n)), Weight: float64(1 + r.Intn(100))}
	}
	out := MustBuild(n, edges)
	in := out.Reverse()
	for b := 0; b < 100; b++ {
		u := int32(r.Intn(n))
		fwd := rowOf(out, int(u))
		var v int32
		switch op := r.Intn(3); {
		case op == 0 || len(fwd) == 0: // insert u→v
			v = int32(r.Intn(n))
			w := float64(1 + r.Intn(100))
			fwd = append(fwd, Arc{To: v, Weight: w})
			back := append(rowOf(in, int(v)), Arc{To: u, Weight: w})
			in = checkOneRow(t, b, "in", in, v, back)
		default: // delete or reweight the first u→v
			v = fwd[r.Intn(len(fwd))].To
			j := slices.IndexFunc(fwd, func(a Arc) bool { return a.To == v })
			back := rowOf(in, int(v))
			k := slices.IndexFunc(back, func(a Arc) bool { return a.To == u })
			if op == 1 {
				fwd, back = slices.Delete(fwd, j, j+1), slices.Delete(back, k, k+1)
			} else {
				fwd[j].Weight, back[k].Weight = 7, 7
			}
			in = checkOneRow(t, b, "in", in, v, back)
		}
		out = checkOneRow(t, b, "out", out, u, fwd)
		if out.NumEdges() != in.NumEdges() {
			t.Fatalf("edit %d: %d edges out, %d in", b, out.NumEdges(), in.NumEdges())
		}
	}
}

// checkOneRow returns g with row u replaced by row, after requiring that
// the edit rebuilt only u's page and left u's row as given.
func checkOneRow(t *testing.T, b int, dir string, g *Graph, u int32, row []Arc) *Graph {
	t.Helper()
	rows := map[int32][]Arc{u: row}
	next := g.With(rows)
	checkShared(t, dir, g, next, rows)
	if got := rowOf(next, int(u)); !slices.Equal(got, row) {
		t.Fatalf("edit %d: %s row %d = %v, want %v", b, dir, u, got, row)
	}
	return next
}
