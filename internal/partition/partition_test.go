package partition

import (
	"testing"
	"testing/quick"

	"acic/internal/gen"
	"acic/internal/graph"
)

func TestOneDCoversAllVertices(t *testing.T) {
	for _, c := range []struct{ n, pes int }{
		{100, 4}, {100, 7}, {5, 8}, {0, 3}, {1, 1}, {1000, 48},
	} {
		p := NewOneD(c.n, c.pes)
		total := 0
		for pe := 0; pe < c.pes; pe++ {
			lo, hi := p.Range(pe)
			total += int(hi - lo)
		}
		if total != c.n {
			t.Errorf("n=%d pes=%d: ranges cover %d vertices", c.n, c.pes, total)
		}
	}
}

func TestOneDOwnerMatchesRange(t *testing.T) {
	for _, c := range []struct{ n, pes int }{
		{100, 4}, {103, 7}, {5, 8}, {48, 48}, {1000, 13},
	} {
		p := NewOneD(c.n, c.pes)
		for v := int32(0); int(v) < c.n; v++ {
			pe := p.Owner(v)
			lo, hi := p.Range(pe)
			if v < lo || v >= hi {
				t.Fatalf("n=%d pes=%d: Owner(%d)=%d but range [%d,%d)", c.n, c.pes, v, pe, lo, hi)
			}
		}
	}
}

func TestOneDBalance(t *testing.T) {
	p := NewOneD(103, 7)
	// Sizes may differ by at most one.
	min, max := 1<<30, 0
	for pe := 0; pe < 7; pe++ {
		s := p.Size(pe)
		if s < min {
			min = s
		}
		if s > max {
			max = s
		}
	}
	if max-min > 1 {
		t.Errorf("block sizes spread %d..%d", min, max)
	}
}

func TestOneDLocalIndex(t *testing.T) {
	p := NewOneD(10, 3) // blocks: [0,4) [4,7) [7,10)
	if p.LocalIndex(0) != 0 || p.LocalIndex(3) != 3 {
		t.Error("block 0 local index wrong")
	}
	if p.LocalIndex(4) != 0 || p.LocalIndex(6) != 2 {
		t.Error("block 1 local index wrong")
	}
	if p.LocalIndex(9) != 2 {
		t.Error("block 2 local index wrong")
	}
}

func TestOneDPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewOneD(10, 0) },
		func() { NewOneD(-1, 2) },
		func() { NewOneD(10, 2).Owner(10) },
		func() { NewOneD(10, 2).Owner(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestOneDEdgeImbalance(t *testing.T) {
	// Star graph: all edges on PE owning vertex 0 → imbalance = numPEs.
	g := gen.Star(100)
	p := NewOneD(100, 4)
	if imb := p.EdgeImbalance(g); imb != 4 {
		t.Errorf("star imbalance = %v, want 4", imb)
	}
	empty := graph.MustBuild(10, nil)
	if imb := p2(10, 2).EdgeImbalance(empty); imb != 1 {
		t.Errorf("empty-graph imbalance = %v, want 1", imb)
	}
}

func p2(n, pes int) *OneD { return NewOneD(n, pes) }

func TestEdgeBalancedCoversAllVertices(t *testing.T) {
	g := gen.RMAT(10, 8, gen.DefaultRMAT(), gen.Config{Seed: 1})
	p := NewEdgeBalancedOneD(g, 7)
	total := 0
	for pe := 0; pe < 7; pe++ {
		lo, hi := p.Range(pe)
		total += int(hi - lo)
		for v := lo; v < hi; v++ {
			if p.Owner(v) != pe {
				t.Fatalf("Owner(%d) = %d, want %d", v, p.Owner(v), pe)
			}
		}
	}
	if total != g.NumVertices() {
		t.Fatalf("ranges cover %d of %d vertices", total, g.NumVertices())
	}
}

func TestEdgeBalancedBeatsVertexBalancedOnRMAT(t *testing.T) {
	g := gen.RMAT(12, 8, gen.DefaultRMAT(), gen.Config{Seed: 2})
	vertexBal := NewOneD(g.NumVertices(), 16).EdgeImbalance(g)
	edgeBal := NewEdgeBalancedOneD(g, 16).EdgeImbalance(g)
	if edgeBal >= vertexBal {
		t.Errorf("edge-balanced imbalance %.2f not below vertex-balanced %.2f", edgeBal, vertexBal)
	}
	// A single hub vertex bounds achievable balance, but RMAT at this
	// scale should get close to even.
	if edgeBal > 2.0 {
		t.Errorf("edge-balanced imbalance %.2f unexpectedly high", edgeBal)
	}
}

func TestEdgeBalancedFallbacks(t *testing.T) {
	empty := graph.MustBuild(10, nil)
	p := NewEdgeBalancedOneD(empty, 4)
	// Edgeless graphs fall back to vertex balance.
	total := 0
	for pe := 0; pe < 4; pe++ {
		total += p.Size(pe)
	}
	if total != 10 {
		t.Errorf("edgeless fallback covers %d vertices", total)
	}
	// Star: all edges at vertex 0; first block absorbs them.
	star := gen.Star(100)
	ps := NewEdgeBalancedOneD(star, 4)
	if ps.Owner(0) != 0 {
		t.Error("hub vertex not on PE 0")
	}
	for v := int32(0); v < 100; v++ {
		o := ps.Owner(v)
		if o < 0 || o >= 4 {
			t.Fatalf("Owner(%d) = %d", v, o)
		}
	}
}

func TestEdgeBalancedPanicsOnBadPEs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewEdgeBalancedOneD(gen.Path(5), 0)
}

func TestTwoDEdgeOwnership(t *testing.T) {
	p := NewTwoD(100, 2, 3)
	if p.NumPEs() != 6 {
		t.Fatalf("NumPEs = %d", p.NumPEs())
	}
	r, c := p.Grid()
	if r != 2 || c != 3 {
		t.Fatalf("Grid = (%d,%d)", r, c)
	}
	// Vertex 0 is in row 0, col 0; vertex 99 in row 1, col 2.
	if got := p.OwnerOfEdge(0, 99); got != p.PEAt(0, 2) {
		t.Errorf("OwnerOfEdge(0,99) = %d, want %d", got, p.PEAt(0, 2))
	}
	if got := p.OwnerOfEdge(99, 0); got != p.PEAt(1, 0) {
		t.Errorf("OwnerOfEdge(99,0) = %d, want %d", got, p.PEAt(1, 0))
	}
}

func TestTwoDRowColConsistent(t *testing.T) {
	p := NewTwoD(97, 3, 4)
	for v := int32(0); v < 97; v++ {
		r, c := p.VertexRow(v), p.VertexCol(v)
		if r < 0 || r >= 3 || c < 0 || c >= 4 {
			t.Fatalf("vertex %d mapped to (%d,%d)", v, r, c)
		}
	}
}

func TestTwoDEdgeCountsSum(t *testing.T) {
	g := gen.Uniform(256, 2048, gen.Config{Seed: 3})
	p := NewTwoD(256, 4, 4)
	counts := p.EdgeCounts(g)
	sum := 0
	for _, c := range counts {
		sum += c
	}
	if sum != g.NumEdges() {
		t.Errorf("edge counts sum %d != %d", sum, g.NumEdges())
	}
}

func TestTwoDBeatsOneDOnRMATImbalance(t *testing.T) {
	// The motivation for the RIKEN baseline's 2-D layout (§IV-F, §V): on a
	// power-law graph, 16 PEs arranged 4×4 spread hub edges across a row,
	// while 1-D concentrates each hub's whole edge list on one PE.
	g := gen.RMAT(12, 8, gen.DefaultRMAT(), gen.Config{Seed: 5})
	one := NewOneD(g.NumVertices(), 16).EdgeImbalance(g)
	two := NewTwoD(g.NumVertices(), 4, 4).EdgeImbalance(g)
	if two >= one {
		t.Errorf("2-D imbalance %.2f not better than 1-D %.2f on RMAT", two, one)
	}
}

func TestTwoDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewTwoD with zero rows did not panic")
		}
	}()
	NewTwoD(10, 0, 2)
}

// TestTwoDVertexOwnership pins the vertex-state layout 2-D Δ-stepping
// relies on: every vertex is owned by exactly one PE, that PE sits in the
// vertex's row and column, and its owned interval contains the vertex.
func TestTwoDVertexOwnership(t *testing.T) {
	p := NewTwoD(97, 3, 4)
	covered := 0
	for pe := 0; pe < p.NumPEs(); pe++ {
		lo, hi := p.OwnedRange(pe)
		covered += int(hi - lo)
		for v := lo; v < hi; v++ {
			if p.Owner(v) != pe {
				t.Fatalf("vertex %d in PE %d's range but owned by PE %d", v, pe, p.Owner(v))
			}
		}
	}
	if covered != 97 {
		t.Fatalf("owned ranges cover %d vertices, want 97", covered)
	}
	for v := int32(0); v < 97; v++ {
		if want := p.PEAt(p.VertexRow(v), p.VertexCol(v)); p.Owner(v) != want {
			t.Fatalf("vertex %d owner %d, want grid cell %d", v, p.Owner(v), want)
		}
	}
}

// Property: every vertex is owned by exactly the PE whose range contains it,
// for arbitrary (n, pes).
func TestQuickOneDOwnerTotal(t *testing.T) {
	f := func(nRaw uint16, pesRaw uint8) bool {
		n := int(nRaw % 2000)
		pes := int(pesRaw%63) + 1
		p := NewOneD(n, pes)
		for v := 0; v < n; v++ {
			pe := p.Owner(int32(v))
			lo, hi := p.Range(pe)
			if int32(v) < lo || int32(v) >= hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
