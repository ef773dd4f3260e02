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
		lo, hi := p.Range(pe)
		s := int(hi - lo)
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

// A PE's local index of a vertex is its offset from the block start.
func TestOneDLocalIndex(t *testing.T) {
	p := NewOneD(10, 3) // blocks: [0,4) [4,7) [7,10)
	for pe, want := range [][2]int32{{0, 4}, {4, 7}, {7, 10}} {
		if lo, hi := p.Range(pe); lo != want[0] || hi != want[1] {
			t.Errorf("block %d = [%d,%d), want [%d,%d)", pe, lo, hi, want[0], want[1])
		}
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
		lo, hi := p.Range(pe)
		total += int(hi - lo)
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
