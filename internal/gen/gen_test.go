package gen

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"acic/internal/graph"
)

func TestUniformShape(t *testing.T) {
	g := Uniform(1000, 8000, Config{Seed: 1})
	if g.NumVertices() != 1000 || g.NumEdges() != 8000 {
		t.Fatalf("shape = (%d,%d)", g.NumVertices(), g.NumEdges())
	}
}

func TestUniformDeterministic(t *testing.T) {
	a := Uniform(100, 500, Config{Seed: 7})
	b := Uniform(100, 500, Config{Seed: 7})
	ae, be := a.Edges(), b.Edges()
	for i := range ae {
		if ae[i] != be[i] {
			t.Fatalf("edge %d differs with same seed", i)
		}
	}
	c := Uniform(100, 500, Config{Seed: 8})
	ce := c.Edges()
	diff := 0
	for i := range ae {
		if ae[i] != ce[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestUniformWeightsInRange(t *testing.T) {
	g := Uniform(100, 2000, Config{Seed: 3, MaxWeight: 10})
	g.EachEdge(func(_, _ int32, w float64) {
		if w < 1 || w >= 10 {
			t.Fatalf("weight %v out of [1,10)", w)
		}
	})
}

func TestUniformDegreeIsBalanced(t *testing.T) {
	// Uniform endpoints: max out-degree should stay near the mean (no
	// power law). With n=2048, m=16*n, mean degree is 16; the max of n
	// binomial(m, 1/n) draws is ~16+6*sqrt(16) with overwhelming
	// probability.
	g := Uniform(2048, 16*2048, Config{Seed: 5})
	s := g.OutDegreeStats()
	if s.Max > 60 {
		t.Errorf("uniform graph max degree %d looks power-law", s.Max)
	}
	if math.Abs(s.Mean-16) > 0.001 {
		t.Errorf("mean degree = %v, want 16", s.Mean)
	}
}

func TestRMATShape(t *testing.T) {
	g := RMAT(10, 16, DefaultRMAT(), Config{Seed: 1})
	if g.NumVertices() != 1024 || g.NumEdges() != 16*1024 {
		t.Fatalf("shape = (%d,%d)", g.NumVertices(), g.NumEdges())
	}
}

func TestRMATPowerLaw(t *testing.T) {
	// The defining property the paper relies on (§IV-B): "a few vertices
	// have a very high degree and most vertices have a very low degree."
	g := RMAT(12, 16, DefaultRMAT(), Config{Seed: 2})
	s := g.OutDegreeStats()
	if s.Max < 10*int(s.Mean) {
		t.Errorf("RMAT max degree %d not ≫ mean %.1f — no power law", s.Max, s.Mean)
	}
	if s.P50 > int(s.Mean) {
		t.Errorf("RMAT median degree %d above mean %.1f — degree not skewed", s.P50, s.Mean)
	}
}

func TestRMATDeterministic(t *testing.T) {
	a := RMAT(8, 8, DefaultRMAT(), Config{Seed: 9})
	b := RMAT(8, 8, DefaultRMAT(), Config{Seed: 9})
	ae, be := a.Edges(), b.Edges()
	for i := range ae {
		if ae[i] != be[i] {
			t.Fatalf("edge %d differs with same seed", i)
		}
	}
}

func TestRMATVsUniformSkew(t *testing.T) {
	// Cross-check the paper's central dataset contrast at equal shape.
	rmat := RMAT(12, 16, DefaultRMAT(), Config{Seed: 4})
	unif := Uniform(1<<12, 16<<12, Config{Seed: 4})
	rs, us := rmat.OutDegreeStats(), unif.OutDegreeStats()
	if rs.Max <= 2*us.Max {
		t.Errorf("RMAT max degree %d not clearly above uniform max %d", rs.Max, us.Max)
	}
}

func TestErdosRenyiProperties(t *testing.T) {
	g := ErdosRenyi(500, 3000, Config{Seed: 1})
	if g.NumEdges() != 3000 {
		t.Fatalf("NumEdges = %d, want 3000", g.NumEdges())
	}
	seen := map[[2]int32]bool{}
	g.EachEdge(func(from, to int32, _ float64) {
		if from == to {
			t.Fatalf("self-loop %d", from)
		}
		k := [2]int32{from, to}
		if seen[k] {
			t.Fatalf("duplicate edge %v", k)
		}
		seen[k] = true
	})
}

func TestGridShapeAndDiameter(t *testing.T) {
	g := Grid(10, 20, Config{Seed: 1})
	if g.NumVertices() != 200 {
		t.Fatalf("NumVertices = %d", g.NumVertices())
	}
	// Edges: horizontal 10*19, vertical 9*20, both directions.
	want := 2 * (10*19 + 9*20)
	if g.NumEdges() != want {
		t.Fatalf("NumEdges = %d, want %d", g.NumEdges(), want)
	}
	// Corner vertex 0 reaches everything (grid is strongly connected).
	v, _ := g.ReachableFrom(0)
	if v != 200 {
		t.Fatalf("grid not strongly connected: reach %d", v)
	}
}

func TestGridSymmetricWeights(t *testing.T) {
	g := Grid(5, 5, Config{Seed: 2})
	// Every edge must have a reverse edge with the same weight.
	type key struct{ a, b int32 }
	w := map[key]float64{}
	g.EachEdge(func(from, to int32, wt float64) { w[key{from, to}] = wt })
	g.EachEdge(func(from, to int32, wt float64) {
		if w[key{to, from}] != wt {
			t.Fatalf("asymmetric weight on %d<->%d", from, to)
		}
	})
}

func TestFixtures(t *testing.T) {
	p := Path(5)
	if p.NumEdges() != 4 || p.OutDegree(4) != 0 {
		t.Fatal("Path wrong")
	}
	s := Star(5)
	if s.OutDegree(0) != 4 || s.NumEdges() != 4 {
		t.Fatal("Star wrong")
	}
	c := Cycle(5)
	if c.NumEdges() != 5 || c.OutDegree(4) != 1 {
		t.Fatal("Cycle wrong")
	}
	k := Complete(4, Config{Seed: 1})
	if k.NumEdges() != 12 {
		t.Fatal("Complete wrong")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}
	if c.maxWeight() != 256 {
		t.Errorf("default MaxWeight = %v, want 256", c.maxWeight())
	}
	c.MaxWeight = 0.5 // below lower bound 1 → default
	if c.maxWeight() != 256 {
		t.Errorf("sub-1 MaxWeight not defaulted")
	}
}

// Property: every generator emits edges within vertex bounds and weights
// within [1, MaxWeight).
func TestQuickGeneratorsValid(t *testing.T) {
	f := func(seed uint64, sRaw uint8) bool {
		scale := int(sRaw%5) + 5 // 5..9
		cfg := Config{Seed: seed, MaxWeight: 64}
		graphs := []interface {
			NumVertices() int
			NumEdges() int
			EachEdge(func(int32, int32, float64))
		}{
			RMAT(scale, 4, DefaultRMAT(), cfg),
			Uniform(1<<scale, 4<<scale, cfg),
			Grid(1<<(scale/2), 1<<(scale/2), cfg),
		}
		for _, g := range graphs {
			n := int32(g.NumVertices())
			ok := true
			g.EachEdge(func(from, to int32, w float64) {
				if from < 0 || from >= n || to < 0 || to >= n || w < 1 || w >= 64 {
					ok = false
				}
			})
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func BenchmarkRMATScale14(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RMAT(14, 16, DefaultRMAT(), Config{Seed: uint64(i)})
	}
}

func BenchmarkUniformScale14(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Uniform(1<<14, 16<<14, Config{Seed: uint64(i)})
	}
}

// TestByKind pins the recipe behind every command's -kind flag: the named
// family at 2^scale vertices, identical to calling the generator directly,
// and an error for an unknown name.
func TestByKind(t *testing.T) {
	cfg := Config{Seed: 3}
	want := map[string]*graph.Graph{
		"rmat":   RMAT(7, 4, DefaultRMAT(), cfg),
		"random": Uniform(128, 512, cfg),
		"grid":   Grid(16, 8, cfg), // 2^⌈7/2⌉ rows, 2^⌊7/2⌋ columns
	}
	for kind, w := range want {
		g, err := ByKind(kind, 7, 4, cfg)
		if err != nil {
			t.Errorf("ByKind(%q): %v", kind, err)
			continue
		}
		if g.NumVertices() != w.NumVertices() || !reflect.DeepEqual(g.Edges(), w.Edges()) {
			t.Errorf("ByKind(%q): %d vertices, %d edges differ from the direct call's %d, %d",
				kind, g.NumVertices(), g.NumEdges(), w.NumVertices(), w.NumEdges())
		}
	}
	if _, err := ByKind("erdos", 7, 4, cfg); err == nil {
		t.Error("ByKind accepted a kind outside rmat | random | grid")
	}
}

// TestByKindHasTwoToTheScaleVertices holds every kind to its doc at every
// scale the commands take in practice, odd and even.
func TestByKindHasTwoToTheScaleVertices(t *testing.T) {
	for _, kind := range []string{"rmat", "random", "grid"} {
		for scale := 1; scale <= 14; scale++ {
			t.Run(fmt.Sprintf("%s/%d", kind, scale), func(t *testing.T) {
				g, err := ByKind(kind, scale, 1, Config{Seed: 5})
				if err != nil {
					t.Fatal(err)
				}
				if g.NumVertices() != 1<<scale {
					t.Errorf("%d vertices, want 2^%d = %d", g.NumVertices(), scale, 1<<scale)
				}
			})
		}
	}
}

// TestByKindGridEvenScaleIsSquare: at an even scale the grid is the square
// of side 2^(scale/2) it always was, edge for edge.
func TestByKindGridEvenScaleIsSquare(t *testing.T) {
	cfg := Config{Seed: 6}
	for scale := 2; scale <= 12; scale += 2 {
		side := 1 << (scale / 2)
		g, err := ByKind("grid", scale, 8, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if w := Grid(side, side, cfg); !reflect.DeepEqual(g.Edges(), w.Edges()) {
			t.Errorf("scale %d: grid differs from the %d×%d square", scale, side, side)
		}
	}
}
