package partition

import (
	"testing"
	"testing/quick"

	"acic/internal/gen"
)

// chunkOwners reads the deal back from NewChunked's permutation: the PE
// each input vertex goes to, and the id it takes.
func chunkOwners(order []int32, part *OneD) (owner []int, newID []int32) {
	owner = make([]int, len(order))
	newID = make([]int32, len(order))
	for pe := 0; pe < part.NumPEs(); pe++ {
		lo, hi := part.Range(pe)
		for i := lo; i < hi; i++ {
			owner[order[i]], newID[order[i]] = pe, i
		}
	}
	return owner, newID
}

// isPermutation reports whether order lists every vertex of [0, n) once.
func isPermutation(order []int32, n int) bool {
	if len(order) != n {
		return false
	}
	seen := make([]bool, n)
	for _, v := range order {
		if v < 0 || int(v) >= n || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

func TestChunkedOwnerRoundRobin(t *testing.T) {
	// 100 vertices, 4 PEs, 5 chunks/PE → 20 chunks of 5.
	owner, _ := chunkOwners(NewChunked(100, 4, 5))
	if owner[0] != 0 || owner[4] != 0 {
		t.Error("first chunk should be PE 0")
	}
	if owner[5] != 1 || owner[19] != 3 {
		t.Error("round robin assignment wrong")
	}
	if owner[20] != 0 {
		t.Error("fifth chunk should wrap to PE 0")
	}
}

func TestChunkedSizeSumsToVertices(t *testing.T) {
	for _, c := range []struct{ n, pes, cpp int }{
		{100, 4, 5}, {103, 7, 3}, {5, 8, 2}, {1, 1, 1}, {64, 3, 4},
	} {
		order, p := NewChunked(c.n, c.pes, c.cpp)
		total := 0
		for pe := 0; pe < c.pes; pe++ {
			lo, hi := p.Range(pe)
			total += int(hi - lo)
		}
		if total != c.n || !isPermutation(order, c.n) {
			t.Errorf("n=%d pes=%d cpp=%d: blocks sum to %d, permutation %v", c.n, c.pes, c.cpp, total, isPermutation(order, c.n))
		}
	}
}

// Each PE's block lists its chunks in ascending order, and the block
// partition's Owner finds every relabelled vertex's PE.
func TestChunkedLocalGlobalRoundTrip(t *testing.T) {
	for _, c := range []struct{ n, pes, cpp int }{
		{100, 4, 5}, {103, 7, 3}, {17, 4, 2}, {64, 3, 4}, {5, 8, 2},
	} {
		order, p := NewChunked(c.n, c.pes, c.cpp)
		owner, newID := chunkOwners(order, p)
		for v := int32(0); int(v) < c.n; v++ {
			if got := p.Owner(newID[v]); got != owner[v] {
				t.Fatalf("n=%d pes=%d cpp=%d: Owner(%d) = %d for vertex %d of PE %d", c.n, c.pes, c.cpp, newID[v], got, v, owner[v])
			}
		}
		for pe := 0; pe < c.pes; pe++ {
			lo, hi := p.Range(pe)
			for i := lo + 1; i < hi; i++ {
				if order[i] <= order[i-1] {
					t.Fatalf("n=%d pes=%d cpp=%d: PE %d's block is not ascending at %d", c.n, c.pes, c.cpp, pe, i)
				}
			}
		}
	}
}

func TestChunkedReducesHubImbalance(t *testing.T) {
	// The point of §V over-decomposition: on RMAT, chunked round-robin
	// spreads hub neighborhoods better than plain blocks.
	g := gen.RMAT(12, 8, gen.DefaultRMAT(), gen.Config{Seed: 3})
	pes := 16
	block := NewOneD(g.NumVertices(), pes)
	chunked, _ := chunkOwners(NewChunked(g.NumVertices(), pes, 16))
	edgesPer := func(owner func(int32) int) float64 {
		counts := make([]int, pes)
		for v := 0; v < g.NumVertices(); v++ {
			counts[owner(int32(v))] += g.OutDegree(v)
		}
		max := 0
		for _, c := range counts {
			if c > max {
				max = c
			}
		}
		return float64(max) * float64(pes) / float64(g.NumEdges())
	}
	bi := edgesPer(block.Owner)
	ci := edgesPer(func(v int32) int { return chunked[v] })
	if ci >= bi {
		t.Errorf("chunked imbalance %.2f not below block %.2f", ci, bi)
	}
}

func TestChunkedPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewChunked(10, 0, 1) },
		func() { NewChunked(10, 2, 0) },
		func() { NewChunked(-1, 2, 1) },
		func() { _, p := NewChunked(10, 2, 2); p.Owner(10) },
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

// Property: the permutation and the block partition over it are mutually
// consistent for arbitrary shapes.
func TestQuickChunkedConsistent(t *testing.T) {
	f := func(nRaw uint16, pesRaw, cppRaw uint8) bool {
		n := int(nRaw % 3000)
		pes := int(pesRaw%15) + 1
		cpp := int(cppRaw%8) + 1
		order, p := NewChunked(n, pes, cpp)
		if _, hi := p.Range(pes - 1); !isPermutation(order, n) || int(hi) != n {
			return false
		}
		owner, newID := chunkOwners(order, p)
		for v := 0; v < n; v++ {
			if p.Owner(newID[v]) != owner[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
