// Package partition maps vertices to processing elements.
//
// ACIC uses a one-dimensional partitioning: each PE owns a contiguous block
// of vertices and the out-edges of those vertices, and exactly one copy of
// each vertex object exists (§II-A). The Δ-stepping comparator uses an
// edge-balanced variant of the same blocks in place of the RIKEN code's
// two-dimensional adjacency-matrix partitioning (§IV-A), so ACIC and the
// baselines share one vocabulary.
package partition

import (
	"fmt"
	"math"
	"math/bits"

	"acic/internal/graph"
)

// divisor divides 32-bit numerators by a d fixed at construction with one
// multiply-high (Lemire, Kaser, Kurz 2019): m = ⌊(2^64−1)/d⌋ + 1 = ⌈2^64/d⌉
// gives ⌊n/d⌋ = ⌊m·n / 2^64⌋ for every n < 2^32 and 2 ≤ d < 2^32 (the
// error m·d − 2^64 < d, scaled by n/2^64 < 2^-32, stays below the 1/d gap
// to the next quotient; DESIGN.md §5). d = 1 overflows m to 0: the identity.
type divisor struct{ m uint64 }

func newDivisor(d int) divisor {
	if d < 1 || d > math.MaxUint32 {
		panic(fmt.Sprintf("partition: divisor %d out of range [1,2^32)", d))
	}
	return divisor{m: math.MaxUint64/uint64(d) + 1}
}

// div returns n / d.
//
//acic:noalloc
func (x divisor) div(n uint32) uint32 {
	if x.m == 0 {
		return n
	}
	hi, _ := bits.Mul64(x.m, uint64(n))
	return uint32(hi)
}

// outOfRange keeps the panic's formatting out of the lookups.
//
//go:noinline
func outOfRange(v int32, numVertices int) {
	panic(fmt.Sprintf("partition: vertex %d out of range [0,%d)", v, numVertices))
}

// checkShape panics unless numVertices can be addressed with int32 vertex
// ids (a larger count used to wrap the block starts silently).
func checkShape(numVertices, numPEs int) {
	if numPEs <= 0 {
		panic("partition: numPEs must be positive")
	}
	if numVertices < 0 {
		panic("partition: negative numVertices")
	}
	if numVertices > math.MaxInt32 {
		panic(fmt.Sprintf("partition: numVertices %d does not fit int32 vertex ids", numVertices))
	}
}

// OneD assigns vertices to numPEs PEs in contiguous blocks of near-equal
// vertex count. This is ACIC's partition and the source of the load
// imbalance the paper discusses on RMAT graphs (§IV-F): blocks equalize
// vertices, not edges.
type OneD struct {
	numVertices int
	numPEs      int
	// starts[p] is the first vertex of PE p; starts[numPEs] = numVertices.
	starts []int32
	// custom marks non-uniform block boundaries (edge-balanced layout);
	// Owner then binary-searches starts instead of using block arithmetic.
	custom bool

	// Uniform layout, fixed at construction: the first extra blocks hold
	// base+1 vertices (byBase1) and end at boundary, the rest base (byBase).
	base, boundary  int32
	extra           int
	byBase1, byBase divisor
}

// NewOneD builds a 1-D block partition of numVertices over numPEs PEs. It
// panics if numPEs <= 0, numVertices < 0, or numVertices exceeds int32.
func NewOneD(numVertices, numPEs int) *OneD {
	checkShape(numVertices, numPEs)
	p := &OneD{numVertices: numVertices, numPEs: numPEs, starts: make([]int32, numPEs+1)}
	base := numVertices / numPEs
	extra := numVertices % numPEs
	p.base, p.extra, p.boundary = int32(base), extra, int32(extra*(base+1))
	p.byBase1, p.byBase = newDivisor(base+1), newDivisor(max(base, 1))
	off := 0
	for i := 0; i < numPEs; i++ {
		p.starts[i] = int32(off)
		off += base
		if i < extra {
			off++
		}
	}
	p.starts[numPEs] = int32(numVertices)
	return p
}

// NumPEs returns the PE count.
func (p *OneD) NumPEs() int { return p.numPEs }

// NumVertices returns the vertex count.
func (p *OneD) NumVertices() int { return p.numVertices }

// NewEdgeBalancedOneD builds a 1-D block partition whose boundaries are
// chosen so each PE owns approximately equal *edge* counts rather than
// equal vertex counts. This is the repository's stand-in for the RIKEN
// code's 2-D partitioning (§IV-A): what matters for the SSSP comparison is
// that hub-heavy blocks do not concentrate relaxation work on one PE, and
// an edge-balanced contiguous layout achieves that while keeping the 1-D
// ownership interface. The substitution is recorded in DESIGN.md.
func NewEdgeBalancedOneD(g *graph.Graph, numPEs int) *OneD {
	if numPEs <= 0 {
		panic("partition: numPEs must be positive")
	}
	n := g.NumVertices()
	p := &OneD{numVertices: n, numPEs: numPEs, starts: make([]int32, numPEs+1), custom: true}
	total := int64(g.NumEdges())
	var cum int64
	pe := 1
	for v := 0; v < n && pe < numPEs; v++ {
		cum += int64(g.OutDegree(v))
		// Close block pe-1 once it holds its proportional share of edges.
		for pe < numPEs && cum >= total*int64(pe)/int64(numPEs) {
			p.starts[pe] = int32(v + 1)
			pe++
		}
	}
	// Any unclosed blocks own empty tail ranges.
	for ; pe < numPEs; pe++ {
		p.starts[pe] = int32(n)
	}
	p.starts[numPEs] = int32(n)
	// Boundaries must be non-decreasing and start at 0 (already true by
	// construction); ensure every vertex is covered even for edgeless
	// graphs, where all interior boundaries collapse to n.
	if n > 0 && total == 0 {
		// Fall back to vertex balance: an edgeless graph has no edge
		// signal to balance on.
		return NewOneD(n, numPEs)
	}
	return p
}

// Owner returns the PE owning vertex v. The block layout allows O(1)
// arithmetic by reciprocal: the first `extra` blocks have base+1 vertices.
// Edge-balanced layouts binary-search the block boundaries instead.
//
//acic:noalloc
func (p *OneD) Owner(v int32) int {
	if v < 0 || int(v) >= p.numVertices {
		outOfRange(v, p.numVertices)
	}
	if p.custom {
		// Find the last start <= v.
		lo, hi := 0, p.numPEs-1
		for lo < hi {
			mid := (lo + hi + 1) / 2
			if p.starts[mid] <= v {
				lo = mid
			} else {
				hi = mid - 1
			}
		}
		return lo
	}
	if p.base == 0 {
		// Fewer vertices than PEs: vertex v lives on PE v.
		return int(v)
	}
	if v < p.boundary {
		return int(p.byBase1.div(uint32(v)))
	}
	return p.extra + int(p.byBase.div(uint32(v-p.boundary)))
}

// Range returns the half-open vertex interval [lo, hi) owned by PE pe.
func (p *OneD) Range(pe int) (lo, hi int32) {
	return p.starts[pe], p.starts[pe+1]
}

// LocalIndex converts a global vertex id to its index within the owner's
// block. It costs an Owner lookup; a caller that already knows the owner
// (a PE indexing its own vertices) should use LocalOn.
func (p *OneD) LocalIndex(v int32) int {
	return p.LocalOn(p.Owner(v), v)
}

// LocalOn is LocalIndex for a caller that knows pe owns v.
//
//acic:noalloc
func (p *OneD) LocalOn(pe int, v int32) int {
	return int(v - p.starts[pe])
}

// Size returns the number of vertices on PE pe.
func (p *OneD) Size(pe int) int {
	return int(p.starts[pe+1] - p.starts[pe])
}

// GlobalOf inverts LocalIndex for PE pe.
func (p *OneD) GlobalOf(pe, local int) int32 {
	return p.starts[pe] + int32(local)
}

// EdgeImbalance computes max-over-PEs(edges)/mean(edges), the load-imbalance
// figure of merit: 1.0 is perfect, large values explain ACIC's RMAT losses.
func (p *OneD) EdgeImbalance(g *graph.Graph) float64 {
	if g.NumEdges() == 0 {
		return 1
	}
	max := 0
	for pe := 0; pe < p.numPEs; pe++ {
		lo, hi := p.Range(pe)
		e := 0
		for v := lo; v < hi; v++ {
			e += g.OutDegree(int(v))
		}
		if e > max {
			max = e
		}
	}
	mean := float64(g.NumEdges()) / float64(p.numPEs)
	return float64(max) / mean
}
