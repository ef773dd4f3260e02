package partition

// The lookups divide by multiplying with a reciprocal fixed at
// construction. These tests pin them to the plain-division arithmetic they
// replaced, which lives on only here, as the reference.

import (
	"math"
	"testing"
	"testing/quick"
)

// refOneD is the division-based block arithmetic: the first n%pes blocks
// hold n/pes+1 vertices, the rest n/pes.
func refOneD(n, pes int, v int32) (owner, local int) {
	base, extra := n/pes, n%pes
	if base == 0 {
		return int(v), 0
	}
	boundary := extra * (base + 1)
	if int(v) < boundary {
		return int(v) / (base + 1), int(v) % (base + 1)
	}
	return extra + (int(v)-boundary)/base, (int(v) - boundary) % base
}

// refChunked is the division-based round-robin deal of chunks.
func refChunked(chunkSize, pes int, v int32) (owner, local int) {
	chunk := int(v) / chunkSize
	return chunk % pes, chunk/pes*chunkSize + int(v)%chunkSize
}

// checkOneD compares v's owner and local index (its offset in the owner's
// block) with the reference's answer. It runs tens of millions of times,
// so it skips t.Helper (a lock and a stack walk per call).
func checkOneD(t *testing.T, p *OneD, n, pes int, v int32) {
	owner, local := refOneD(n, pes, v)
	if got := p.Owner(v); got != owner {
		t.Fatalf("n=%d pes=%d: Owner of vertex %d = %d, want %d", n, pes, v, got, owner)
	}
	if lo, _ := p.Range(owner); int(v-lo) != local {
		t.Fatalf("n=%d pes=%d: local index of vertex %d = %d, want %d", n, pes, v, v-lo, local)
	}
}

// checkChunked compares NewChunked's permutation with the reference deal:
// every vertex takes the id its owner's block start plus its reference
// local index, and the block partition's Owner finds that id's PE.
func checkChunked(t *testing.T, n, pes, cpp int) {
	order, p := NewChunked(n, pes, cpp)
	if len(order) != n {
		t.Fatalf("n=%d pes=%d cpp=%d: %d ids", n, pes, cpp, len(order))
	}
	totalChunks := pes * cpp
	chunkSize := max((n+totalChunks-1)/totalChunks, 1)
	for v := int32(0); int(v) < n; v++ {
		owner, local := refChunked(chunkSize, pes, v)
		lo, hi := p.Range(owner)
		id := lo + int32(local)
		if id >= hi || order[id] != v {
			t.Fatalf("n=%d pes=%d cpp=%d: vertex %d is not at id %d of PE %d's block [%d,%d)", n, pes, cpp, v, id, owner, lo, hi)
		}
		if got := p.Owner(id); got != owner {
			t.Fatalf("n=%d pes=%d cpp=%d: Owner(%d) = %d, want %d", n, pes, cpp, id, got, owner)
		}
	}
}

// largeSizes are the benchmark's 2^15, a prime, and 2^20.
var largeSizes = []int{1 << 15, 99991, 1 << 20}

func TestOneDMatchesDivisionReference(t *testing.T) {
	for pes := 1; pes <= 17; pes++ {
		for n := 0; n <= 2000; n++ {
			p := NewOneD(n, pes)
			for v := int32(0); int(v) < n; v++ {
				checkOneD(t, p, n, pes, v)
			}
		}
		for _, n := range largeSizes {
			p := NewOneD(n, pes)
			for v := int32(0); int(v) < n; v++ {
				checkOneD(t, p, n, pes, v)
			}
		}
	}
}

// The largest addressable partition: every block edge and its neighbours.
func TestOneDBlockEdgesAtMaxInt32(t *testing.T) {
	const n, pes = math.MaxInt32, 3
	p := NewOneD(n, pes)
	for pe := 0; pe < pes; pe++ {
		lo, hi := p.Range(pe)
		for _, v := range []int32{lo, lo + 1, hi - 2, hi - 1} {
			checkOneD(t, p, n, pes, v)
			if got := p.Owner(v); got != pe {
				t.Errorf("Owner(%d) = %d, want %d: block [%d,%d)", v, got, pe, lo, hi)
			}
		}
	}
}

func TestChunkedMatchesDivisionReference(t *testing.T) {
	for pes := 1; pes <= 17; pes++ {
		for cpp := 1; cpp <= 8; cpp++ {
			// Every n to 400, then every seventh to 2000: the chunk size,
			// not n itself, is what the deal depends on.
			for n := 0; n <= 2000; n++ {
				if n > 400 && n%7 != 0 {
					continue
				}
				checkChunked(t, n, pes, cpp)
			}
		}
		for _, n := range largeSizes {
			checkChunked(t, n, pes, 1+pes%8)
		}
	}
}

func TestDivisorMatchesHardwareDivision(t *testing.T) {
	f := func(n, d uint32) bool {
		if d == 0 {
			d = 1
		}
		return newDivisor(int(d)).div(n) == n/d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200000}); err != nil {
		t.Error(err)
	}
	// The numerators where a rounded reciprocal would first go wrong: just
	// below and at a multiple of d, at both ends of the 32-bit range.
	for _, d := range []uint32{1, 2, 3, 5, 7, 641, 1 << 16, 1<<16 + 1, 1 << 31, 1<<31 + 1, math.MaxUint32 - 1, math.MaxUint32} {
		x := newDivisor(int(d))
		top := math.MaxUint32 / d * d // largest multiple of d
		for _, n := range []uint32{0, 1, d - 1, d, d + 1, top - 1, top, top + (d-1)/2, math.MaxUint32} {
			if got := x.div(n); got != n/d {
				t.Errorf("%d / %d = %d, want %d", n, d, got, n/d)
			}
		}
	}
}

// A vertex count beyond int32 used to wrap the block starts silently.
func TestConstructorsRejectSizesBeyondInt32(t *testing.T) {
	if math.MaxInt == math.MaxInt32 {
		t.Skip("int is 32 bits: the size cannot be expressed")
	}
	tooMany := math.MaxInt32
	tooMany++
	for name, fn := range map[string]func(){
		"NewOneD":    func() { NewOneD(tooMany, 3) },
		"NewChunked": func() { NewChunked(tooMany, 3, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(%d, …) did not panic", name, tooMany)
				}
			}()
			fn()
		}()
	}
}

// BenchmarkOwner is one owner lookup on a random vertex — the unit the
// update path pays once per hop to a remote vertex — on the benchmark's
// 2^15 vertices over 4 PEs: the block layout, and the block partition of an
// over-decomposed layout's relabelled ids (blocks of unequal size, found by
// binary search). Each lookup's
// result picks the next vertex, as an owner picks the buffer or the branch
// that follows it: the row reads the lookup's latency, which independent
// lookups in a loop would hide.
func BenchmarkOwner(b *testing.B) {
	const n, pes = 1 << 15, 4
	vs := make([]int32, 1<<12)
	for i := range vs {
		vs[i] = int32(uint32(i) * 2654435761 % n)
	}
	for _, bc := range []struct {
		name  string
		owner func(int32) int
	}{
		{"oned", NewOneD(n, pes).Owner},
		{"chunked", chunkedBlocks(n, pes, 8).Owner},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			sum := 0
			for i := 0; i < b.N; i++ {
				sum += bc.owner(vs[(i+sum)&(len(vs)-1)])
			}
			ownerSink = sum
		})
	}
}

var ownerSink int

func chunkedBlocks(n, pes, cpp int) *OneD {
	_, p := NewChunked(n, pes, cpp)
	return p
}
