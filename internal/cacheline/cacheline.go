// Package cacheline allocates state that one goroutine rewrites on cache
// lines that no other allocation shares.
//
// A trailing `_ [64]byte` pad (the convention the sharedpad analyzer
// checks) separates the elements of one slice of structs. It cannot
// separate two small allocations made back to back: Go's allocator packs
// objects of one size class next to each other, so four 48-byte arrays,
// one per PE, share two lines between them, and every write by one PE
// invalidates its neighbour's copy. Make and New pad the allocation itself
// on both sides, so the result holds whole lines of its own wherever the
// allocator places it.
package cacheline

import "unsafe"

// Size is the cache-line size the padding assumes: 64 bytes on x86-64 and
// on most arm64 cores.
const Size = 64

// Make returns a slice of n zero Es, with length and capacity n, whose
// bytes share no Size-byte line with any other allocation. The capacity is
// exact so an append past n reallocates rather than writing into the pad.
func Make[E any](n int) []E {
	var zero E
	size := int(unsafe.Sizeof(zero))
	if size == 0 {
		return make([]E, n)
	}
	// At least Size bytes before the first element and after the last:
	// the line holding either end then starts or ends inside the array.
	pad := (Size + size - 1) / size
	s := make([]E, n+2*pad)
	return s[pad : pad+n : pad+n]
}

// New returns a pointer to a zero E that shares no Size-byte line with any
// other allocation.
func New[E any]() *E { return &Make[E](1)[0] }

// Region is the bytes [Addr, Addr+Len) that the goroutine of Owner writes.
type Region struct {
	Owner     int
	Addr, Len uintptr
}

// SliceRegion is the backing array of s up to its capacity, everything an
// append to s may write.
func SliceRegion[E any](owner int, s []E) Region {
	var zero E
	return Region{owner, uintptr(unsafe.Pointer(unsafe.SliceData(s))), uintptr(cap(s)) * unsafe.Sizeof(zero)}
}

// PtrRegion is the E that p points to.
func PtrRegion[E any](owner int, p *E) Region {
	return Region{owner, uintptr(unsafe.Pointer(p)), unsafe.Sizeof(*p)}
}

// SharedLine reports the first pair of regions of different owners that
// touch one Size-byte line, and that line's address. Layout tests use it to
// check that per-PE state sits where Make and New put it; empty regions
// touch nothing.
func SharedLine(regions []Region) (line uintptr, a, b Region, shared bool) {
	for i, ra := range regions {
		for _, rb := range regions[i+1:] {
			if ra.Owner == rb.Owner || ra.Len == 0 || rb.Len == 0 {
				continue
			}
			lo := max(ra.Addr/Size, rb.Addr/Size)
			hi := min((ra.Addr+ra.Len-1)/Size, (rb.Addr+rb.Len-1)/Size)
			if lo <= hi {
				return lo * Size, ra, rb, true
			}
		}
	}
	return 0, Region{}, Region{}, false
}
