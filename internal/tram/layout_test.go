package tram

import (
	"testing"

	"acic/internal/cacheline"
	"acic/internal/netsim"
)

// TestPrivateSetsShareNoLine checks the layout the worker modes exist for:
// every Insert rewrites a slice header in its set's bufs array, so two
// source PEs whose arrays share a cache line would contend on every
// update even though neither reads the other's buffers. The sets
// themselves carry a pad; the arrays they point to are separate small
// allocations that the allocator packs side by side unless they are
// padded too.
func TestPrivateSetsShareNoLine(t *testing.T) {
	for _, topo := range []netsim.Topology{{Nodes: 1, ProcsPerNode: 2, PEsPerProc: 2}, netsim.PaperNode(1)} {
		for _, mode := range []Mode{WW, WP} {
			m, err := New[uint64](topo, mode, 16)
			if err != nil {
				t.Fatal(err)
			}
			var regions []cacheline.Region
			for pe := range m.sets {
				regions = append(regions, cacheline.SliceRegion(pe, m.sets[pe].bufs))
			}
			if line, a, b, shared := cacheline.SharedLine(regions); shared {
				t.Errorf("%+v %v: the bufs arrays of PEs %d and %d share line %#x", topo, mode, a.Owner, b.Owner, line)
			}
		}
	}
}
