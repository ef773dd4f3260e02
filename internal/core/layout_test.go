package core

import (
	"testing"

	"acic/internal/cacheline"
	"acic/internal/gen"
	"acic/internal/netsim"
)

// TestPerPEStateSharesNoLine checks that what every update rewrites on a
// PE sits on cache lines no other PE's state shares: the handler itself
// (counters, debt, fwdTouched's header), its Scratch slot (the queue's
// cursor and counts) and the demux scratch receiveBatch appends to for
// every forwarded update (fwdBufs, fwdTouched). Each is a separate small
// allocation per PE, made back to back, which the allocator packs side by
// side unless it is padded.
func TestPerPEStateSharesNoLine(t *testing.T) {
	g := gen.Uniform(1<<9, 1<<12, gen.Config{Seed: 1})
	for _, topo := range []netsim.Topology{{Nodes: 1, ProcsPerNode: 2, PEsPerProc: 2}, netsim.PaperNode(1)} {
		sc := &Scratch{}
		s, err := newSetup(g, 0, Options{Topo: topo, Scratch: sc}, false)
		if err != nil {
			t.Fatal(err)
		}
		run, err := s.run()
		sc.release()
		if err != nil {
			t.Fatal(err)
		}
		var regions []cacheline.Region
		for pe, slot := range sc.slots {
			st := run.Handlers[pe]
			regions = append(regions,
				cacheline.PtrRegion(pe, st),
				cacheline.PtrRegion(pe, slot),
				cacheline.SliceRegion(pe, slot.fwdBufs),
				cacheline.SliceRegion(pe, slot.fwdTouched))
		}
		if line, a, b, shared := cacheline.SharedLine(regions); shared {
			t.Errorf("%+v: PEs %d and %d write line %#x (regions %+v and %+v)", topo, a.Owner, b.Owner, line, a, b)
		}
	}
}
