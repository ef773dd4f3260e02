package runtime

import (
	"testing"

	"acic/internal/cacheline"
	"acic/internal/netsim"
)

// TestPEsShareNoLine checks that no two PEs' structs or mailboxes share a
// cache line: a PE writes its own struct per message and its producers
// write its mailbox per push, and the runtime allocates both for every PE
// back to back, which packs them side by side unless they are padded.
// Whether two unpadded neighbours straddle a line depends on where in its
// span the first one lands, so each shape is built several times.
func TestPEsShareNoLine(t *testing.T) {
	for i := 0; i < 8; i++ {
		for _, topo := range []netsim.Topology{{Nodes: 1, ProcsPerNode: 2, PEsPerProc: 2}, netsim.PaperNode(1)} {
			checkPEsShareNoLine(t, topo)
		}
	}
}

func checkPEsShareNoLine(t *testing.T, topo netsim.Topology) {
	t.Helper()
	rt, err := New(Config{Topo: topo})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.fab.Close()
	var regions []cacheline.Region
	for i, pe := range rt.pes {
		regions = append(regions, cacheline.PtrRegion(i, pe), cacheline.PtrRegion(i, pe.mbox))
	}
	if line, a, b, shared := cacheline.SharedLine(regions); shared {
		t.Errorf("%+v: PEs %d and %d write line %#x (regions %+v and %+v)", topo, a.Owner, b.Owner, line, a, b)
	}
}
