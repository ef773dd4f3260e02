package core

import (
	"fmt"
	"slices"
	"testing"

	"acic/internal/gen"
	"acic/internal/netsim"
	"acic/internal/partition"
	"acic/internal/seq"
)

// chunkedOwner is the over-decomposed layout's owner rule as a formula:
// ⌈n / (P × od)⌉-vertex chunks dealt round-robin, and od ≤ 1 the plain
// blocks. The relabelled run must give every PE exactly these vertices.
func chunkedOwner(n, pes, od int) func(v int) int {
	if od <= 1 {
		blocks := partition.NewOneD(n, pes)
		return func(v int) int { return blocks.Owner(int32(v)) }
	}
	chunkSize := max((n+pes*od-1)/(pes*od), 1)
	return func(v int) int { return v / chunkSize % pes }
}

// TestOverDecompositionRelabel runs every over-decomposition factor on
// three graph families, over netsim and over the TCP mesh, and holds each
// run to the layout it promises and to the oracles: each PE owns the
// chunks the formula deals it, distances equal Dijkstra's, parents form a
// shortest-path tree in the caller's ids, and the ledger balances. Two
// Workers then report their vertices in the caller's ids too.
func TestOverDecompositionRelabel(t *testing.T) {
	const source = 1234
	topo := netsim.Topology{Nodes: 1, ProcsPerNode: 2, PEsPerProc: 2}
	pes := topo.TotalPEs()
	for _, kind := range []string{"random", "rmat", "grid"} {
		g, err := gen.ByKind(kind, 11, 8, gen.Config{Seed: 44})
		if err != nil {
			t.Fatal(err)
		}
		n := g.NumVertices()
		want := seq.Dijkstra(g, source)
		for _, od := range []int{1, 2, 4, 16} {
			owner := chunkedOwner(n, pes, od)
			for _, tr := range []Transport{TransportSim, TransportTCP} {
				t.Run(fmt.Sprintf("%s/od=%d/transport=%d", kind, od, tr), func(t *testing.T) {
					p := DefaultParams()
					p.OverDecomposition = od
					s, err := newSetup(g, source, Options{Topo: topo, Params: p, Transport: tr}, tr == TransportTCP)
					if err != nil {
						t.Fatal(err)
					}
					run, err := s.run()
					s.sc.release()
					if err != nil {
						t.Fatal(err)
					}
					seen := 0
					for pe, st := range run.Handlers {
						for local := range st.dist {
							if v := int(s.inputID(st.lo + int32(local))); owner(v) != pe {
								t.Fatalf("PE %d holds vertex %d, which the layout deals to PE %d", pe, v, owner(v))
							}
						}
						seen += len(st.dist)
					}
					if seen != n {
						t.Fatalf("PEs hold %d vertices, want %d", seen, n)
					}
					res := s.result(run)
					if !seq.Equal(res.Dist, want.Dist) {
						i := seq.FirstMismatch(res.Dist, want.Dist)
						t.Fatalf("vertex %d: dist %v, Dijkstra %v", i, res.Dist[i], want.Dist[i])
					}
					validateTree(t, g, source, res)
					a := res.Stats.Audit
					if a.Unaccounted() != 0 || a.NetQueue != 0 || res.Stats.UpdatesCreated != res.Stats.UpdatesProcessed {
						t.Errorf("ledger: %d unaccounted, %d queued, %d created, %d processed", a.Unaccounted(), a.NetQueue, res.Stats.UpdatesCreated, res.Stats.UpdatesProcessed)
					}
				})
			}
		}
		t.Run(kind+"/od=4/workers", func(t *testing.T) {
			p := DefaultParams()
			p.OverDecomposition = 4
			owner := chunkedOwner(n, pes, 4)
			var all []int32
			for proc, res := range runWorkers(t, g, source, Options{Topo: topo, Params: p}) {
				lo, hi := topo.PEsOfProcess(proc)
				for i, v := range res.Vertices {
					if pe := owner(int(v)); pe < lo || pe >= hi {
						t.Fatalf("process %d reports vertex %d, which the layout deals to PE %d", proc, v, pe)
					}
					if res.Dist[i] != want.Dist[v] {
						t.Fatalf("vertex %d: dist %v, Dijkstra %v", v, res.Dist[i], want.Dist[v])
					}
				}
				all = append(all, res.Vertices...)
			}
			slices.Sort(all)
			if len(all) != n || all[0] != 0 || int(all[n-1]) != n-1 || len(slices.Compact(all)) != n {
				t.Fatalf("workers report %d vertices, not each of %d once", len(all), n)
			}
		})
	}
}
