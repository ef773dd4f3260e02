package core

import (
	"testing"

	"acic/internal/dynamic"
	"acic/internal/gen"
	"acic/internal/graph"
	"acic/internal/machine"
	"acic/internal/netsim"
	"acic/internal/runtime"
	"acic/internal/seq"
	"acic/internal/tram"
)

// checkFilteredRun holds one run to what the sender-side dominance filter
// must preserve: distances bit-equal to Dijkstra's (== also matches the
// +Inf of an unreachable vertex), parents that witness them, an exact
// conservation ledger, and evidence that the filter fired at all.
func checkFilteredRun(t *testing.T, g *graph.Graph, source int, dist []float64, parent []int32, unaccounted, suppressed int64) {
	t.Helper()
	want := seq.Dijkstra(g, source)
	for v := range dist {
		if dist[v] != want.Dist[v] {
			t.Fatalf("vertex %d: dist %v, Dijkstra %v", v, dist[v], want.Dist[v])
		}
	}
	if err := dynamic.VerifyTree(dynamic.FromCSR(g), source, dist, parent); err != nil {
		t.Fatal(err)
	}
	if unaccounted != 0 {
		t.Errorf("conservation ledger: %d unaccounted", unaccounted)
	}
	if suppressed == 0 {
		t.Error("the sender suppressed no candidate")
	}
}

// TestDominanceFilterKeepsEveryOracle runs the three graph families under
// both the paper's process-granularity aggregation (WP) and per-PE buffers
// (WW) over every fabric a run can have: the simulated network at its
// default latency (every inter-PE message queued in netsim), the
// in-process TCP mesh, and two Workers over real sockets. Each cell solves
// 2^10 vertices, and 2^14 outside -short; -v logs every solve's wall time
// and reduction count.
func TestDominanceFilterKeepsEveryOracle(t *testing.T) {
	const source = 3
	topo := netsim.Topology{Nodes: 1, ProcsPerNode: 2, PEsPerProc: 2}
	scales := []int{10, 14}
	if testing.Short() {
		scales = scales[:1]
	}
	for _, kind := range []string{"random", "rmat", "grid"} {
		for _, mode := range []tram.Mode{tram.WP, tram.WW} {
			p := DefaultParams()
			p.TramMode = mode
			t.Run(kind+"/"+mode.String(), func(t *testing.T) {
				for _, scale := range scales {
					g, err := gen.ByKind(kind, scale, 8, gen.Config{Seed: 27})
					if err != nil {
						t.Fatal(err)
					}
					for _, o := range []Options{
						{Topo: topo, Params: p, Latency: netsim.DefaultLatency()},
						{Topo: topo, Params: p, Transport: TransportTCP},
					} {
						res := mustRun(t, g, source, o)
						s := res.Stats
						if s.Relaxations+1 != s.UpdatesCreated+s.UpdatesSuppressed || s.UpdatesCreated != s.UpdatesProcessed {
							t.Errorf("transport %d: relaxations %d, created %d, suppressed %d, processed %d",
								o.Transport, s.Relaxations, s.UpdatesCreated, s.UpdatesSuppressed, s.UpdatesProcessed)
						}
						checkFilteredRun(t, g, source, res.Dist, res.Parent, s.Audit.Unaccounted(), s.UpdatesSuppressed)
						t.Logf("2^%d, transport %d: %v, %d reductions, %d updates created", scale, o.Transport, s.Elapsed, s.Reductions, s.UpdatesCreated)
					}

					dist := make([]float64, g.NumVertices())
					parent := make([]int32, g.NumVertices())
					var unaccounted, suppressed, reductions int64
					for _, res := range runWorkers(t, g, source, Options{Topo: topo, Params: p}) {
						for i, v := range res.Vertices {
							dist[v], parent[v] = res.Dist[i], res.Parent[i]
						}
						unaccounted += res.Audit.Unaccounted()
						suppressed += res.Suppressed
						reductions += res.Reductions
					}
					checkFilteredRun(t, g, source, dist, parent, unaccounted, suppressed)
					t.Logf("2^%d, workers: %d reductions", scale, reductions)
				}
			})
		}
	}
}

// TestDominanceFilterResetsWithScratch solves twice through one Scratch
// from different sources. The second solve's sent array starts where the
// first one's ended unless newPEState resets it, and stale entries would
// suppress updates the second solve needs.
func TestDominanceFilterResetsWithScratch(t *testing.T) {
	g := gen.Uniform(1<<10, 8<<10, gen.Config{Seed: 28})
	sc := &Scratch{}
	for _, source := range []int{0, 517} {
		res := mustRun(t, g, source, Options{Topo: netsim.SingleNode(4), Scratch: sc})
		checkFilteredRun(t, g, source, res.Dist, res.Parent, res.Stats.Audit.Unaccounted(), res.Stats.UpdatesSuppressed)
	}
}

// heldTram pins t_tram at bucket 0 while the update parked for vertex v is
// still the best this PE has sent for it, so a better update is created
// behind it before the hold drains.
type heldTram struct {
	*peState
	v    int32
	held float64
}

func (h *heldTram) Deliver(pe *runtime.PE, msg any) {
	if _, ok := msg.(seedMsg); ok {
		h.tTram = 0
	}
	h.peState.Deliver(pe, msg)
}

func (h *heldTram) OnBroadcast(pe *runtime.PE, epoch int64, payload any) {
	ctrl := *payload.(*ctrlMsg)
	if !ctrl.terminate && h.sent[h.v] == h.held {
		ctrl.thresholds.Tram = 0
	}
	h.peState.OnBroadcast(pe, epoch, &ctrl)
}

// TestDeadUpdateLeavesTramHoldAsProcessed pins tram_hold's drain elision.
// The source's edge to vertex 1 is heavy, so its update parks in tram_hold;
// the light path 0 → 2 → 1 then sends a better one. When the hold drains,
// the parked update is dead: it is completed in place (processed, never
// inserted into tramlib, never rejected) and the run still terminates.
func TestDeadUpdateLeavesTramHoldAsProcessed(t *testing.T) {
	const heavy = 10
	g := graph.MustBuild(3, []graph.Edge{
		{From: 0, To: 1, Weight: heavy},
		{From: 0, To: 2, Weight: 0.1},
		{From: 2, To: 1, Weight: 0.1},
	})
	s, err := newSetup(g, 0, Options{Topo: netsim.SingleNode(1)}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.sc.release()
	var h *heldTram
	_, err = machine.Run(s.cfg,
		func(pe *runtime.PE) runtime.Handler {
			h = &heldTram{peState: newPEState(s.sh, pe, s.params, s.sc.slot(0)), v: 1, held: heavy}
			return h
		},
		func(rt *runtime.Runtime) {
			rt.Inject(0, startMsg{})
			rt.Inject(0, seedMsg{source: 0})
		})
	if err != nil {
		t.Fatal(err)
	}
	if want := seq.Dijkstra(g, 0); !seq.Equal(h.dist, want.Dist) {
		t.Fatalf("dist = %v, want %v", h.dist, want.Dist)
	}
	// Created: the virtual seed, 0 → 1 (held), 0 → 2, 2 → 1.
	if c, p := h.hist.Created, h.hist.Processed; c != 4 || p != 4 {
		t.Errorf("created/processed = %d/%d, want 4/4", c, p)
	}
	if h.rejected != 0 {
		t.Errorf("%d updates rejected on arrival, want 0: the dead one must not ship", h.rejected)
	}
	if n := s.sh.tm.Stats().Inserts; n != 2 {
		t.Errorf("tramlib saw %d inserts, want 2 (0 → 2 and 2 → 1)", n)
	}
}
