package core

import (
	"testing"

	"acic/internal/graph"
	"acic/internal/machine"
	"acic/internal/netsim"
	"acic/internal/runtime"
	"acic/internal/seq"
)

// unpackCounter counts the contributions its PE pays from inside Deliver,
// i.e. by receiveBatch's work trigger and not by Idle.
type unpackCounter struct {
	*peState
	paidUnpacking int64
}

func (u *unpackCounter) Deliver(pe *runtime.PE, msg any) {
	owed := u.debt.Owed()
	u.peState.Deliver(pe, msg)
	if owed && !u.debt.Owed() {
		u.paidUnpacking++
	}
}

// TestFloodedPEReportsByUnpacking pins the receiveBatch trigger: a PE whose
// mailbox is never empty never reaches Idle, and must report all the same.
// A chain of hubs each answers with `fan` parallel edges into a sink of its
// own, so popping one hub puts fan/TramCapacity batches into the mailbox
// within a single Idle call. The parallel weights strictly decrease, so
// every candidate improves on the one this PE sent before it and passes
// the sender's dominance filter. On one PE that schedule is exact: the
// batches are unpacked back to back, they arrive in the order they were
// created, so every update in them improves its sink and none is rejected,
// and the PE is in debt when the burst starts because the broadcast that
// flushed the hub's own update is behind it. Each hub must therefore cost
// one contribution paid while unpacking.
func TestFloodedPEReportsByUnpacking(t *testing.T) {
	const hubs, fan = 16, 2 * runtime.ReportAfterWork
	var edges []graph.Edge
	for h := int32(1); h <= hubs; h++ {
		edges = append(edges, graph.Edge{From: h - 1, To: h, Weight: 1})
		// Sink weights fan+1 down to 2 keep every sink above the next hub,
		// so the hub is popped before any superseded sink entry.
		for j := 0; j < fan; j++ {
			edges = append(edges, graph.Edge{From: h, To: hubs + h, Weight: float64(fan + 1 - j)})
		}
	}
	g := graph.MustBuild(2*hubs+1, edges)

	p := DefaultParams()
	p.TramCapacity = 32
	s, err := newSetup(g, 0, Options{Topo: netsim.SingleNode(1), Params: p}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.sc.release()
	var pe0 *unpackCounter
	_, err = machine.Run(s.cfg,
		func(pe *runtime.PE) runtime.Handler {
			pe0 = &unpackCounter{peState: newPEState(s.sh, pe, s.params, s.sc.slot(0))}
			return pe0
		},
		func(rt *runtime.Runtime) {
			rt.Inject(0, startMsg{})
			rt.Inject(0, seedMsg{source: 0})
		})
	if err != nil {
		t.Fatal(err)
	}

	if want := seq.Dijkstra(g, 0); !seq.Equal(pe0.dist, want.Dist) {
		t.Fatalf("dist = %v, want %v", pe0.dist, want.Dist)
	}
	if pe0.rejected != 0 || pe0.suppressed != 0 {
		t.Fatalf("rejected %d, suppressed %d updates, want 0 and 0", pe0.rejected, pe0.suppressed)
	}
	if want := int64(1 + hubs + hubs*fan); pe0.hist.Created != want {
		t.Fatalf("created %d updates, want %d", pe0.hist.Created, want)
	}
	if pe0.paidUnpacking < hubs {
		t.Errorf("%d contributions paid while unpacking %d bursts of %d updates, want one per burst",
			pe0.paidUnpacking, hubs, fan)
	}
	if pe0.reductions < hubs {
		t.Errorf("Reductions = %d, want >= %d", pe0.reductions, hubs)
	}
}

// TestTwoVerticesTerminateInAHandfulOfReductions pins the idle trigger and
// the two-equal-sums rule: with nothing queued every PE reports at once, so
// a one-edge run ends a few cycles after its only update is processed,
// because nothing in the cycle waits on time.
func TestTwoVerticesTerminateInAHandfulOfReductions(t *testing.T) {
	g := graph.MustBuild(2, []graph.Edge{{From: 0, To: 1, Weight: 3}})
	res := runAndVerify(t, g, 0, Options{Topo: netsim.SingleNode(2)})
	// At least two reductions must agree on equal sums; the rest is the
	// broadcast that flushes the update out of tramlib and the cycle in
	// which it is popped.
	if r := res.Stats.Reductions; r < 2 || r > 8 {
		t.Errorf("Reductions = %d, want between 2 and 8", r)
	}
	if c, p := res.Stats.UpdatesCreated, res.Stats.UpdatesProcessed; c != 2 || p != 2 {
		t.Errorf("created/processed = %d/%d, want 2/2", c, p)
	}
}
