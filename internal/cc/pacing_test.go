package cc

import (
	"testing"

	"acic/internal/graph"
	"acic/internal/machine"
	"acic/internal/netsim"
	"acic/internal/runtime"
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
// The graph is `hubs` disjoint stars whose sinks all have larger ids than
// every hub, so on one PE the frontier stack pops every sink first (none
// can lower anything), then the hubs one by one. Popping a hub offers its
// label to `fan` sinks within a single Idle call, which puts fan/capacity
// batches into the mailbox; every update in them lowers its sink, so none
// is rejected. The PE is in debt when each burst starts, because the
// broadcast following any payment is dispatched before the next Idle call.
// Each hub must therefore cost one contribution paid while unpacking.
func TestFloodedPEReportsByUnpacking(t *testing.T) {
	const hubs, fan = 16, 2 * runtime.ReportAfterWork
	var edges []graph.Edge
	for h := int32(0); h < hubs; h++ {
		for j := int32(0); j < fan; j++ {
			edges = append(edges, graph.Edge{From: h, To: hubs + h*fan + j, Weight: 1})
		}
	}
	g := graph.MustBuild(hubs+hubs*fan, edges)

	p := DefaultParams()
	p.TramCapacity = 32
	cfg, sh, err := newSetup(g, Options{Topo: netsim.SingleNode(1), Params: p})
	if err != nil {
		t.Fatal(err)
	}
	var pe0 *unpackCounter
	_, err = machine.Run(cfg,
		func(pe *runtime.PE) runtime.Handler {
			pe0 = &unpackCounter{peState: newPEState(sh, pe)}
			return pe0
		},
		func(rt *runtime.Runtime) { rt.Inject(0, startMsg{}) })
	if err != nil {
		t.Fatal(err)
	}

	want := SequentialCC(g)
	for v := range want {
		if pe0.labels[v] != want[v] {
			t.Fatalf("label[%d] = %d, want %d", v, pe0.labels[v], want[v])
		}
	}
	if pe0.rejected != 0 {
		t.Fatalf("rejected %d label updates, want 0", pe0.rejected)
	}
	if want := int64(g.NumVertices() + hubs*fan); pe0.created != want || pe0.processed != want {
		t.Fatalf("created/processed %d/%d, want %d/%d", pe0.created, pe0.processed, want, want)
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
// the two-equal-sums rule: with an empty frontier every PE reports at once,
// so a one-edge run ends a few cycles after its only label update is
// processed, because nothing in the cycle waits on time.
func TestTwoVerticesTerminateInAHandfulOfReductions(t *testing.T) {
	g := graph.MustBuild(2, []graph.Edge{{From: 0, To: 1, Weight: 3}})
	res := runAndVerify(t, g, Options{Topo: netsim.SingleNode(2)})
	// At least two reductions must agree on equal sums; the rest is the
	// broadcast that flushes the update out of tramlib and the cycle in
	// which it is applied.
	if r := res.Stats.Reductions; r < 2 || r > 8 {
		t.Errorf("Reductions = %d, want between 2 and 8", r)
	}
	// Two initial frontier entries plus vertex 0 offering its label to 1.
	if c, p := res.Stats.UpdatesCreated, res.Stats.UpdatesProcessed; c != 3 || p != 3 {
		t.Errorf("created/processed = %d/%d, want 3/3", c, p)
	}
}
