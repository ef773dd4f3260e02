package core

import (
	"testing"

	"acic/internal/gen"
	"acic/internal/graph"
	"acic/internal/machine"
	"acic/internal/netsim"
	"acic/internal/runtime"
	"acic/internal/seq"
	"acic/internal/tram"
)

// countHeld recounts a hold's population by walking every bucket: the
// reference bucketHold's running count must equal.
func countHeld(h *bucketHold) int64 {
	var n int64
	for i := range h.lists {
		n += int64(h.lists[i].Len())
	}
	return n
}

// highestHeld returns one past the highest bucket that holds an update,
// 0 if none: bucketHold.top must never be below it.
func highestHeld(h *bucketHold) int {
	for b := len(h.lists) - 1; b >= 0; b-- {
		if h.lists[b].Len() > 0 {
			return b + 1
		}
	}
	return 0
}

// heldCheck wraps a PE's handler and, around every broadcast, holds the
// running hold counts to a full recount and the drain's accounting to
// HeldBefore − Drained == HeldAfter.
type heldCheck struct {
	*peState
	t       *testing.T
	maxHeld int64
}

func (c *heldCheck) OnBroadcast(pe *runtime.PE, epoch int64, payload any) {
	c.recount(epoch, "before")
	c.peState.OnBroadcast(pe, epoch, payload)
	if c.terminated {
		return
	}
	c.recount(epoch, "after")
	h := c.pendingHolds
	if h.tramHeldBefore-h.tramDrained != h.tramHeldAfter || h.pqHeldBefore-h.pqDrained != h.pqHeldAfter {
		c.t.Errorf("PE %d epoch %d: drain accounting %+v does not close", c.me, epoch, h)
	}
}

func (c *heldCheck) recount(epoch int64, when string) {
	for _, h := range []struct {
		name string
		hold *bucketHold
	}{{"tram_hold", c.tramHold}, {"pq_hold", c.pqHold}} {
		if got := countHeld(h.hold); got != h.hold.held {
			c.t.Errorf("PE %d epoch %d %s drain: %s running count %d, recount %d", c.me, epoch, when, h.name, h.hold.held, got)
		}
		if hi := highestHeld(h.hold); hi > h.hold.top {
			c.t.Errorf("PE %d epoch %d %s drain: %s holds bucket %d above top %d", c.me, epoch, when, h.name, hi-1, h.hold.top)
		}
		c.maxHeld = max(c.maxHeld, h.hold.held)
	}
}

// runHeldChecked runs ACIC like Run with every handler wrapped in a
// heldCheck and checks the distances against Dijkstra and the root's audit
// records against the drain identity. It returns the largest hold
// population any PE saw.
func runHeldChecked(t *testing.T, g *graph.Graph, source int, opts Options) int64 {
	t.Helper()
	opts.Params.AuditTrace = true
	s, err := newSetup(g, source, opts, opts.Transport == TransportTCP)
	if err != nil {
		t.Fatal(err)
	}
	defer s.sc.release()
	run, err := machine.Run(s.cfg, func(pe *runtime.PE) *heldCheck {
		return &heldCheck{peState: s.newHandler(pe), t: t}
	}, s.seed)
	if err != nil {
		t.Fatal(err)
	}
	dist := make([]float64, g.NumVertices())
	var maxHeld int64
	for _, c := range run.Handlers {
		for local, d := range c.dist {
			dist[s.inputID(c.lo+int32(local))] = d
		}
		maxHeld = max(maxHeld, c.maxHeld)
	}
	root := run.Handlers[0]
	if want := seq.Dijkstra(g, source); !seq.Equal(dist, want.Dist) {
		i := seq.FirstMismatch(dist, want.Dist)
		t.Fatalf("distance mismatch at vertex %d: acic=%v dijkstra=%v", i, dist[i], want.Dist[i])
	}
	for _, a := range root.auditTrace {
		if a.TramHeldBefore-a.TramDrained != a.TramHeldAfter || a.PQHeldBefore-a.PQDrained != a.PQHeldAfter {
			t.Errorf("audit epoch %d: held before − drained != held after: %+v", a.Epoch, a)
		}
	}
	return maxHeld
}

// TestHoldCountsStayExact pins the running tram_hold and pq_hold counts to
// a recount at every broadcast, across both aggregation modes and every
// fabric: zero latency, the default latency model, and a TCP mesh.
func TestHoldCountsStayExact(t *testing.T) {
	g := gen.Uniform(3000, 24000, gen.Config{Seed: 41})
	fabrics := []struct {
		name string
		opts Options
	}{
		{"zero-latency", Options{Topo: netsim.Topology{Nodes: 2, ProcsPerNode: 2, PEsPerProc: 2}}},
		{"default-latency", Options{Topo: netsim.Topology{Nodes: 2, ProcsPerNode: 2, PEsPerProc: 2}, Latency: netsim.DefaultLatency()}},
		{"tcp", Options{Topo: tcpTopo(), Transport: TransportTCP}},
	}
	for _, mode := range []tram.Mode{tram.WP, tram.WW} {
		for _, f := range fabrics {
			opts := f.opts
			opts.Params = DefaultParams()
			opts.Params.TramMode = mode
			t.Run(mode.String()+"/"+f.name, func(t *testing.T) {
				if held := runHeldChecked(t, g, 0, opts); held == 0 {
					t.Error("no update was ever held: the recount checked nothing")
				}
			})
		}
	}
}

// TestHoldsEmptyAfterEveryRunOnAReusedScratch runs several sources over
// graph kinds and fabrics on one Scratch and requires both holds of every
// slot to be empty, by running count and by recount, after each run.
// Quiescence means created == processed and a parked update is created but
// not yet processed, so a run that ends with anything parked ended early:
// newPEState does not drain leftovers, and the next run would inherit them.
func TestHoldsEmptyAfterEveryRunOnAReusedScratch(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		// One vertex count, so one bucket width: the Scratch keeps its
		// slots across graphs as well as sources.
		{"grid", gen.Grid(32, 64, gen.Config{Seed: 42})},
		{"uniform", gen.Uniform(1<<11, 1<<14, gen.Config{Seed: 43})},
		{"rmat", gen.RMAT(11, 8, gen.DefaultRMAT(), gen.Config{Seed: 44})},
	}
	fabrics := []struct {
		name string
		opts Options
	}{
		{"zero-latency", Options{Topo: netsim.SingleNode(4)}},
		{"default-latency", Options{Topo: netsim.Topology{Nodes: 2, ProcsPerNode: 1, PEsPerProc: 2}, Latency: netsim.DefaultLatency()}},
		{"tcp", Options{Topo: tcpTopo(), Transport: TransportTCP}},
	}
	for _, f := range fabrics {
		t.Run(f.name, func(t *testing.T) {
			opts := f.opts
			opts.Scratch = &Scratch{}
			for _, gc := range graphs {
				for _, source := range []int{0, 5, 77} {
					runHeldChecked(t, gc.g, source, opts)
					for pe, slot := range opts.Scratch.slots {
						for name, h := range map[string]*bucketHold{"tram_hold": &slot.tramHold, "pq_hold": &slot.pqHold} {
							if n := countHeld(h); n != 0 || h.held != 0 {
								t.Errorf("%s from %d: PE %d %s: %d parked (running count %d), want 0",
									gc.name, source, pe, name, n, h.held)
							}
						}
					}
				}
			}
		})
	}
}
