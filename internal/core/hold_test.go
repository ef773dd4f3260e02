package core

import (
	"testing"

	"acic/internal/gen"
	"acic/internal/graph"
	"acic/internal/histogram"
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

// walkQueue recounts a vertexQueue by walking every bucket's list, and
// checks the links on the way: each list is circular both ways, each
// vertex names the bucket it is listed in, the occupancy bits match the
// heads, and no list sits below lo. It returns the queued vertices per
// histogram bucket and the highest queue bucket in use (-1 if none). It
// reports with Errorf, so PE goroutines may call it, and stops at the
// first broken list.
func walkQueue(t testing.TB, q *vertexQueue) (per [histogram.DefaultBuckets]int64, hi int) {
	t.Helper()
	hi = -1
	for b, hd := range q.head {
		if occupied := q.occ[b>>6]&(1<<(b&63)) != 0; occupied != (hd >= 0) {
			t.Errorf("bucket %d: head %d but occupancy bit %v", b, hd, occupied)
		}
		if hd < 0 {
			continue
		}
		if b < q.lo {
			t.Errorf("bucket %d is non-empty below lo %d", b, q.lo)
		}
		hi = b
		for v, steps := hd, 0; ; steps++ {
			if steps > len(q.bucket) || int(q.bucket[v]) != b || q.prev[q.next[v]] != v {
				t.Errorf("bucket %d: broken list at vertex %d (filed in %d)", b, v, q.bucket[v])
				return per, hi
			}
			per[histBucket(b)]++
			if v = q.next[v]; v == hd {
				break
			}
		}
	}
	return per, hi
}

// heldCheck wraps a PE's handler and, around every broadcast, holds
// tram_hold's running counts and the queue's per-bucket counts to a full
// recount, and the accounting the PE reports to what the recounts saw:
// HeldBefore − Drained (+ Reheld for the queue) == HeldAfter.
type heldCheck struct {
	*peState
	t       *testing.T
	maxHeld int64
}

func (c *heldCheck) OnBroadcast(pe *runtime.PE, epoch int64, payload any) {
	pqBefore := c.recount(epoch, "before")
	c.peState.OnBroadcast(pe, epoch, payload)
	if c.terminated {
		return
	}
	pqAfter := c.recount(epoch, "after")
	h := c.pendingHolds
	if h.tramHeldBefore-h.tramDrained != h.tramHeldAfter || h.pqHeldBefore-h.pqDrained+h.pqReheld != h.pqHeldAfter {
		c.t.Errorf("PE %d epoch %d: hold accounting %+v does not close", c.me, epoch, h)
	}
	if h.pqHeldBefore != pqBefore || h.pqHeldAfter != pqAfter || h.pqDrained < 0 || h.pqReheld < 0 || h.pqDrained != 0 && h.pqReheld != 0 {
		c.t.Errorf("PE %d epoch %d: pq accounting %+v, recounts %d before and %d after", c.me, epoch, h, pqBefore, pqAfter)
	}
}

// recount checks both holds against a walk and returns the number of
// queued updates above t_pq.
func (c *heldCheck) recount(epoch int64, when string) int64 {
	if got := countHeld(c.tramHold); got != c.tramHold.held {
		c.t.Errorf("PE %d epoch %d %s broadcast: tram_hold running count %d, recount %d", c.me, epoch, when, c.tramHold.held, got)
	}
	if hi := highestHeld(c.tramHold); hi > c.tramHold.top {
		c.t.Errorf("PE %d epoch %d %s broadcast: tram_hold holds bucket %d above top %d", c.me, epoch, when, hi-1, c.tramHold.top)
	}
	q := c.queue
	per, _ := walkQueue(c.t, q)
	var n, held int64
	for b, k := range per {
		n += k
		if b > c.tPQ {
			held += k
		}
		if k != q.count[b] || k != 0 && b >= q.top {
			c.t.Errorf("PE %d epoch %d %s broadcast: histogram bucket %d holds %d queued, count %d, top %d", c.me, epoch, when, b, k, q.count[b], q.top)
		}
	}
	if n != int64(q.n) {
		c.t.Errorf("PE %d epoch %d %s broadcast: %d queued, running count %d", c.me, epoch, when, n, q.n)
	}
	// No stale entries: every queued vertex is filed by its distance.
	for li, b := range q.bucket {
		if d := c.dist[li]; b >= 0 && int(b) != q.queueBucket(c.hist.BucketOf(d), d) {
			c.t.Errorf("PE %d epoch %d %s broadcast: local vertex %d at distance %g filed in bucket %d", c.me, epoch, when, li, d, b)
		}
	}
	c.maxHeld = max(c.maxHeld, c.tramHold.held, held)
	return held
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
		if a.TramHeldBefore-a.TramDrained != a.TramHeldAfter || a.PQHeldBefore-a.PQDrained+a.PQReheld != a.PQHeldAfter {
			t.Errorf("audit epoch %d: held before − drained + reheld != held after: %+v", a.Epoch, a)
		}
		if min(a.TramHeldBefore, a.TramDrained, a.TramHeldAfter, a.PQHeldBefore, a.PQDrained, a.PQHeldAfter, a.PQReheld) < 0 {
			t.Errorf("audit epoch %d: negative hold field: %+v", a.Epoch, a)
		}
	}
	return maxHeld
}

// TestHoldCountsStayExact pins the running tram_hold count and the queue's
// counts to a recount at every broadcast, across both aggregation modes and every
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
// graph kinds and fabrics on one Scratch and requires tram_hold and the
// queue of every slot to be empty, by running count and by recount, after
// each run.
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
						if n := countHeld(&slot.tramHold); n != 0 || slot.tramHold.held != 0 {
							t.Errorf("%s from %d: PE %d tram_hold: %d parked (running count %d), want 0",
								gc.name, source, pe, n, slot.tramHold.held)
						}
						if _, hi := walkQueue(t, &slot.queue); hi >= 0 || slot.queue.n != 0 {
							t.Errorf("%s from %d: PE %d queue: bucket %d in use (running count %d), want empty",
								gc.name, source, pe, hi, slot.queue.n)
						}
					}
				}
			}
		})
	}
}
