package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"acic/internal/graph"
	"acic/internal/machine"
	"acic/internal/netsim"
	"acic/internal/runtime"
	"acic/internal/tram"
	"acic/internal/xrand"
)

// relaxCase is one row for relaxOutEdges: vertex 0's out-edges, and the
// sent and dist the PE holds before the row is relaxed.
type relaxCase struct {
	name    string
	targets []int32
	weights []float64
	sent    []float64 // per vertex
	dist    []float64 // per vertex PE 0 owns
}

// relaxOutcome is everything relaxing one row leaves behind on the PE.
type relaxOutcome struct {
	sent                           []float64
	relaxations, created, suppress int64
	tram                           map[int][]Update // per destination PE, in insert order
	hold                           map[int][]Update // per bucket, in append order
}

const (
	relaxVertices = 256 // PE 0 owns [0, 128), PE 1 the rest
	relaxFrom     = 0   // the relaxed vertex
	relaxDist     = 10.0
	relaxTTram    = 8 // buckets above it park in tram_hold
)

// relaxCases builds the rows at the filter's chunk edges: every degree
// around one and two chunks, parallel edges to one target inside a chunk
// and across the first chunk boundary, zero-weight edges, a row whose
// candidates all survive, and rows whose targets PE 0 owns. Each row meets a sent and dist drawn so that every
// outcome occurs: dropped by sent, dropped by the owner's distance,
// created into tram, created into tram_hold.
func relaxCases() []relaxCase {
	r := xrand.New(44)
	state := func(c *relaxCase) {
		c.sent = make([]float64, relaxVertices)
		for v := range c.sent {
			switch r.Intn(3) {
			case 0:
				c.sent[v] = math.Inf(1)
			case 1:
				c.sent[v] = relaxDist // equal to every zero-weight candidate
			default:
				c.sent[v] = r.Range(relaxDist, relaxDist+100)
			}
		}
		c.dist = make([]float64, relaxVertices/2)
		for v := range c.dist {
			c.dist[v] = math.Inf(1)
			if r.Intn(2) == 0 {
				c.dist[v] = r.Range(relaxDist, relaxDist+100)
			}
		}
	}
	random := func(name string, deg int, targetSpan int) relaxCase {
		c := relaxCase{name: name}
		for range deg {
			c.targets = append(c.targets, int32(r.Intn(targetSpan)))
			c.weights = append(c.weights, r.Range(0, 100))
		}
		state(&c)
		return c
	}
	var cases []relaxCase
	for _, deg := range []int{0, 1, 63, 64, 65, 128, 129} {
		cases = append(cases, random(fmt.Sprintf("degree %d", deg), deg, relaxVertices))
	}
	// Parallel edges to one target, all passing the first pass: the second
	// is created over the first, the third only the re-check stops.
	c := random("parallel in one chunk", 64, relaxVertices)
	for i, w := range map[int]float64{5: 50, 17: 30, 40: 40} {
		c.targets[i], c.weights[i] = 200, w
		c.sent[200] = math.Inf(1)
	}
	cases = append(cases, c)
	// Parallel edges on both sides of index 64, to a remote and an own target.
	c = random("parallel across 64", 129, relaxVertices)
	for i, w := range map[int]float64{60: 60, 63: 45, 64: 44, 70: 50, 127: 10, 128: 10} {
		c.targets[i], c.weights[i] = 150, w
	}
	for i, w := range map[int]float64{62: 30, 65: 20, 66: 25} {
		c.targets[i], c.weights[i] = 7, w
	}
	c.sent[150], c.sent[7], c.dist[7] = math.Inf(1), math.Inf(1), math.Inf(1)
	cases = append(cases, c)
	c = random("zero weights", 65, relaxVertices)
	for i := 0; i < 65; i += 2 {
		c.weights[i] = 0
	}
	cases = append(cases, c)
	// Every candidate of two full chunks and one more survives the first
	// pass: the keep list fills to its last slot.
	c = random("all survive", 129, relaxVertices)
	for i := range c.targets {
		v := i*2%relaxVertices + i/(relaxVertices/2) // distinct, both PEs
		c.targets[i], c.sent[v] = int32(v), math.Inf(1)
		if v < len(c.dist) {
			c.dist[v] = math.Inf(1)
		}
	}
	cases = append(cases, c)
	cases = append(cases, random("own targets", 100, relaxVertices/2))
	cases = append(cases, random("own targets, two chunks", 129, relaxVertices/2))
	return cases
}

// relaxReference is the per-candidate rule written out on its own: a
// candidate is created if it beats sent and, for a vertex PE 0 owns, the
// vertex's distance; created candidates go to tram by owner or to
// tram_hold by bucket.
func relaxReference(c relaxCase, bucketOf func(float64) int) relaxOutcome {
	out := relaxOutcome{sent: slices.Clone(c.sent), tram: map[int][]Update{}, hold: map[int][]Update{}}
	for i, t := range c.targets {
		u := Update{Vertex: t, Pred: relaxFrom, Dist: relaxDist + c.weights[i]}
		out.relaxations++
		own := int(t) < len(c.dist)
		if !(u.Dist < out.sent[t]) || own && u.Dist >= c.dist[t] {
			out.suppress++
			continue
		}
		out.sent[t] = u.Dist
		out.created++
		if b := bucketOf(u.Dist); b > relaxTTram {
			out.hold[b] = append(out.hold[b], u)
		} else if own {
			out.tram[0] = append(out.tram[0], u)
		} else {
			out.tram[1] = append(out.tram[1], u)
		}
	}
	return out
}

// relaxDriver runs every case through PE 0's real relaxOutEdges in its
// first Idle, then exits the run.
type relaxDriver struct {
	*peState
	cases []relaxCase
	got   []relaxOutcome
}

func (k *relaxDriver) Idle(pe *runtime.PE) bool {
	if k.got != nil {
		return false
	}
	for _, c := range k.cases {
		k.got = append(k.got, k.relaxOne(pe, c))
	}
	pe.Exit()
	return false
}

// relaxOne loads c's row and state into the PE, relaxes the row, and
// takes back what it left in sent, the counters, tram and tram_hold.
func (k *relaxDriver) relaxOne(pe *runtime.PE, c relaxCase) relaxOutcome {
	edges := make([]graph.Edge, len(c.targets))
	for i, t := range c.targets {
		edges[i] = graph.Edge{From: relaxFrom, To: t, Weight: c.weights[i]}
	}
	k.shared.g = graph.MustBuild(relaxVertices, edges)
	copy(k.sent, c.sent)
	copy(k.dist, c.dist)
	k.hist.Reset()
	k.suppressed, k.relaxations = 0, 0
	k.tTram = relaxTTram

	k.relaxOutEdges(pe, relaxFrom, relaxDist)

	out := relaxOutcome{
		sent: slices.Clone(k.sent), relaxations: k.relaxations, created: k.hist.Created, suppress: k.suppressed,
		tram: map[int][]Update{}, hold: map[int][]Update{},
	}
	for _, b := range k.shared.tm.FlushSet(k.me) {
		out.tram[b.DestPE] = append(out.tram[b.DestPE], b.Items...)
		k.shared.tm.ReleaseTo(k.me, b.Items)
	}
	for b := range k.tramHold.lists {
		k.tramHold.lists[b].Drain(k.shared.ar, k.me, func(u Update) { out.hold[b] = append(out.hold[b], u) })
	}
	k.tramHold.held, k.tramHold.top = 0, 0
	return out
}

// TestRelaxOutEdgesMatchesScalarRule drives the two-pass row filter on one
// PE of two and holds it to the one-candidate-at-a-time rule: the same
// sent, the same created and suppressed counts, the same updates in tram
// (per destination, in order) and in tram_hold (per bucket, in order).
func TestRelaxOutEdgesMatchesScalarRule(t *testing.T) {
	p := DefaultParams()
	p.TramMode = tram.WW // one buffer per destination PE: owners are checked too
	s, err := newSetup(graph.MustBuild(relaxVertices, nil), 0, Options{Topo: netsim.SingleNode(2), Params: p}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.sc.release()
	cases := relaxCases()
	var k *relaxDriver
	_, err = machine.Run(s.cfg, func(pe *runtime.PE) runtime.Handler {
		st := s.newHandler(pe)
		if pe.Index() != 0 {
			return st
		}
		k = &relaxDriver{peState: st, cases: cases}
		return k
	}, func(*runtime.Runtime) {})
	if err != nil {
		t.Fatal(err)
	}
	var outcomes [4]int64 // dropped by sent or dist, tram, hold, total
	for i, c := range cases {
		got, want := k.got[i], relaxReference(c, k.hist.BucketOf)
		if got.relaxations != int64(len(c.targets)) || got.created+got.suppress != got.relaxations {
			t.Errorf("%s: %d relaxations, %d created + %d suppressed, want %d candidates", c.name, got.relaxations, got.created, got.suppress, len(c.targets))
		}
		if got.created != want.created || got.suppress != want.suppress {
			t.Errorf("%s: created %d, suppressed %d; scalar rule %d, %d", c.name, got.created, got.suppress, want.created, want.suppress)
		}
		if !slices.Equal(got.sent, want.sent) {
			t.Errorf("%s: sent differs from the scalar rule's", c.name)
		}
		for what, m := range map[string][2]map[int][]Update{"tram": {got.tram, want.tram}, "tram_hold": {got.hold, want.hold}} {
			if !mapsEqual(m[0], m[1]) {
				t.Errorf("%s: %s holds %v, scalar rule %v", c.name, what, m[0], m[1])
			}
		}
		outcomes[0] += want.suppress
		for _, us := range want.tram {
			outcomes[1] += int64(len(us))
		}
		for _, us := range want.hold {
			outcomes[2] += int64(len(us))
		}
		outcomes[3] += int64(len(c.targets))
	}
	t.Logf("%d candidates: %d suppressed, %d to tram, %d to tram_hold", outcomes[3], outcomes[0], outcomes[1], outcomes[2])
	// The cases must exercise every outcome, or the comparison shows little.
	if outcomes[0] == 0 || outcomes[1] == 0 || outcomes[2] == 0 {
		t.Errorf("cases reach only some outcomes: %d suppressed, %d to tram, %d to tram_hold of %d", outcomes[0], outcomes[1], outcomes[2], outcomes[3])
	}
}

func mapsEqual(a, b map[int][]Update) bool {
	if len(a) != len(b) {
		return false
	}
	for key, us := range a {
		if !slices.Equal(us, b[key]) {
			return false
		}
	}
	return true
}
