package main

// Isolated layer probes: the benchmark calls each layer's public API
// directly, away from the workload, so that a number names one layer. Every
// traced pass runs all of them after its workload (a few seconds in total);
// pq, graph and seq probe the workload's own graph.

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	goruntime "runtime"
	"time"

	"acic/internal/dynamic"
	"acic/internal/engine"
	"acic/internal/gen"
	"acic/internal/graph"
	"acic/internal/netsim"
	"acic/internal/pq"
	"acic/internal/runtime"
	"acic/internal/sockfab"
	"acic/internal/tram"
	"acic/internal/wire"
	"acic/internal/xrand"
)

// probeSeed fixes the probes' own inputs: they measure layers, not the
// workload's seed.
const probeSeed = 1

// pace is core.DefaultReductionDelay: what the root waits between a
// reduction and the next broadcast.
const pace = 50 * time.Microsecond

// sink keeps probe loops' results alive.
var sink float64

// prober collects the probes' medians and the first error any of them met.
type prober struct {
	res   *results
	quick bool
	err   error
}

func (p *prober) fail(err error) {
	if p.err == nil {
		p.err = err
	}
}

// reps scales a repetition count: -quick divides it by 20.
func (p *prober) reps(n int) int {
	if p.quick {
		return max(1, n/20)
	}
	return n
}

// med records the median of samples, divided by div, under name.
func (p *prober) med(name string, samples []float64, div float64) float64 {
	m := median(samples) / div
	p.res.set(name, m, len(samples))
	return m
}

// perCall times n calls of f one at a time; the samples are nanoseconds.
func perCall(n int, f func()) []float64 {
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		f()
		out[i] = float64(time.Since(t0))
	}
	return out
}

// perItem times reps batches of n calls; the samples are each batch's
// nanoseconds per call, for calls too short to time alone.
func perItem(reps, n int, f func(i int)) []float64 {
	out := make([]float64, reps)
	for r := range out {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f(i)
		}
		out[r] = float64(time.Since(t0)) / float64(n)
	}
	return out
}

// runProbes runs every isolated probe into r. g is the workload's graph and
// o the oracle of one of its sources. It returns the isolated cost of one
// paced reduce->broadcast cycle, which the in-situ control-floor metric needs.
func runProbes(r *results, g *graph.Graph, o *oracle, quick bool) (pacedCycleUS float64, err error) {
	p := &prober{res: r, quick: quick}
	p.med("host.sleep_50us_us", perCall(p.reps(200), func() { time.Sleep(pace) }), 1e3)
	p.runtime()
	p.tram()
	p.graph(g, o)
	p.netsim()
	p.sockfab()
	smallScale, largeScale, resident := 14, 16, 8
	if quick {
		smallScale, largeScale, resident = 8, 10, 2
	}
	small := p.engine(smallScale, resident, true)
	large := p.engine(largeScale, resident, false)
	r.set("engine.mutate1_ms_v14", small, p.reps(15))
	r.set("engine.mutate1_ms_v16", large, p.reps(15))
	r.set("engine.mutate_scale_x", ratio(large, small), p.reps(15))
	p.dynamic(smallScale)
	return r.vals["runtime.paced_cycle_us"].V, p.err
}

// --- runtime ---

type startMsg struct{}
type paceMsg struct{ epoch int64 }
type ballMsg struct{}

// cycleHandler drives the bare reduce->broadcast cycle core's introspection
// rides on: every PE contributes, the root broadcasts on each completed
// reduction (after `pace`, armed the way core arms it), every PE
// contributes again. The root exits after `cycles`.
type cycleHandler struct {
	cycles int64
	pace   time.Duration
}

func (h *cycleHandler) Deliver(pe *runtime.PE, msg any) {
	switch m := msg.(type) {
	case startMsg:
		pe.Contribute(0, 1)
	case paceMsg:
		pe.Broadcast(m.epoch, nil)
	}
}
func (h *cycleHandler) Idle(*runtime.PE) bool { return false }
func (h *cycleHandler) OnBroadcast(pe *runtime.PE, epoch int64, _ any) {
	pe.Contribute(epoch+1, 1)
}
func (h *cycleHandler) OnReduction(pe *runtime.PE, epoch int64, _ any) {
	switch {
	case epoch+1 >= h.cycles:
		pe.Exit()
	case h.pace > 0:
		rt := pe.Runtime()
		time.AfterFunc(h.pace, func() { rt.Inject(0, paceMsg{epoch}) })
	default:
		pe.Broadcast(epoch, nil)
	}
}

// pingHandler bounces one message between PE 0 and PE 1 (same process, zero
// latency: the mailbox path) and exits the machine when *left deliveries
// have been made. The PEs share left; the ball's hand-over orders them.
type pingHandler struct {
	runtime.NopControl
	left *int
}

func (h *pingHandler) Deliver(pe *runtime.PE, _ any) {
	if *h.left--; *h.left <= 0 {
		pe.Exit()
		return
	}
	pe.Send(1-pe.Index(), ballMsg{}, 1)
}
func (h *pingHandler) Idle(*runtime.PE) bool { return false }

// machine builds the 4-PE runtime around the handlers, injects start into
// the first startPEs PEs, waits for the exit and returns the nanoseconds
// from build to exit.
func (p *prober) machine(factory func(*runtime.PE) runtime.Handler, startPEs int, start any) float64 {
	t0 := time.Now()
	rt, err := runtime.New(runtime.Config{Topo: topo, Combine: func(a, b any) any { return a.(int) + b.(int) }})
	if err != nil {
		p.fail(err)
		return 0
	}
	rt.Start(factory)
	for pe := 0; pe < startPEs; pe++ {
		rt.Inject(pe, start)
	}
	rt.Wait()
	return float64(time.Since(t0))
}

func (p *prober) runtime() {
	cycle := func(cycles int, pace time.Duration) func() float64 {
		return func() float64 {
			h := &cycleHandler{cycles: int64(cycles), pace: pace}
			return p.machine(func(*runtime.PE) runtime.Handler { return h }, topo.TotalPEs(), startMsg{}) / float64(cycles)
		}
	}
	p.med("runtime.reduce_cycle_us", repeat(5, cycle(p.reps(2000), 0)), 1e3)
	p.med("runtime.paced_cycle_us", repeat(5, cycle(p.reps(200), pace)), 1e3)

	// Build, start, one message, exit, wait: what every solve pays around its work.
	p.med("runtime.startstop_us", repeat(p.reps(100), func() float64 {
		left := 1
		return p.machine(func(*runtime.PE) runtime.Handler { return &pingHandler{left: &left} }, 1, ballMsg{})
	}), 1e3)

	trips := p.reps(5000)
	p.med("runtime.pingpong_us", repeat(3, func() float64 {
		left := 2 * trips
		return p.machine(func(*runtime.PE) runtime.Handler { return &pingHandler{left: &left} }, 1, ballMsg{}) / float64(trips)
	}), 1e3)
}

func repeat(n int, f func() float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = f()
	}
	return out
}

// --- tram ---

func (p *prober) tram() {
	m, err := tram.New[uint64](netsim.SingleNode(8), tram.WP, tram.DefaultCapacity)
	if err != nil {
		p.fail(err)
		return
	}
	// One insert, with the batch cut every capacity inserts and its array
	// released the way a receiver does after unpacking.
	p.med("tram.insert_ns", perItem(5, p.reps(200000), func(i int) {
		if batch := m.Insert(0, i&7, uint64(i)); batch != nil {
			m.Release(batch.Items)
		}
	}), 1)
}

// --- pq, graph ---

func (p *prober) graph(g *graph.Graph, o *oracle) {
	// Push then pop every finite distance of one real solve, in vertex order.
	var keys []float64
	for _, d := range o.dist {
		if !math.IsInf(d, 1) {
			keys = append(keys, d)
		}
	}
	h := pq.NewBinaryHeap(len(keys))
	p.med("pq.pushpop_ns", repeat(5, func() float64 {
		t0 := time.Now()
		for i, k := range keys {
			h.Push(pq.Item{Key: k, Value: int64(i)})
		}
		for h.Len() > 0 {
			sink += h.Pop().Key
		}
		return float64(time.Since(t0)) / float64(len(keys))
	}), 1)

	p.med("graph.scan_ns_per_edge", repeat(5, func() float64 {
		t0 := time.Now()
		for v := 0; v < g.NumVertices(); v++ {
			ts, ws := g.Neighbors(v)
			for i, to := range ts {
				sink += ws[i] + float64(to)
			}
		}
		return float64(time.Since(t0)) / float64(g.NumEdges())
	}), 1)

	edges := g.Edges()
	p.med("graph.build_ms", perCall(3, func() {
		_, err := graph.Build(g.NumVertices(), edges)
		p.fail(err)
	}), 1e6)
}

// --- netsim ---

func (p *prober) netsim() {
	// The sender's cost of scheduling one message (BenchmarkNetsimSend's
	// loop: lanes warmed, the sender paced against the dispatcher).
	shape := netsim.PaperNode(2)
	n, err := netsim.NewNetwork(shape, netsim.ZeroLatency(), func(int, any) {})
	if err != nil {
		p.fail(err)
		return
	}
	numPEs := shape.TotalPEs()
	var payload any = 42
	send := func(i int) {
		n.Send(0, i%numPEs, payload, 8)
		if i&1023 == 0 {
			for n.QueueLen() > 4096 {
				goruntime.Gosched()
			}
		}
	}
	for i := 0; i < numPEs*64; i++ {
		send(i)
	}
	p.med("netsim.send_ns", perItem(5, p.reps(100000), send), 1)
	n.Close()

	// How late a message due in 50us arrives: the timer wake-up every
	// delayed delivery pays.
	arrived := make(chan struct{}, 1)
	d, err := netsim.NewNetwork(topo, netsim.ZeroLatency(), func(int, any) { arrived <- struct{}{} })
	if err != nil {
		p.fail(err)
		return
	}
	late := perCall(p.reps(200), func() {
		d.SendAfter(0, payload, pace)
		<-arrived
	})
	for i := range late {
		late[i] -= float64(pace)
	}
	p.med("netsim.delay_overshoot_us", late, 1e3)
	d.Close()
}

// --- sockfab, wire ---

// frame is the benchmark's own wire type: a length-prefixed run of 8-byte
// items, the shape of a tram batch.
type frame struct{ items []uint64 }

const tagFrame byte = 0x70 // outside the ranges wire allots to the program

func newProbeCodec() *wire.Codec {
	c := wire.NewCodec()
	c.Register(tagFrame, frame{},
		func(_ *wire.Codec, buf []byte, v any) ([]byte, error) {
			f := v.(frame)
			buf = wire.AppendU32(buf, uint32(len(f.items)))
			for _, it := range f.items {
				buf = wire.AppendU64(buf, it)
			}
			return buf, nil
		},
		func(_ *wire.Codec, r *wire.Reader) (any, error) {
			n := int(r.U32())
			if err := r.Err(); err != nil {
				return nil, err
			}
			if n*8 > r.Remaining() {
				return nil, fmt.Errorf("%w: %d items in %d bytes", wire.ErrMalformed, n, r.Remaining())
			}
			f := frame{items: make([]uint64, n)}
			for i := range f.items {
				f.items[i] = r.U64()
			}
			return f, r.Err()
		}, nil)
	return c
}

func (p *prober) sockfab() {
	codec := newProbeCodec()
	cfg := sockfab.MeshConfig{NumProcs: topo.TotalProcs(), NumPEs: topo.TotalPEs(), Owner: topo.ProcessOf, Codec: codec}

	// Listen, connect, start, close: paid by every TCP run.
	p.med("sockfab.mesh_setup_ms", perCall(p.reps(20), func() {
		m, err := sockfab.NewMesh(cfg, func(int, any) {})
		if err != nil {
			p.fail(err)
			return
		}
		m.Close()
	}), 1e6)

	// One small frame from PE 0 to the first PE of the other process and back.
	back := make(chan struct{}, 1)
	far := topo.PEsPerProc
	var mesh *sockfab.Mesh
	mesh, err := sockfab.NewMesh(cfg, func(dst int, payload any) {
		if dst == far {
			mesh.Send(far, 0, payload, 1)
			return
		}
		back <- struct{}{}
	})
	if err != nil {
		p.fail(err)
		return
	}
	var ball any = frame{items: []uint64{1}}
	p.med("sockfab.rtt_us", perCall(p.reps(2000), func() {
		mesh.Send(0, far, ball, 1)
		<-back
	}), 1e3)
	mesh.Close()

	const items = 1024
	full := frame{items: make([]uint64, items)}
	for i := range full.items {
		full.items[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	var boxed any = full
	buf, err := codec.EncodeFrame(nil, boxed)
	p.fail(err)
	p.med("wire.encode_ns_per_item", perItem(5, p.reps(2000), func(int) {
		buf, err = codec.EncodeFrame(buf[:0], boxed)
		p.fail(err)
	}), items)
	p.med("wire.decode_ns_per_item", perItem(5, p.reps(2000), func(int) {
		_, _, err := codec.DecodeFrame(buf)
		p.fail(err)
	}), items)
}

// --- engine, http ---

// engine builds a dynamic engine over a uniform 2^scale graph (edge factor
// 8) with `resident` cached vectors and returns the median milliseconds of
// a one-edge Mutate. With reads set it first measures the read paths: a
// cache hit by direct call, through the handler, and over a real HTTP round
// trip, and an uncached point-to-point search.
func (p *prober) engine(scale, resident int, reads bool) (mutateMS float64) {
	n := 1 << scale
	g := gen.Uniform(n, n*8, gen.Config{Seed: probeSeed})
	dg := dynamic.FromCSR(g)
	batches := dynamic.NewBatchGen(dg, xrand.NewStream(probeSeed, streamBatches), g.MaxWeight())
	eng, err := engine.NewDynamic(dg, engine.Config{Topo: topo, MaxInFlight: maxInFlight, CacheEntries: cacheSize})
	if err != nil {
		p.fail(err)
		return 0
	}
	ctx := context.Background()
	defer eng.Close(ctx)
	for src := 0; src < resident; src++ {
		_, err := eng.Query(ctx, src, engine.QueryOptions{})
		p.fail(err)
	}

	if reads {
		p.med("engine.query_hit_ns", perItem(5, p.reps(20000), func(int) {
			_, err := eng.Query(ctx, 0, engine.QueryOptions{})
			p.fail(err)
		}), 1)

		h := eng.Handler()
		req := httptest.NewRequest(http.MethodGet, "/sssp?source=0", nil)
		p.med("engine.handler_hit_us", perCall(p.reps(2000), func() {
			h.ServeHTTP(httptest.NewRecorder(), req)
		}), 1e3)

		srv := httptest.NewServer(h)
		client := srv.Client()
		p.med("http.roundtrip_hit_us", perCall(p.reps(2000), func() {
			resp, err := client.Get(srv.URL + "/sssp?source=0")
			if err != nil {
				p.fail(err)
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
		}), 1e3)
		srv.Close()

		// Sources above the resident ones, so that every query searches.
		r := xrand.NewStream(probeSeed, streamClient)
		p.med("engine.path_ms", perCall(p.reps(100), func() {
			_, err := eng.Path(ctx, resident+r.Intn(n-resident), r.Intn(n))
			p.fail(err)
		}), 1e6)
	}

	return median(perCall(p.reps(15), func() {
		_, err := eng.Mutate(batches.Next(1))
		p.fail(err)
	})) / 1e6
}

// --- dynamic ---

// dynamic times the three steps of a one-edge mutation on a bare
// dynamic.Graph: apply, repair of one vector, and the CSR snapshot.
func (p *prober) dynamic(scale int) {
	n := 1 << scale
	g := gen.Uniform(n, n*8, gen.Config{Seed: probeSeed})
	dg := dynamic.FromCSR(g)
	batches := dynamic.NewBatchGen(dg, xrand.NewStream(probeSeed, streamBatches), g.MaxWeight())
	dist, parent := dg.SSSP(0)
	var apply, repair []float64
	for i := 0; i < p.reps(200); i++ {
		batch := batches.Next(1)
		t0 := time.Now()
		delta, err := dg.Apply(batch)
		t1 := time.Now()
		if err != nil {
			p.fail(err)
			return
		}
		dg.Repair(0, dist, parent, delta)
		apply = append(apply, float64(t1.Sub(t0)))
		repair = append(repair, float64(time.Since(t1)))
	}
	p.med("dynamic.apply1_us", apply, 1e3)
	p.med("dynamic.repair1_us", repair, 1e3)
	p.med("dynamic.snapshot_ms", perCall(p.reps(10), func() { sink += float64(dg.Snapshot().NumEdges()) }), 1e6)
}
