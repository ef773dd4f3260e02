package main

import (
	"fmt"
	"time"

	"acic/internal/core"
	"acic/internal/graph"
	"acic/internal/metrics"
	"acic/internal/seq"
	"acic/internal/trace"
)

// warmSolves is how many solves set-up runs before anything is timed: the
// Scratch's arena, per-PE state and queues reach their steady size.
const warmSolves = 3

// traceCap is the recorder's per-PE event capacity in traced solves. A
// large run overflows it and keeps its newest events, which hold the
// quiescence tail; blocked_share is then read over that window.
const traceCap = 1 << 15

// solveEnv is a set-up solve workload: what a caller of core.Run holds.
type solveEnv struct {
	g       *graph.Graph
	sources []int
	opts    core.Options
}

func setupSolve(w workload, cfg runConfig) (*solveEnv, error) {
	g := w.makeGraph(cfg.seed, cfg.quick)
	env := &solveEnv{
		g:       g,
		sources: pickSources(g.NumVertices(), cfg.seed),
		opts: core.Options{
			Topo:      topo,
			Latency:   w.latency,
			Params:    core.DefaultParams(),
			Transport: w.transport,
			Scratch:   &core.Scratch{},
		},
	}
	for _, src := range env.sources[:warmSolves] {
		if _, err := core.Run(g, src, env.opts); err != nil {
			return nil, fmt.Errorf("warm-up solve from %d: %w", src, err)
		}
	}
	return env, nil
}

// solverTotals sums what traced solves report about the layers under
// core.Run. solve-* fills it from each run's Stats, registry and recorder;
// serve-* from the ?metrics=1 snapshot and elapsed_ns of each miss.
type solverTotals struct {
	solves    int
	elapsedNS float64   // sum of Stats.Elapsed
	buildMS   []float64 // per solve: the caller's wall time minus Stats.Elapsed
	counters  map[string]float64
	maxDepth  float64 // netsim.max_queue_depth high-water over all solves

	// From the recorder; solve-* only.
	tailNS, tailBaseNS       float64 // last idle-work event to the last event / Stats.Elapsed
	blockedNS, blockedBaseNS float64 // sum of block->wake / sum of per-PE observed windows
	boundaryFrames           float64
}

// solverCounters are the registry counters summed per traced solve.
var solverCounters = []string{
	"core.reductions", "core.updates_created", "core.updates_rejected", "core.relaxations",
	"core.tram_hold_parked", "core.pq_hold_parked",
	"runtime.blocks", "runtime.app_delivered",
	"tram.batches", "tram.items", "tram.auto_flushes",
	"netsim.messages_sent",
}

func (t *solverTotals) addSnapshot(s metrics.Snapshot, elapsed, wall time.Duration) {
	if t.counters == nil {
		t.counters = map[string]float64{}
	}
	t.solves++
	t.elapsedNS += float64(elapsed)
	t.buildMS = append(t.buildMS, float64(wall-elapsed)/1e6)
	for _, name := range solverCounters {
		t.counters[name] += float64(s.Counter(name))
	}
	if d := float64(s.Gauge("netsim.max_queue_depth").Max); d > t.maxDepth {
		t.maxDepth = d
	}
}

// addTimeline reads one run's recorder: the quiescence tail (from the last
// idle-work event, the last useful relaxation, to the last event of the run)
// and the time PEs sat blocked on an empty mailbox.
func (t *solverTotals) addTimeline(rec *trace.Recorder, elapsed time.Duration) (lastWork, lastEvent time.Duration) {
	for _, s := range rec.Summarize() {
		t.blockedNS += float64(s.BlockedTime)
	}
	for pe := 0; pe < rec.NumPEs(); pe++ {
		events := rec.Timeline(pe)
		if len(events) == 0 {
			continue
		}
		for _, e := range events {
			if e.Kind == trace.KindIdleWork {
				lastWork = max(lastWork, e.At)
			}
		}
		last := events[len(events)-1].At
		lastEvent = max(lastEvent, last)
		t.blockedBaseNS += float64(last - events[0].At)
	}
	if lastWork > 0 {
		t.tailNS += float64(lastEvent - lastWork)
	}
	t.tailBaseNS += float64(elapsed)
	return lastWork, lastEvent
}

// setLayers turns the totals into the in-situ per-layer metrics. pacedUS is
// the isolated cost of one paced reduce->broadcast cycle and solveMS the
// pass's untraced solve_ms_p50: their product with the reduction count is
// the share of a solve the control plane's pacing alone explains.
func (t *solverTotals) setLayers(r *results, pacedUS, solveMS float64) {
	n := float64(t.solves)
	per := func(name string) float64 { return ratio(t.counters[name], n) }
	c := t.counters
	r.set("core.reductions", per("core.reductions"), t.solves)
	r.set("core.reduction_period_us", ratio(t.elapsedNS/1e3, c["core.reductions"]), t.solves)
	r.set("core.control_floor_share", ratio(per("core.reductions")*pacedUS/1e3, solveMS), t.solves)
	r.set("core.quiescence_tail_share", ratio(t.tailNS, t.tailBaseNS), t.solves)
	r.set("core.build_ms", median(t.buildMS), len(t.buildMS))
	r.set("core.updates_created", per("core.updates_created"), t.solves)
	r.set("core.useful_update_ratio", 1-ratio(c["core.updates_rejected"], c["core.updates_created"]), t.solves)
	r.set("core.relaxations_per_s", ratio(c["core.relaxations"], t.elapsedNS/1e9), t.solves)
	r.set("core.hold_parked", per("core.tram_hold_parked")+per("core.pq_hold_parked"), t.solves)
	r.set("runtime.blocked_share", ratio(t.blockedNS, t.blockedBaseNS), t.solves)
	r.set("runtime.blocks", per("runtime.blocks"), t.solves)
	r.set("runtime.app_delivered", per("runtime.app_delivered"), t.solves)
	r.set("tram.batches", per("tram.batches"), t.solves)
	r.set("tram.items_per_batch", ratio(c["tram.items"], c["tram.batches"]), t.solves)
	r.set("tram.manual_flush_share", ratio(c["tram.batches"]-c["tram.auto_flushes"], c["tram.batches"]), t.solves)
	r.set("netsim.messages", per("netsim.messages_sent"), t.solves)
	r.set("netsim.max_queue_depth", t.maxDepth, t.solves)
	r.set("sockfab.boundary_frames", ratio(t.boundaryFrames, n), t.solves)
}

// solveLoop is the closed loop of one caller: solve, check, next source,
// until the budget is spent. Each answer is compared with its oracle and
// its conservation ledger audited between ops, outside the timed call.
// With spans set the loop is the traced pass and also fills totals.
func (env *solveEnv) solveLoop(budget time.Duration, oracles []*oracle, spans *spanLog, totals *solverTotals) (ops []opSample, failed int, used usage) {
	start := readUsage()
	for i, began := 0, time.Now(); time.Since(began) < budget; i++ {
		at := i % len(env.sources)
		src, opts := env.sources[at], env.opts
		var reg *metrics.Registry
		var rec *trace.Recorder
		var recStart time.Time
		if spans != nil {
			reg = metrics.New(topo.TotalPEs())
			recStart = time.Now()
			rec = trace.New(topo.TotalPEs(), traceCap)
			opts.Metrics, opts.Trace = reg, rec
		}
		t0 := time.Now()
		res, err := core.Run(env.g, src, opts)
		t1 := time.Now()
		if err != nil || !sameDist(res.Dist, oracles[at].dist) ||
			res.Stats.Audit.Unaccounted() != 0 || res.Stats.Audit.NetQueue != 0 {
			failed++
		}
		checked := time.Now()
		ops = append(ops, opSample{ms: float64(t1.Sub(t0)) / 1e6, solver: true, edges: oracles[at].edges})
		if spans == nil || err != nil {
			continue
		}
		elapsed := res.Stats.Elapsed
		totals.addSnapshot(reg.Snapshot(), elapsed, t1.Sub(t0))
		totals.boundaryFrames += float64(res.Stats.Audit.BoundaryOut)
		lastWork, lastEvent := totals.addTimeline(rec, elapsed)
		// Children of core.Run, placed from the run's own timeline: the
		// machine stops at its last event, ran for Stats.Elapsed before
		// that, and did its last useful relaxation at lastWork.
		stop := earliest(recStart.Add(lastEvent), t1)
		run := latest(stop.Add(-elapsed), t0)
		work := latest(recStart.Add(lastWork), run)
		spans.add(i, "bench.solve", "", recStart, checked)
		spans.add(i, "core.Run", "bench.solve", t0, t1)
		spans.add(i, "core.build", "core.Run", t0, run)
		spans.add(i, "core.active", "core.Run", run, work)
		spans.add(i, "core.tail", "core.Run", work, stop)
		spans.add(i, "core.teardown", "core.Run", stop, t1)
	}
	return ops, failed, readUsage().since(start)
}

// makeOracles runs seq.Dijkstra from every source, timing each: the
// single-threaded baseline row.
func makeOracles(g *graph.Graph, sources []int) (oracles []*oracle, dijkstraMS []float64) {
	for _, src := range sources {
		t0 := time.Now()
		res := seq.Dijkstra(g, src)
		dijkstraMS = append(dijkstraMS, float64(time.Since(t0))/1e6)
		oracles = append(oracles, newOracle(res))
	}
	return oracles, dijkstraMS
}

// runSolve is one pass of a solve-* workload.
func runSolve(w workload, cfg runConfig) (*outcome, error) {
	out := &outcome{res: newResults()}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	setup := func() (*solveEnv, error) { return setupSolve(w, cfg) }

	if !cfg.traced {
		env, secs, heapMB, err := measureSetup(cfg.setupReps(), setup, func(*solveEnv) {})
		if err != nil {
			return nil, err
		}
		oracles, _ := makeOracles(env.g, env.sources)
		ops, failed, used := env.solveLoop(budget, oracles, nil, nil)
		out.attempted, out.failed = len(ops), failed
		out.res.set("setup_s", secs, cfg.setupReps())
		out.res.report("setup_heap_mb", "MB", heapMB, cfg.setupReps())
		out.res.setEndToEnd(ops, sum(opMS(ops))/1e3, used)
		return out, nil
	}

	// Traced pass: a quarter of the time untraced for the reference median,
	// half of it traced, then the isolated probes on this graph.
	env, err := setup()
	if err != nil {
		return nil, err
	}
	oracles, dijkstraMS := makeOracles(env.g, env.sources)
	ref, refFailed, _ := env.solveLoop(budget/4, oracles, nil, nil)
	out.spans = newSpanLog()
	var totals solverTotals
	ops, failed, _ := env.solveLoop(budget/2, oracles, out.spans, &totals)
	out.attempted, out.failed = len(ref)+len(ops), refFailed+failed

	pacedUS, err := runProbes(out.res, env.g, oracles[0], cfg.quick)
	if err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	refMS, tracedMS := median(opMS(ref)), median(opMS(ops))
	totals.setLayers(out.res, pacedUS, refMS)
	setServeLayersZero(out.res)
	out.res.set("seq.dijkstra_ms", median(dijkstraMS), len(dijkstraMS))
	out.res.set("seq.slowdown_x", ratio(refMS, median(dijkstraMS)), len(ref))
	out.res.set("trace.overhead_share", ratio(tracedMS, refMS)-1, len(ops))
	out.res.reportSelfTimes(out.spans, len(ops))
	return out, nil
}

func earliest(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

func latest(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// opMS is the ops' latencies in milliseconds.
func opMS(ops []opSample) []float64 {
	ms := make([]float64, len(ops))
	for i, o := range ops {
		ms[i] = o.ms
	}
	return ms
}
