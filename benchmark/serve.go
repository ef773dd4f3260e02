package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"acic/internal/dynamic"
	"acic/internal/engine"
	"acic/internal/graph"
	"acic/internal/metrics"
	"acic/internal/seq"
)

// opHeader carries a traced request's op id to the handler middleware, so
// the client span and the handler span of one request share it.
const opHeader = "X-Bench-Op"

// class is what a reply turned out to be, by the reply's own cache_hit,
// not by what the schedule meant it to be.
type class uint8

const (
	classHit class = iota
	classMiss
	classPath
	classMutate
	classFinal // the untimed read of every hot source after the run
)

// Of the hits and paths, every checkEvery[class]-th is compared with the
// oracle; misses, mutations and the final reads all are.
var checkEvery = map[class]int{classHit: 16, classPath: 8}

// reply is one completed request as the client saw it.
type reply struct {
	op     op
	id     int // client*idStride + index; the op id of its spans
	class  class
	start  time.Time
	dur    time.Duration
	status int // 0: the round trip itself failed
	epoch  uint64
	sssp   engine.SSSPResponse
	path   engine.PathResponse
	mut    engine.MutateResponse
	edges  int64 // misses: edges reachable from the source, set by validation
}

const idStride = 1 << 24

// handlerTimes is the traced pass's middleware around Engine.Handler: the
// handler span of every request that carries an op id.
type handlerTimes struct {
	next  http.Handler
	mu    sync.Mutex
	spans map[int][2]time.Time
}

// span returns the handler span of op id.
func (h *handlerTimes) span(id int) (began, ended time.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.spans[id][0], h.spans[id][1]
}

func (h *handlerTimes) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	t1 := time.Now()
	if id, err := strconv.Atoi(r.Header.Get(opHeader)); err == nil {
		h.mu.Lock()
		h.spans[id] = [2]time.Time{t0, t1}
		h.mu.Unlock()
	}
}

// serveEnv is a set-up serve workload: acic-serve's engine and handler at
// its defaults behind a real net/http server on loopback, the hot sources
// resident, and the keep-alive client the callers share.
type serveEnv struct {
	g0     *graph.Graph // the generated graph: epoch 0
	hot    []int
	eng    *engine.Engine
	srv    *http.Server
	served chan struct{} // closed when Serve has returned
	base   string
	client *http.Client
	times  *handlerTimes // traced passes only
}

func setupServe(w workload, cfg runConfig) (*serveEnv, error) {
	g := w.makeGraph(cfg.seed, cfg.quick)
	eng, err := engine.NewDynamic(dynamic.FromCSR(g), engine.Config{Topo: topo, MaxInFlight: maxInFlight, CacheEntries: cacheSize})
	if err != nil {
		return nil, err
	}
	env := &serveEnv{
		g0:     g,
		hot:    pickSources(g.NumVertices(), cfg.seed),
		eng:    eng,
		served: make(chan struct{}),
		client: &http.Client{Timeout: time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: numClients}},
	}
	handler := eng.Handler()
	if cfg.traced {
		env.times = &handlerTimes{next: handler, spans: map[int][2]time.Time{}}
		handler = env.times
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	env.base = "http://" + ln.Addr().String()
	env.srv = &http.Server{Handler: handler}
	go func() {
		defer close(env.served)
		_ = env.srv.Serve(ln) // returns ErrServerClosed from close()
	}()
	for _, src := range env.hot {
		if r := env.do(op{Kind: opHot, Source: src}, -1); r.status != http.StatusOK {
			env.close()
			return nil, fmt.Errorf("loading hot source %d: status %d", src, r.status)
		}
	}
	return env, nil
}

// close stops the server and the engine and waits for both.
func (env *serveEnv) close() {
	_ = env.srv.Close()
	<-env.served
	env.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_ = env.eng.Close(ctx)
}

// do issues one request and decodes its reply. The timed span is what a
// client waits: send, the server's work, reading and decoding the body.
// id >= 0 marks a traced request: it carries its op id and asks /sssp for
// the per-query metrics snapshot.
func (env *serveEnv) do(o op, id int) *reply {
	r := &reply{op: o, id: id}
	var req *http.Request // NewRequest cannot fail below: fixed methods, URLs built from integers
	var into any
	switch o.Kind {
	case opHot, opFresh:
		url := env.base + "/sssp?source=" + strconv.Itoa(o.Source)
		if id >= 0 {
			url += "&metrics=1"
		}
		req, _ = http.NewRequest(http.MethodGet, url, nil)
		into = &r.sssp
	case opPath:
		r.class = classPath
		req, _ = http.NewRequest(http.MethodGet, env.base+"/path?source="+strconv.Itoa(o.Source)+"&target="+strconv.Itoa(o.Target), nil)
		into = &r.path
	case opMutate:
		r.class = classMutate
		var body engine.MutateRequest
		for _, m := range o.Batch {
			body.Mutations = append(body.Mutations, engine.MutationJSON{Op: m.Op.String(), From: m.From, To: m.To, Weight: m.Weight})
		}
		buf, _ := json.Marshal(body)
		req, _ = http.NewRequest(http.MethodPost, env.base+"/mutate", bytes.NewReader(buf))
		into = &r.mut
	}
	if id >= 0 {
		req.Header.Set(opHeader, strconv.Itoa(id))
	}

	r.start = time.Now()
	resp, err := env.client.Do(req)
	if err == nil {
		if resp.StatusCode == http.StatusOK {
			err = json.NewDecoder(resp.Body).Decode(into)
		}
		_, _ = io.Copy(io.Discard, resp.Body) // drained, so the connection is reused
		_ = resp.Body.Close()
		if err == nil {
			r.status = resp.StatusCode
		}
	}
	r.dur = time.Since(r.start)

	switch o.Kind {
	case opHot, opFresh:
		r.epoch = r.sssp.Epoch
		r.class = classMiss
		if r.sssp.CacheHit {
			r.class = classHit
		}
	case opPath:
		r.epoch = r.path.Epoch
	case opMutate:
		r.epoch = r.mut.Epoch
	}
	return r
}

// serveLoop runs the closed loop: numClients callers, each issuing its own
// stream's next request as soon as the previous reply is decoded, until the
// budget is spent.
func (env *serveEnv) serveLoop(budget time.Duration, gens []*opGen) (replies []*reply, wall time.Duration, used usage) {
	perClient := make([][]*reply, len(gens))
	start, began := readUsage(), time.Now()
	var wg sync.WaitGroup
	for c, g := range gens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; time.Since(began) < budget; i++ {
				id := -1
				if env.times != nil {
					id = c*idStride + i
				}
				perClient[c] = append(perClient[c], env.do(g.next(), id))
			}
		}()
	}
	wg.Wait()
	wall, used = time.Since(began), readUsage().since(start)
	for _, rs := range perClient {
		replies = append(replies, rs...)
	}
	return replies, wall, used
}

// validate checks the replies against seq.Dijkstra on a shadow copy of the
// graph replayed, batch by batch, to each reply's epoch, and returns how
// many failed: a round trip or status that failed, a mutation whose epoch
// or edge count is off, an answer that differs from the oracle's. It also
// fills in every miss's reachable-edge count.
func validate(g0 *graph.Graph, replies []*reply) (failed int) {
	var mutations []*reply
	checks := map[uint64]map[int][]*reply{} // epoch -> source -> replies to check there
	lastEpoch := uint64(0)
	for i, r := range replies {
		if r.status != http.StatusOK {
			failed++
			continue
		}
		lastEpoch = max(lastEpoch, r.epoch)
		if r.class == classMutate {
			mutations = append(mutations, r)
			continue
		}
		if every := checkEvery[r.class]; every > 0 && i%every != 0 {
			continue
		}
		if checks[r.epoch] == nil {
			checks[r.epoch] = map[int][]*reply{}
		}
		checks[r.epoch][r.op.Source] = append(checks[r.epoch][r.op.Source], r)
	}
	sort.Slice(mutations, func(i, j int) bool { return mutations[i].epoch < mutations[j].epoch })

	shadow := dynamic.FromCSR(g0)
	var bad atomic.Int64
	for epoch := uint64(0); epoch <= lastEpoch; epoch++ {
		if epoch > 0 {
			// Batch epoch-1 made this epoch; the one writer issued them in order.
			if int(epoch) > len(mutations) {
				return failed + int(bad.Load()) + pending(checks, epoch)
			}
			m := mutations[epoch-1]
			if _, err := shadow.Apply(m.op.Batch); err != nil || m.epoch != epoch || m.mut.Edges != shadow.NumEdges() {
				return failed + int(bad.Load()) + 1 + pending(checks, epoch)
			}
		}
		bySource := checks[epoch]
		if len(bySource) == 0 {
			continue
		}
		snap := shadow.Snapshot()
		sources := make(chan int)
		var wg sync.WaitGroup
		for range runtime.GOMAXPROCS(0) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for src := range sources {
					o := newOracle(seq.Dijkstra(snap, src))
					for _, r := range bySource[src] {
						if !r.matches(o) {
							bad.Add(1)
						}
						r.edges = o.edges
					}
				}
			}()
		}
		for src := range bySource {
			sources <- src
		}
		close(sources)
		wg.Wait()
	}
	return failed + int(bad.Load())
}

// pending counts the replies still unchecked from epoch on: once the shadow
// cannot follow the engine, none of them can be confirmed.
func pending(checks map[uint64]map[int][]*reply, from uint64) (n int) {
	for epoch, bySource := range checks {
		if epoch >= from {
			for _, rs := range bySource {
				n += len(rs)
			}
		}
	}
	return n
}

// matches compares a read's answer with the oracle for its source and epoch.
func (r *reply) matches(o *oracle) bool {
	if r.class == classPath {
		want := o.dist[r.op.Target]
		if math.IsInf(want, 1) {
			return !r.path.Reachable
		}
		return r.path.Reachable && r.path.Distance != nil && closeTo(*r.path.Distance, want)
	}
	return r.sssp.Reachable == o.reachable && closeTo(r.sssp.Checksum, o.checksum)
}

// serveReference runs the untraced part of a traced pass, on an instance of
// its own so that the traced instance starts from the same state.
func serveReference(w workload, cfg runConfig, budget time.Duration) (replies []*reply, failed int, err error) {
	cfg.traced = false
	env, err := setupServe(w, cfg)
	if err != nil {
		return nil, 0, err
	}
	defer env.close()
	replies, _, _ = env.serveLoop(budget, newOpGens(w, env.g0, env.hot, cfg.seed))
	return replies, validate(env.g0, replies), nil
}

// runServe is one pass of a serve-* workload.
func runServe(w workload, cfg runConfig) (*outcome, error) {
	out := &outcome{res: newResults()}
	budget := time.Duration(cfg.seconds * float64(time.Second))

	var env *serveEnv
	var ref []*reply
	var err error
	if cfg.traced {
		// Traced pass: a quarter of the time untraced for the reference
		// medians, then half of it traced.
		var refFailed int
		if ref, refFailed, err = serveReference(w, cfg, budget/4); err != nil {
			return nil, err
		}
		out.failed += refFailed
		budget /= 2
		env, err = setupServe(w, cfg)
	} else {
		var secs, heapMB float64
		env, secs, heapMB, err = measureSetup(cfg.setupReps(), func() (*serveEnv, error) { return setupServe(w, cfg) }, (*serveEnv).close)
		out.res.set("setup_s", secs, cfg.setupReps())
		out.res.report("setup_heap_mb", "MB", heapMB, cfg.setupReps())
	}
	if err != nil {
		return nil, err
	}
	defer env.close()

	if cfg.traced {
		out.spans = newSpanLog() // its origin: the traced loop's start
	}
	before := env.eng.MetricsSnapshot()
	replies, wall, used := env.serveLoop(budget, newOpGens(w, env.g0, env.hot, cfg.seed))
	counters := env.eng.MetricsSnapshot().Diff(before)
	finals := make([]*reply, len(env.hot))
	for i, src := range env.hot {
		finals[i] = env.do(op{Kind: opHot, Source: src}, -1)
		finals[i].class = classFinal
	}
	out.failed += validate(env.g0, append(replies[:len(replies):len(replies)], finals...))
	out.attempted = len(ref) + len(replies) + len(finals)

	ops := make([]opSample, len(replies))
	for i, r := range replies {
		ops[i] = opSample{ms: float64(r.dur) / 1e6, solver: r.class == classMiss, edges: r.edges}
	}
	res := out.res
	if !cfg.traced {
		res.setEndToEnd(ops, wall.Seconds(), used)
	}
	// The classes apart, reported-only: BENCHMARK.json's metrics exist on
	// every workload and these do not.
	hit, path := classMS(replies, classHit), classMS(replies, classPath)
	res.report("serve_hit_us_p50", "us", 1e3*median(hit), len(hit))
	res.report("serve_hit_us_p90", "us", 1e3*tail(hit), len(hit))
	res.report("serve_path_ms_p50", "ms", median(path), len(path))
	res.report("serve_path_ms_p90", "ms", tail(path), len(path))
	if w.writes > 0 {
		mutate := classMS(replies, classMutate)
		res.report("serve_mutate_ms_p50", "ms", median(mutate), len(mutate))
		res.report("serve_mutate_ms_p90", "ms", tail(mutate), len(mutate))
	}
	if !cfg.traced {
		return out, nil
	}
	if err := env.setLayers(res, replies, ref, counters, out.spans, cfg.quick); err != nil {
		return nil, err
	}
	return out, nil
}

// setLayers derives a traced pass's per-layer metrics: the in-situ ones from
// the traced replies (their handler spans, the counters each miss's
// ?metrics=1 snapshot carries, the engine's own counters over the pass), the
// isolated ones from the probes. ref is the untraced reference loop.
func (env *serveEnv) setLayers(res *results, replies, ref []*reply, counters metrics.Snapshot, spans *spanLog, quick bool) error {
	var totals solverTotals
	var hot, unplanned, hitClientNS, hitHandlerNS, missNS, solverNS, settled, repaired, invalidated float64
	n := map[class]int{}
	for _, r := range replies {
		if r.status != http.StatusOK {
			continue
		}
		n[r.class]++
		began, ended := env.times.span(r.id)
		spans.add(r.id, "client.request", "", r.start, r.start.Add(r.dur))
		spans.add(r.id, "engine.handler", "client.request", began, ended)
		if r.op.Kind == opHot {
			hot++
		}
		switch r.class {
		case classHit:
			hitClientNS += float64(r.dur)
			hitHandlerNS += float64(ended.Sub(began))
		case classMiss:
			if r.op.Kind == opHot {
				unplanned++
			}
			elapsed := time.Duration(r.sssp.ElapsedNS)
			missNS += float64(r.dur)
			solverNS += float64(elapsed)
			// The solver ran inside the handler and ended just before the
			// reply was written; elapsed_ns is the reply's own figure.
			spans.add(r.id, "core.solver", "engine.handler", ended.Add(-elapsed), ended)
			if r.sssp.Metrics != nil {
				totals.addSnapshot(*r.sssp.Metrics, elapsed, ended.Sub(began))
			}
		case classPath:
			settled += float64(r.path.Settled)
		case classMutate:
			repaired += float64(r.mut.RepairedVectors)
			invalidated += float64(r.mut.InvalidatedLabels)
		}
	}

	oracles, dijkstraMS := makeOracles(env.g0, env.hot)
	pacedUS, err := runProbes(res, env.g0, oracles[0], quick)
	if err != nil {
		return fmt.Errorf("layer probes: %w", err)
	}
	every := []class{classHit, classMiss, classPath, classMutate}
	refMiss := median(classMS(ref, classMiss))
	totals.setLayers(res, pacedUS, refMiss)
	res.set("engine.hit_share", ratio(float64(n[classHit]), float64(n[classHit]+n[classMiss])), n[classHit]+n[classMiss])
	res.set("engine.unplanned_miss_share", ratio(unplanned, hot), int(hot))
	res.set("engine.follows", float64(counters.Counter("engine.singleflight_follows")), len(replies))
	res.set("engine.shed", float64(counters.Counter("engine.shed")), len(replies))
	res.set("engine.solver_share_of_miss", ratio(solverNS, missNS), n[classMiss])
	res.set("engine.path_settled_per_query", ratio(settled, float64(n[classPath])), n[classPath])
	res.set("http.transport_share_of_hit", 1-ratio(hitHandlerNS, hitClientNS), n[classHit])
	res.set("engine.repaired_vectors_per_mutate", ratio(repaired, float64(n[classMutate])), n[classMutate])
	res.set("engine.invalidated_labels_per_mutate", ratio(invalidated, float64(n[classMutate])), n[classMutate])
	res.set("seq.dijkstra_ms", median(dijkstraMS), len(dijkstraMS))
	res.set("seq.slowdown_x", ratio(refMiss, median(dijkstraMS)), len(ref))
	res.set("trace.overhead_share", ratio(median(classMS(replies, every...)), median(classMS(ref, every...)))-1, len(replies))
	res.reportSelfTimes(spans, len(replies))
	return nil
}

// classMS is the latencies (ms) of the replies in the given classes.
func classMS(replies []*reply, classes ...class) (ms []float64) {
	for _, r := range replies {
		for _, c := range classes {
			if r.class == c {
				ms = append(ms, float64(r.dur)/1e6)
			}
		}
	}
	return ms
}

// setServeLayersZero fills the engine's in-situ metrics on a workload that
// never reaches the engine.
func setServeLayersZero(r *results) {
	for _, name := range []string{
		"engine.hit_share", "engine.unplanned_miss_share", "engine.follows", "engine.shed",
		"engine.solver_share_of_miss", "engine.path_settled_per_query", "http.transport_share_of_hit",
		"engine.repaired_vectors_per_mutate", "engine.invalidated_labels_per_mutate",
	} {
		r.set(name, 0, 0)
	}
}
