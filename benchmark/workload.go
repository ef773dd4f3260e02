package main

import (
	"acic/internal/core"
	"acic/internal/dynamic"
	"acic/internal/gen"
	"acic/internal/graph"
	"acic/internal/netsim"
	"acic/internal/xrand"
)

// workload is one named set of inputs. All graphs are the paper's uniform
// random family; every solve runs on acic-serve's machine shape.
type workload struct {
	Name       string
	Why        string // one line, also in BENCHMARK.json
	scale      int    // 2^scale vertices
	edgeFactor int
	latency    netsim.LatencyModel
	transport  core.Transport
	serve      bool // HTTP daemon workload (else direct core.Run calls)
	writes     int  // /mutate ops per block of the writer client's stream
}

var workloads = []workload{
	{Name: "solve-small", scale: 10, edgeFactor: 8,
		Why: "2^10 vertices, zero latency: ~35 reductions around 0.2 ms of Dijkstra work, so the control plane's pacing is the whole run"},
	{Name: "solve-large", scale: 15, edgeFactor: 16,
		Why: "2^15 vertices at the paper's edge factor 16: ~1M updates through core handler, pq, tram and mailboxes, so the data plane dominates"},
	{Name: "solve-netsim", scale: 10, edgeFactor: 8, latency: netsim.DefaultLatency(),
		Why: "BenchmarkHotPathSSSP's configuration: the only workload whose inter-PE messages cross netsim's delay queue"},
	{Name: "solve-tcp", scale: 14, edgeFactor: 8, transport: core.TransportTCP,
		Why: "2-process loopback TCP mesh: the only workload through sockfab and the wire codec, mesh set-up paid per run"},
	{Name: "serve-read", scale: 14, edgeFactor: 8, serve: true,
		Why: "HTTP mix of 72% hot /sssp, 3% never-seen /sssp, 25% /path, no writes: cache, admission and http on hits, the solver on misses"},
	{Name: "serve-churn", scale: 14, edgeFactor: 8, serve: true, writes: 6,
		Why: "serve-read's mix with 3% one-edge /mutate batches beside the reads: repair, snapshot and re-homing taxed against read latency"},
}

// Shape of every solve: acic-serve's default machine (1 node x 2 processes
// x 2 PEs), the engine's defaults, and the 16-source cycle.
var topo = netsim.Topology{Nodes: 1, ProcsPerNode: 2, PEsPerProc: 2}

const (
	numSources  = 16 // solve-*: sources cycled; serve-*: hot sources
	numClients  = 2  // closed-loop callers of serve-*: one per core of the reference host
	maxInFlight = 4  // acic-serve -maxinflight default
	cacheSize   = 64 // acic-serve -cache default

	// A client's stream comes in blocks of blockOps requests: so many /path,
	// so many never-seen /sssp, the writer's /mutate, and hot /sssp for the
	// rest. One of two clients writes, so 6 per block is 3% of all requests.
	blockOps      = 100
	pathPerBlock  = 25
	freshPerBlock = 3
)

// quickShift is what -quick subtracts from every scale: same code paths on
// graphs small enough for the smoke test.
const quickShift = 4

func (w workload) vertices(quick bool) int {
	if quick {
		return 1 << (w.scale - quickShift)
	}
	return 1 << w.scale
}

// makeGraph generates the workload's graph from the seed alone.
func (w workload) makeGraph(seed uint64, quick bool) *graph.Graph {
	n := w.vertices(quick)
	return gen.Uniform(n, n*w.edgeFactor, gen.Config{Seed: seed})
}

// Streams of the one seed: each consumer draws from its own, so adding a
// draw to one never shifts another.
const (
	streamSources = 1
	streamFresh   = 2
	streamBatches = 3
	streamClient  = 16 // + client index
)

// pickSources draws numSources distinct vertices: the solve cycle, or the
// hot set of a serve workload.
func pickSources(n int, seed uint64) []int {
	r := xrand.NewStream(seed, streamSources)
	seen := make(map[int]bool, numSources)
	var out []int
	for len(out) < numSources && len(out) < n {
		if v := r.Intn(n); !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

type opKind uint8

const (
	opHot    opKind = iota // /sssp on a hot source: a hit unless the cache lost it
	opFresh                // /sssp on a never-seen source: a miss
	opPath                 // /path on a random pair
	opMutate               // POST /mutate, one edge
	numKinds
)

// op is one scheduled request.
type op struct {
	Kind   opKind
	Source int
	Target int
	Batch  []dynamic.Mutation
}

// opGen is one client's request stream, a pure function of (seed, client).
// Only client 0 writes, so mutation batches reach the engine in the order
// BatchGen made them, which is what keeps every delete and reweight valid.
//
// Kinds come in blocks of blockOps ops that hold each kind in its exact
// share, in a seeded order. Misses cost ~500x a hit, so a run's throughput
// is set by how many misses it drew; drawing each op independently let that
// count wander by +-7% between seeds, which the blocks remove.
type opGen struct {
	r         *xrand.Rand
	n         int
	hot       []int
	fresh     []int // never-seen sources, this client's share, used in order
	nextFresh int
	counts    [numKinds]int // ops of each kind per block
	block     []opKind      // what is left of the current block
	batches   *dynamic.BatchGen
}

// newOpGens builds the per-client streams over g. The never-seen sources are
// one seeded permutation of the non-hot vertices dealt round-robin, so no
// two clients ever ask for the same one.
func newOpGens(w workload, g *graph.Graph, hot []int, seed uint64) []*opGen {
	n := g.NumVertices()
	isHot := make(map[int]bool, len(hot))
	for _, h := range hot {
		isHot[h] = true
	}
	gens := make([]*opGen, numClients)
	for c := range gens {
		gen := &opGen{r: xrand.NewStream(seed, streamClient+uint64(c)), n: n, hot: hot}
		gen.counts[opFresh] = freshPerBlock
		gen.counts[opPath] = pathPerBlock
		if c == 0 && w.writes > 0 {
			gen.counts[opMutate] = w.writes
			gen.batches = dynamic.NewBatchGen(dynamic.FromCSR(g), xrand.NewStream(seed, streamBatches), g.MaxWeight())
		}
		gen.counts[opHot] = blockOps - gen.counts[opFresh] - gen.counts[opPath] - gen.counts[opMutate]
		gens[c] = gen
	}
	for i, v := range xrand.NewStream(seed, streamFresh).Perm(n) {
		if !isHot[v] {
			gens[i%numClients].fresh = append(gens[i%numClients].fresh, v)
		}
	}
	return gens
}

func (g *opGen) next() op {
	if len(g.block) == 0 {
		for kind, count := range g.counts {
			for ; count > 0; count-- {
				g.block = append(g.block, opKind(kind))
			}
		}
		g.r.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
	}
	kind := g.block[len(g.block)-1]
	g.block = g.block[:len(g.block)-1]
	switch kind {
	case opMutate:
		return op{Kind: opMutate, Batch: g.batches.Next(1)}
	case opFresh:
		src := g.fresh[g.nextFresh%len(g.fresh)]
		g.nextFresh++
		return op{Kind: opFresh, Source: src}
	case opPath:
		return op{Kind: opPath, Source: g.r.Intn(g.n), Target: g.r.Intn(g.n)}
	default:
		return op{Kind: opHot, Source: g.hot[g.r.Intn(len(g.hot))]}
	}
}
