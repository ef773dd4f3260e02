package core

import (
	"math"
	"sync"
	"testing"

	"acic/internal/gen"
	"acic/internal/graph"
	"acic/internal/netsim"
	"acic/internal/seq"
)

// TestWorkersMatchDijkstra runs the multi-process worker path with every
// worker in this test process: four Workers, four sockfab nodes, real
// loopback TCP between them. The merged partial results must reproduce
// Dijkstra exactly, cover every vertex exactly once, and balance both the
// per-process conservation ledgers and the cross-process boundary flow.
func TestWorkersMatchDijkstra(t *testing.T) {
	topo := netsim.Topology{Nodes: 1, ProcsPerNode: 4, PEsPerProc: 2}
	g := gen.RMAT(10, 8, gen.DefaultRMAT(), gen.Config{Seed: 11})
	const source = 0

	results := runWorkers(t, g, source, Options{Topo: topo})

	dist := make([]float64, g.NumVertices())
	parent := make([]int32, g.NumVertices())
	seen := make([]bool, g.NumVertices())
	for i := range dist {
		dist[i] = math.NaN()
	}
	var boundaryOut, boundaryIn int64
	for p, res := range results {
		for i, v := range res.Vertices {
			if seen[v] {
				t.Fatalf("vertex %d reported by two workers", v)
			}
			seen[v] = true
			dist[v] = res.Dist[i]
			parent[v] = res.Parent[i]
		}
		if un := res.Audit.Unaccounted(); un != 0 {
			t.Errorf("worker %d ledger unbalanced: %d unaccounted\n%+v", p, un, res.Audit)
		}
		if res.Audit.NetQueue != 0 {
			t.Errorf("worker %d fabric not drained: %d queued", p, res.Audit.NetQueue)
		}
		boundaryOut += res.Audit.BoundaryOut
		boundaryIn += res.Audit.BoundaryIn
	}
	for v, ok := range seen {
		if !ok {
			t.Fatalf("vertex %d reported by no worker", v)
		}
	}
	if boundaryOut != boundaryIn {
		t.Errorf("launch-wide boundary flow: %d out != %d in", boundaryOut, boundaryIn)
	}
	if boundaryOut == 0 {
		t.Error("no frame crossed a process boundary")
	}
	if results[0].Reductions == 0 {
		t.Error("root worker reported no reductions")
	}

	want := seq.Dijkstra(g, source)
	if !seq.Equal(dist, want.Dist) {
		i := seq.FirstMismatch(dist, want.Dist)
		t.Fatalf("distance mismatch at vertex %d: workers=%v dijkstra=%v", i, dist[i], want.Dist[i])
	}
	// Parents must form a valid shortest-path tree: each reachable
	// non-source vertex improves through an edge from its parent.
	for v := range parent {
		if v == source || math.IsInf(dist[v], 1) {
			continue
		}
		if parent[v] < 0 {
			t.Fatalf("reachable vertex %d has no parent", v)
		}
	}
}

// runWorkers runs one Worker per topology process, all in this test
// process, and returns their partial results indexed by proc.
func runWorkers(t *testing.T, g *graph.Graph, source int, opts Options) []*WorkerResult {
	t.Helper()
	procs := opts.Topo.TotalProcs()
	workers := make([]*Worker, procs)
	addrs := make([]string, procs)
	for p := 0; p < procs; p++ {
		w, err := NewWorker(g, source, opts, p)
		if err != nil {
			t.Fatalf("worker %d: %v", p, err)
		}
		workers[p] = w
		addrs[p] = w.Addr()
	}

	results := make([]*WorkerResult, procs)
	errs := make([]error, procs)
	var wg sync.WaitGroup
	for p, w := range workers {
		wg.Add(1)
		go func(p int, w *Worker) {
			defer wg.Done()
			results[p], errs[p] = w.Run(addrs)
		}(p, w)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("worker %d run: %v", p, err)
		}
	}
	return results
}

// TestWorkersMatchMeshRun pins that Run's in-process TCP mesh and a
// two-Worker launch are one machine under two fabrics: same graph, source
// and options give bit-identical distances and parents (random float
// weights make the shortest-path tree unique), and every ledger closes
// exactly.
func TestWorkersMatchMeshRun(t *testing.T) {
	topo := netsim.Topology{Nodes: 1, ProcsPerNode: 2, PEsPerProc: 2}
	g := gen.Uniform(1<<10, 8<<10, gen.Config{Seed: 23})
	const source = 5

	mesh, err := Run(g, source, Options{Topo: topo, Transport: TransportTCP})
	if err != nil {
		t.Fatal(err)
	}
	if un := mesh.Stats.Audit.Unaccounted(); un != 0 || mesh.Stats.Audit.NetQueue != 0 {
		t.Errorf("mesh ledger not exact: %d unaccounted, %d queued", un, mesh.Stats.Audit.NetQueue)
	}

	covered := 0
	for p, res := range runWorkers(t, g, source, Options{Topo: topo}) {
		if un := res.Audit.Unaccounted(); un != 0 || res.Audit.NetQueue != 0 {
			t.Errorf("worker %d ledger not exact: %d unaccounted, %d queued", p, un, res.Audit.NetQueue)
		}
		for i, v := range res.Vertices {
			// Bit-identical, not approximately equal: == also holds for the
			// +Inf of an unreachable vertex.
			if res.Dist[i] != mesh.Dist[v] || res.Parent[i] != mesh.Parent[v] {
				t.Fatalf("vertex %d: worker %d has dist %v parent %d, mesh run dist %v parent %d",
					v, p, res.Dist[i], res.Parent[i], mesh.Dist[v], mesh.Parent[v])
			}
		}
		covered += len(res.Vertices)
	}
	if covered != g.NumVertices() {
		t.Errorf("workers reported %d vertices, want %d", covered, g.NumVertices())
	}
}

// TestWorkerRejectsBadConfig pins the constructor's validation.
func TestWorkerRejectsBadConfig(t *testing.T) {
	g := gen.Path(8)
	if _, err := NewWorker(g, 0, Options{}, 99); err == nil {
		t.Error("out-of-range proc accepted")
	}
	if _, err := NewWorker(g, -1, Options{}, 0); err == nil {
		t.Error("bad source accepted")
	}
	if _, err := NewWorker(g, 0, Options{Latency: netsim.DefaultLatency()}, 0); err == nil {
		t.Error("latency model accepted on a TCP worker")
	}
}
