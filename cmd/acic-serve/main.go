// Command acic-serve is the resident SSSP query daemon: it loads (or
// generates) one graph, builds an internal/engine query engine over it, and
// serves single-source and point-to-point shortest-path queries over
// HTTP/JSON until SIGTERM/SIGINT, then drains gracefully.
//
// Examples:
//
//	acic-serve -addr :8080 -kind random -scale 14
//	acic-serve -input graph.csv -vertices 16384 -maxinflight 8
//
//	curl 'localhost:8080/sssp?source=0'
//	curl 'localhost:8080/path?source=0&target=42'
//	curl -X POST 'localhost:8080/mutate' -d '{"mutations":[{"op":"insert","from":0,"to":42,"weight":1.5}]}'
//	curl 'localhost:8080/healthz'
//	curl 'localhost:8080/metrics'
//
// The daemon always serves a dynamic engine: POST /mutate applies a batch
// of edge mutations (insert, delete, set_weight), bumps the graph epoch,
// and carries resident cached vectors over, repairing the ones the batch
// alters (see internal/dynamic). A body over 8 MiB is answered 413 and a
// batch of more than 65,536 mutations 400.
//
// Admission control sheds load with 429 + Retry-After once the in-flight
// and queued query bounds are both full; see internal/engine.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"acic/internal/core"
	"acic/internal/dynamic"
	"acic/internal/engine"
	"acic/internal/gen"
	"acic/internal/graph"
	"acic/internal/netsim"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		kind       = flag.String("kind", "random", "generated graph kind: rmat | random | grid")
		scale      = flag.Int("scale", 12, "2^scale vertices for generated graphs")
		edgeFactor = flag.Int("edgefactor", 16, "edges = edgefactor * 2^scale")
		seed       = flag.Uint64("seed", 1, "random seed")
		input      = flag.String("input", "", "edge-list CSV to load instead of generating")
		vertices   = flag.Int("vertices", 0, "vertex count for -input graphs")
		nodes      = flag.Int("nodes", 1, "simulated cluster nodes")
		ppn        = flag.Int("ppn", 2, "processes per node")
		pepp       = flag.Int("pepp", 2, "PEs per process")
		ptram      = flag.Float64("ptram", 0.999, "ACIC p_tram percentile fraction")
		ppq        = flag.Float64("ppq", 0.05, "ACIC p_pq percentile fraction")

		cacheSize    = flag.Int("cache", 64, "LRU distance-vector cache entries")
		maxInFlight  = flag.Int("maxinflight", 4, "concurrently executing queries (sizes the Scratch pool)")
		maxQueue     = flag.Int("maxqueue", 0, "queries allowed to wait for a slot (0 = 2×maxinflight)")
		queueTimeout = flag.Duration("queuetimeout", time.Second, "max wait for a slot before shedding with 429")
		drainWait    = flag.Duration("drainwait", 30*time.Second, "max wait for in-flight queries on shutdown")
	)
	flag.Parse()

	g, err := loadGraph(*input, *vertices, *kind, *scale, *edgeFactor, *seed)
	if err != nil {
		fail(err)
	}
	params := core.DefaultParams()
	params.PTram = *ptram
	params.PPQ = *ppq
	eng, err := engine.NewDynamic(dynamic.FromCSR(g), engine.Config{
		Topo:         netsim.Topology{Nodes: *nodes, ProcsPerNode: *ppn, PEsPerProc: *pepp},
		Params:       params,
		MaxInFlight:  *maxInFlight,
		MaxQueue:     *maxQueue,
		QueueTimeout: *queueTimeout,
		CacheEntries: *cacheSize,
	})
	if err != nil {
		fail(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	if err := serve(ctx, eng, g, *addr, *drainWait, os.Stdout, nil); err != nil {
		fail(err)
	}
}

// Connection timeouts. A client gets readHeaderTimeout to send its request
// headers and a keep-alive connection is closed after idleTimeout without
// a request, so stalled or abandoned connections cannot pin the daemon's
// file descriptors. There is deliberately no write timeout: a cache miss
// runs a full solve and may legitimately take long to answer.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newServer returns the daemon's HTTP server for h.
func newServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// serve listens on addr and serves eng's HTTP API until ctx is cancelled,
// then drains the engine with a drainWait deadline. onReady, if non-nil,
// receives the bound address once the listener is up (the in-process tests
// use it; external launchers parse the readiness line instead).
func serve(ctx context.Context, eng *engine.Engine, g *graph.Graph, addr string, drainWait time.Duration, out io.Writer, onReady func(net.Addr)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := newServer(eng.Handler())
	h := eng.Health()
	// The readiness line is part of the interface: the CI smoke stage (and
	// any launcher) parses the bound address from it.
	fmt.Fprintf(out, "acic-serve: listening on %s (|V|=%d |E|=%d, %d PEs, %d in-flight / %d queued)\n",
		ln.Addr(), g.NumVertices(), g.NumEdges(), h.PEs, h.MaxInFlight, h.MaxQueue)
	if onReady != nil {
		onReady(ln.Addr())
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(out, "acic-serve: draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), drainWait)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "acic-serve: http shutdown: %v\n", err)
	}
	if err := eng.Close(drainCtx); err != nil {
		return fmt.Errorf("engine drain: %w", err)
	}
	fmt.Fprintln(out, "acic-serve: drained cleanly")
	return nil
}

func loadGraph(input string, vertices int, kind string, scale, edgeFactor int, seed uint64) (*graph.Graph, error) {
	if input != "" {
		if vertices <= 0 {
			return nil, fmt.Errorf("-input requires -vertices")
		}
		f, err := os.Open(input)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return graph.ReadCSV(f, vertices)
	}
	return gen.ByKind(kind, scale, edgeFactor, gen.Config{Seed: seed})
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "acic-serve:", err)
	os.Exit(1)
}
