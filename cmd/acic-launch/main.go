// Command acic-launch runs ACIC across real OS processes: it spawns one
// worker process per topology process, wires them together over loopback
// TCP (internal/sockfab), and merges their partial results. Every worker
// regenerates the same graph from the shared seed, hosts its span of PEs,
// and reports its slice of the distance vector plus its conservation
// ledger; the launcher validates the merge against sequential Dijkstra and
// checks that every per-process ledger closes and that the cross-process
// boundary counters balance launch-wide.
//
// The worker handshake runs over the child's stdio:
//
//	worker -> launcher:  ADDR <listen address>
//	launcher -> worker:  PEERS <addr0>,<addr1>,...
//	worker -> launcher:  RESULT <WorkerResult JSON>
//
// Example:
//
//	acic-launch -kind rmat -scale 12 -ppn 4 -pepp 2
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strings"
	"time"

	"acic/internal/core"
	"acic/internal/gen"
	"acic/internal/graph"
	"acic/internal/netsim"
	"acic/internal/seq"
	"acic/internal/tram"
)

func main() {
	var (
		kind       = flag.String("kind", "random", "generated graph kind: rmat | random | grid")
		scale      = flag.Int("scale", 12, "2^scale vertices")
		edgeFactor = flag.Int("edgefactor", 16, "edges = edgefactor * 2^scale")
		seed       = flag.Uint64("seed", 1, "random seed (shared by every worker)")
		source     = flag.Int("source", 0, "source vertex")
		nodes      = flag.Int("nodes", 1, "cluster nodes in the topology")
		ppn        = flag.Int("ppn", 4, "processes per node = worker OS processes")
		pepp       = flag.Int("pepp", 2, "PEs per process")
		ptram      = flag.Float64("ptram", 0.999, "ACIC p_tram percentile fraction")
		ppq        = flag.Float64("ppq", 0.05, "ACIC p_pq percentile fraction")
		bufSize    = flag.Int("bufsize", tram.DefaultCapacity, "tramlib buffer capacity")
		verify     = flag.Bool("verify", true, "check merged distances against Dijkstra")
		timeout    = flag.Duration("timeout", 2*time.Minute, "kill the launch after this long")
		workerIdx  = flag.Int("worker", -1, "internal: run as worker process N")
	)
	flag.Parse()

	topo := netsim.Topology{Nodes: *nodes, ProcsPerNode: *ppn, PEsPerProc: *pepp}
	cfg := runCfg{
		kind: *kind, scale: *scale, edgeFactor: *edgeFactor, seed: *seed,
		source: *source, topo: topo, ptram: *ptram, ppq: *ppq, bufSize: *bufSize,
	}
	if *workerIdx >= 0 {
		if err := runWorker(cfg, *workerIdx); err != nil {
			fmt.Fprintf(os.Stderr, "acic-launch worker %d: %v\n", *workerIdx, err)
			os.Exit(1)
		}
		return
	}
	if err := runLauncher(cfg, *verify, *timeout); err != nil {
		fmt.Fprintf(os.Stderr, "acic-launch: %v\n", err)
		os.Exit(1)
	}
}

// runCfg is everything a worker needs to rebuild the launcher's exact run:
// the graph recipe and the machine shape. It travels as argv.
type runCfg struct {
	kind       string
	scale      int
	edgeFactor int
	seed       uint64
	source     int
	topo       netsim.Topology
	ptram      float64
	ppq        float64
	bufSize    int
}

func (c runCfg) argv(worker int) []string {
	return []string{
		"-kind", c.kind,
		"-scale", fmt.Sprint(c.scale),
		"-edgefactor", fmt.Sprint(c.edgeFactor),
		"-seed", fmt.Sprint(c.seed),
		"-source", fmt.Sprint(c.source),
		"-nodes", fmt.Sprint(c.topo.Nodes),
		"-ppn", fmt.Sprint(c.topo.ProcsPerNode),
		"-pepp", fmt.Sprint(c.topo.PEsPerProc),
		"-ptram", fmt.Sprint(c.ptram),
		"-ppq", fmt.Sprint(c.ppq),
		"-bufsize", fmt.Sprint(c.bufSize),
		"-worker", fmt.Sprint(worker),
	}
}

func (c runCfg) buildGraph() (*graph.Graph, error) {
	return gen.ByKind(c.kind, c.scale, c.edgeFactor, gen.Config{Seed: c.seed})
}

func (c runCfg) options() core.Options {
	p := core.DefaultParams()
	p.PTram, p.PPQ = c.ptram, c.ppq
	p.TramCapacity = c.bufSize
	return core.Options{Topo: c.topo, Params: p}
}

// runWorker is the child side: rebuild the run, listen, hand the address
// to the launcher, wait for the peer list, run, report.
func runWorker(cfg runCfg, proc int) error {
	g, err := cfg.buildGraph()
	if err != nil {
		return err
	}
	w, err := core.NewWorker(g, cfg.source, cfg.options(), proc)
	if err != nil {
		return err
	}
	fmt.Printf("ADDR %s\n", w.Addr())

	line, err := readLine(bufio.NewReader(os.Stdin), "PEERS")
	if err != nil {
		return fmt.Errorf("waiting for the peer list: %w", err)
	}
	addrs := strings.Split(line, ",")

	res, err := w.Run(addrs)
	if err != nil {
		return err
	}
	// JSON has no +Inf; unreachable vertices travel as -1 (distances are
	// never negative) and the launcher restores them.
	for i, d := range res.Dist {
		if math.IsInf(d, 1) {
			res.Dist[i] = -1
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("RESULT %s\n", out)
	return nil
}

// readLine reads the next handshake line from r and strips the given
// prefix. A line has no length limit: a worker's RESULT carries its whole
// slice of the distance vector and passes bufio.Scanner's 64 KiB token cap
// at a few thousand vertices per process.
func readLine(r *bufio.Reader, prefix string) (string, error) {
	line, err := r.ReadString('\n')
	if err == io.EOF {
		return "", fmt.Errorf("stream closed before a %s line arrived", prefix)
	}
	if err != nil {
		return "", err
	}
	line = strings.TrimRight(line, "\r\n")
	if !strings.HasPrefix(line, prefix+" ") {
		if len(line) > 80 {
			line = line[:80] + "..."
		}
		return "", fmt.Errorf("expected %s line, got %q", prefix, line)
	}
	return strings.TrimPrefix(line, prefix+" "), nil
}

// workerProc is the launcher's handle on one child.
type workerProc struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	stdout *bufio.Reader
	result *core.WorkerResult
}

// runLauncher is the parent side: spawn, handshake, merge, validate.
func runLauncher(cfg runCfg, verify bool, timeout time.Duration) error {
	if err := cfg.topo.Validate(); err != nil {
		return err
	}
	procs := cfg.topo.TotalProcs()
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()

	start := time.Now()
	workers := make([]*workerProc, procs)
	defer func() {
		// On any failure path, make sure no child outlives the launcher.
		for _, w := range workers {
			if w != nil && w.cmd.Process != nil {
				w.cmd.Process.Kill()
				w.cmd.Wait()
			}
		}
	}()
	for p := 0; p < procs; p++ {
		cmd := exec.CommandContext(ctx, exe, cfg.argv(p)...)
		cmd.Stderr = os.Stderr
		stdin, err := cmd.StdinPipe()
		if err != nil {
			return err
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return err
		}
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("spawning worker %d: %w", p, err)
		}
		workers[p] = &workerProc{cmd: cmd, stdin: stdin, stdout: bufio.NewReader(stdout)}
	}

	// Collect every worker's listen address, then publish the full list.
	addrs := make([]string, procs)
	for p, w := range workers {
		addr, err := readLine(w.stdout, "ADDR")
		if err != nil {
			return fmt.Errorf("worker %d: %w", p, err)
		}
		addrs[p] = addr
	}
	peers := "PEERS " + strings.Join(addrs, ",") + "\n"
	for p, w := range workers {
		if _, err := io.WriteString(w.stdin, peers); err != nil {
			return fmt.Errorf("worker %d: sending peer list: %w", p, err)
		}
	}

	// Workers run concurrently; RESULT lines arrive in whatever order the
	// processes finish, but each child's own stream is ordered, so reading
	// them sequentially here cannot deadlock — only wait.
	for p, w := range workers {
		payload, err := readLine(w.stdout, "RESULT")
		if err != nil {
			return fmt.Errorf("worker %d: %w", p, err)
		}
		res := new(core.WorkerResult)
		if err := json.Unmarshal([]byte(payload), res); err != nil {
			return fmt.Errorf("worker %d: bad result: %w", p, err)
		}
		for i, d := range res.Dist {
			if d < 0 {
				res.Dist[i] = math.Inf(1)
			}
		}
		w.result = res
	}
	for p, w := range workers {
		w.stdin.Close()
		if err := w.cmd.Wait(); err != nil {
			return fmt.Errorf("worker %d: %w", p, err)
		}
		workers[p].cmd.Process = nil
	}
	elapsed := time.Since(start)

	return validate(cfg, workers, verify, elapsed)
}

// validate merges the partial results and holds the launch to the same
// bar as the in-process tests: full coverage, per-process ledgers closed,
// boundary flow balanced, and (optionally) exact agreement with Dijkstra.
func validate(cfg runCfg, workers []*workerProc, verify bool, elapsed time.Duration) error {
	g, err := cfg.buildGraph()
	if err != nil {
		return err
	}
	dist := make([]float64, g.NumVertices())
	seen := make([]bool, g.NumVertices())
	var boundaryOut, boundaryIn, reductions int64
	for p, w := range workers {
		res := w.result
		for i, v := range res.Vertices {
			if v < 0 || int(v) >= g.NumVertices() || seen[v] {
				return fmt.Errorf("worker %d reported vertex %d out of range or twice", p, v)
			}
			seen[v] = true
			dist[v] = res.Dist[i]
		}
		if un := res.Audit.Unaccounted(); un != 0 {
			return fmt.Errorf("worker %d conservation ledger unbalanced: %d unaccounted (%+v)", p, un, res.Audit)
		}
		if res.Audit.NetQueue != 0 {
			return fmt.Errorf("worker %d fabric not drained: %d frames queued", p, res.Audit.NetQueue)
		}
		boundaryOut += res.Audit.BoundaryOut
		boundaryIn += res.Audit.BoundaryIn
		reductions += res.Reductions
	}
	for v, ok := range seen {
		if !ok {
			return fmt.Errorf("vertex %d reported by no worker", v)
		}
	}
	if boundaryOut != boundaryIn {
		return fmt.Errorf("boundary flow unbalanced across the launch: %d out, %d in", boundaryOut, boundaryIn)
	}

	if verify {
		want := seq.Dijkstra(g, cfg.source)
		if !seq.Equal(dist, want.Dist) {
			i := seq.FirstMismatch(dist, want.Dist)
			return fmt.Errorf("distance mismatch at vertex %d: workers=%v dijkstra=%v", i, dist[i], want.Dist[i])
		}
	}

	var checksum float64
	reachable := 0
	for _, d := range dist {
		if !math.IsInf(d, 1) {
			checksum += d
			reachable++
		}
	}
	fmt.Printf("procs=%d pes=%d vertices=%d edges=%d reachable=%d checksum=%.4f reductions=%d boundary=%d elapsed=%s verified=%t\n",
		cfg.topo.TotalProcs(), cfg.topo.TotalPEs(), g.NumVertices(), g.NumEdges(),
		reachable, checksum, reductions, boundaryOut, elapsed.Round(time.Millisecond), verify)
	return nil
}
