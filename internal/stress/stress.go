package stress

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"acic/internal/cc"
	"acic/internal/core"
	"acic/internal/deltastep"
	"acic/internal/distctrl"
	"acic/internal/gen"
	"acic/internal/graph"
	"acic/internal/metrics"
	"acic/internal/netsim"
	"acic/internal/runtime"
	"acic/internal/seq"
	"acic/internal/trace"
	"acic/internal/tram"
	"acic/internal/xrand"
)

// Options configure one harness invocation. The zero value is not useful;
// cmd/acic-stress fills it from flags.
type Options struct {
	// Seed determines the entire matrix: graph structure, sources, jitter
	// streams. The same (Seed, Rounds, Profiles, Short) enumeration always
	// produces the same runs.
	Seed uint64
	// Rounds is the number of full passes over the algorithm × topology ×
	// graph × profile matrix; each pass draws fresh per-run seeds.
	Rounds int
	// Profiles restricts the jitter profiles; nil means Profiles().
	Profiles []Profile
	// Faults restricts the fabric fault profiles exercised by the acic
	// fault sub-matrix; nil means Faults(). The literal element FaultNone
	// disables that sub-matrix entirely.
	Faults []Fault
	// Churn selects the dynamic-graph churn sub-matrix: ChurnOn (the
	// default, also selected by the zero value) includes it alongside the
	// classic matrix, ChurnOff drops it, ChurnOnly runs nothing else — the
	// CI churn smoke stage.
	Churn ChurnMode
	// Short shrinks the matrix and the graphs for a CI-speed smoke pass.
	Short bool
	// Only, when non-nil, replays exactly one run index from the
	// enumeration — the counterexample-replay workflow. (A pointer so the
	// zero Options value means "all runs", while run index 0 stays
	// addressable.)
	Only *int
	// Timeout bounds one run's wall time; a run that exceeds it is
	// reported as a hang (the loud failure mode message loss produces).
	// Zero means 60s.
	Timeout time.Duration
	// Log receives one line per run when Verbose, and failure detail
	// always; nil means discard.
	Log     io.Writer
	Verbose bool
	// ArtifactDir, when non-empty, makes the harness replay every failing
	// acic run once with the full observability stack attached and write
	// the three artifacts — trace-chrome.json, metrics.json, audit.jsonl —
	// under ArtifactDir/run-<index>/ for offline diagnosis. The other
	// drivers carry no introspection hooks, so only acic failures dump.
	ArtifactDir string
}

// Spec identifies one run of the matrix. Seed alone fully determines the
// run's graph, source, and jitter stream.
type Spec struct {
	Index   int
	Algo    string
	Graph   string
	Topo    string
	Profile Profile
	// Fault is the fabric fault profile; FaultNone for the classic matrix.
	Fault Fault
	// Fabric selects the transport: "" is the simulated in-process fabric
	// (netsim), "tcp" is real loopback sockets (sockfab). The TCP sub-matrix
	// enumerates each of its spec shapes under both values, pinning that the
	// algorithm is fabric-agnostic.
	Fabric string
	Seed   uint64
}

func (s Spec) String() string {
	out := fmt.Sprintf("run=%d algo=%s graph=%s topo=%s profile=%s",
		s.Index, s.Algo, s.Graph, s.Topo, s.Profile)
	if s.faulted() {
		out += fmt.Sprintf(" fault=%s", s.Fault)
	}
	if s.Fabric != "" {
		out += fmt.Sprintf(" fabric=%s", s.Fabric)
	}
	return out + fmt.Sprintf(" seed=%#x", s.Seed)
}

// Failure is one run that violated the oracle or a conservation invariant.
type Failure struct {
	Spec Spec
	Err  error
}

// Report summarizes a harness invocation.
type Report struct {
	Total    int
	Failures []Failure
}

// Algorithms lists the four drivers the matrix exercises — ACIC, its two
// comparators and the cc extension — plus the raw fabric hammer that
// stresses the delay-queue layer beneath them. The churn workload
// (churn.go) rides the same enumeration under algo "churn".
func Algorithms() []string {
	return []string{"fabric", "acic", "deltastep", "distctrl", "cc"}
}

// ChurnMode selects how the churn sub-matrix participates in a run.
type ChurnMode string

const (
	ChurnOn   ChurnMode = "on"
	ChurnOff  ChurnMode = "off"
	ChurnOnly ChurnMode = "only"
)

// ParseChurn maps a flag value to a ChurnMode; "" means ChurnOn.
func ParseChurn(s string) (ChurnMode, error) {
	switch ChurnMode(s) {
	case "", ChurnOn:
		return ChurnOn, nil
	case ChurnOff, ChurnOnly:
		return ChurnMode(s), nil
	}
	return "", fmt.Errorf("stress: unknown churn mode %q (want on, off, or only)", s)
}

func topoByName(name string) netsim.Topology {
	switch name {
	case "single4":
		return netsim.SingleNode(4)
	case "single8":
		return netsim.SingleNode(8)
	case "paper1":
		return netsim.PaperNode(1)
	case "multi4":
		// Four processes of two PEs each — the multi-process shape the TCP
		// sub-matrix drives over real loopback sockets.
		return netsim.Topology{Nodes: 1, ProcsPerNode: 4, PEsPerProc: 2}
	}
	panic(fmt.Sprintf("stress: unknown topology %q", name))
}

// enumerate builds the deterministic run list for opts. Per-run seeds are
// derived from (master seed, index) so the list can be reconstructed — and
// any single run replayed — from the flags alone.
func enumerate(opts Options) []Spec {
	topos := []string{"single4", "single8", "paper1"}
	graphs := []string{"uniform", "erdos", "rmat", "grid", "star", "cycle"}
	if opts.Short {
		topos = []string{"single4"}
		graphs = []string{"uniform", "star"}
	}
	profiles := opts.Profiles
	if len(profiles) == 0 {
		profiles = Profiles()
	}
	faults := opts.Faults
	if len(faults) == 0 {
		faults = Faults()
	}
	faultTopos := []string{"single4", "paper1"}
	faultGraphs := []string{"uniform", "rmat"}
	faultProfiles := []Profile{ProfileNone, ProfileUniform}
	if opts.Short {
		faultTopos = []string{"single4"}
		faultGraphs = []string{"uniform"}
		faultProfiles = []Profile{ProfileNone}
	}
	churnGraphs := []string{"uniform", "rmat", "grid"}
	if opts.Short {
		churnGraphs = []string{"uniform"}
	}
	churn := opts.Churn
	if churn == "" {
		churn = ChurnOn
	}
	rounds := opts.Rounds
	if rounds <= 0 {
		rounds = 1
	}
	tcpTopos := []string{"single4", "multi4"}
	tcpGraphs := []string{"uniform", "rmat"}
	if opts.Short {
		tcpTopos = []string{"multi4"}
		tcpGraphs = []string{"uniform"}
	}
	var specs []Spec
	add := func(algo, graphName, topoName string, p Profile, f Fault, fabric string) {
		idx := len(specs)
		seed := xrand.NewSplitMix64(opts.Seed ^ (uint64(idx)+1)*0x9e3779b97f4a7c15).Next()
		specs = append(specs, Spec{Index: idx, Algo: algo, Graph: graphName, Topo: topoName, Profile: p, Fault: f, Fabric: fabric, Seed: seed})
	}
	for r := 0; r < rounds; r++ {
		if churn != ChurnOnly {
			for _, p := range profiles {
				// The fabric hammer runs once per profile per round, plus the
				// tightest-timing zero-latency case.
				add("fabric", "-", "paper1", p, FaultNone, "")
			}
			add("fabric", "-", "paper1", ProfileNone, FaultNone, "")
			for _, algo := range Algorithms()[1:] {
				for _, topoName := range topos {
					for _, graphName := range graphs {
						for _, p := range profiles {
							add(algo, graphName, topoName, p, FaultNone, "")
						}
					}
				}
			}
			// The TCP sub-matrix: acic over real loopback sockets (sockfab),
			// each shape enumerated back to back with the identical spec on
			// the simulated fabric. Real sockets own their timing, so jitter
			// profiles and fault plans do not apply; both members of a pair
			// run ProfileNone/FaultNone and differ only in Fabric.
			for _, topoName := range tcpTopos {
				for _, graphName := range tcpGraphs {
					add("acic", graphName, topoName, ProfileNone, FaultNone, "")
					add("acic", graphName, topoName, ProfileNone, FaultNone, "tcp")
				}
			}
			// The fault sub-matrix: acic over a fabric whose reorder filter
			// breaks per-pair FIFO. Same oracle, same conservation audit:
			// label-correcting relaxation must not care about arrival order.
			for _, f := range faults {
				if f == FaultNone {
					continue
				}
				for _, topoName := range faultTopos {
					for _, graphName := range faultGraphs {
						for _, p := range faultProfiles {
							add("acic", graphName, topoName, p, f, "")
						}
					}
				}
			}
		}
		// The churn sub-matrix: mutation streams over dynamic graphs,
		// oracle-validated per epoch (churn.go). Jitter profiles and fault
		// injection do not apply — the mutation path is synchronous.
		if churn != ChurnOff {
			for _, graphName := range churnGraphs {
				add("churn", graphName, "single4", ProfileNone, FaultNone, "")
			}
		}
	}
	return specs
}

// buildGraph constructs the named graph family from r. Sizes are drawn
// from r too, so every seed explores a different shape.
func buildGraph(name string, r *xrand.Rand, short bool) *graph.Graph {
	lo, hi := 200, 900
	if short {
		lo, hi = 80, 250
	}
	n := lo + r.Intn(hi-lo)
	cfg := gen.Config{Seed: r.Uint64(), MaxWeight: 100}
	switch name {
	case "uniform":
		return gen.Uniform(n, 3*n, cfg)
	case "erdos":
		return gen.ErdosRenyi(n, 4*n, cfg)
	case "rmat":
		scale := 7
		if !short {
			scale = 8 + r.Intn(2)
		}
		return gen.RMAT(scale, 8, gen.DefaultRMAT(), cfg)
	case "grid":
		side := int(math.Sqrt(float64(n)))
		return gen.Grid(side, side, cfg)
	case "star":
		return gen.Star(n)
	case "cycle":
		return gen.Cycle(n)
	}
	panic(fmt.Sprintf("stress: unknown graph family %q", name))
}

// Run executes the matrix and returns the report. It never returns a
// non-nil error for run failures — those are in the report; the error is
// reserved for invalid options.
func Run(opts Options) (Report, error) {
	for _, p := range opts.Profiles {
		if _, err := ParseProfile(string(p)); err != nil {
			return Report{}, err
		}
	}
	for _, f := range opts.Faults {
		if _, err := ParseFault(string(f)); err != nil {
			return Report{}, err
		}
	}
	if _, err := ParseChurn(string(opts.Churn)); err != nil {
		return Report{}, err
	}
	specs := enumerate(opts)
	if opts.Only != nil && (*opts.Only < 0 || *opts.Only >= len(specs)) {
		return Report{}, fmt.Errorf("stress: -run %d out of range, matrix has %d runs", *opts.Only, len(specs))
	}
	log := opts.Log
	if log == nil {
		log = io.Discard
	}
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = 60 * time.Second
	}
	rep := Report{}
	for _, spec := range specs {
		if opts.Only != nil && spec.Index != *opts.Only {
			continue
		}
		rep.Total++
		err := runWithTimeout(spec, opts.Short, timeout)
		if err != nil {
			rep.Failures = append(rep.Failures, Failure{Spec: spec, Err: err})
			fmt.Fprintf(log, "FAIL %s\n     %v\n", spec, err)
			if opts.ArtifactDir != "" && spec.Algo == "acic" {
				dumpArtifacts(spec, opts.Short, opts.ArtifactDir, timeout, log)
			}
		} else if opts.Verbose {
			fmt.Fprintf(log, "ok   %s\n", spec)
		}
	}
	return rep, nil
}

// runWithTimeout guards one run with a wall-clock watchdog: the loud
// failure mode of a lost or miscounted message is a hang (quiescence never
// fires because the counters stay unequal), which must surface as a
// replayable failure, not stall the harness. A timed-out run's goroutine is
// abandoned; acceptable for a stress tool already on its failure path.
func runWithTimeout(spec Spec, short bool, timeout time.Duration) error {
	done := make(chan error, 1)
	go func() { done <- runSpec(spec, short) }()
	select {
	case err := <-done:
		return err
	case <-time.After(timeout):
		return fmt.Errorf("hang: no termination after %v (lost or unaccounted message keeps the quiescence counters unequal)", timeout)
	}
}

// specInputs reconstructs a run's deterministic inputs from its seed — the
// topology, graph, source, jitter stream and fault plan, drawn in exactly
// the order runSpec consumes them — so an instrumented replay sees the
// identical schedule envelope as the failed run. The fault seed is drawn
// last (and drawn even for FaultNone specs) so the classic matrix keeps
// its historical per-seed inputs.
func specInputs(spec Spec, short bool) (netsim.Topology, *graph.Graph, int, netsim.JitterFunc, netsim.FaultPlan) {
	r := xrand.New(spec.Seed)
	topo := topoByName(spec.Topo)
	g := buildGraph(spec.Graph, r, short)
	src := r.Intn(g.NumVertices())
	jit := NewJitter(spec.Profile, r.Uint64(), topo)
	fault := spec.Fault
	if fault == "" {
		fault = FaultNone
	}
	fp := NewFaultPlan(fault, r.Uint64(), topo)
	return topo, g, src, jit, fp
}

// faulted reports whether spec runs over an actively hostile fabric.
func (s Spec) faulted() bool { return s.Fault != "" && s.Fault != FaultNone }

// runSpec executes one run and applies the oracle and invariant checks.
func runSpec(spec Spec, short bool) error {
	if spec.Algo == "fabric" {
		return fabricStress(spec.Seed, spec.Profile, short)
	}
	if spec.Algo == "churn" {
		return churnStress(spec, short)
	}
	topo, g, src, jit, fp := specInputs(spec, short)
	lat := netsim.DefaultLatency()

	var (
		dist  []float64
		audit runtime.Audit
		ts    tram.Stats
		err   error
	)
	switch spec.Algo {
	case "acic":
		var res *core.Result
		res, err = core.Run(g, src, acicOptions(spec, topo, jit, fp))
		if err == nil {
			dist, audit, ts = res.Dist, res.Stats.Audit, res.Stats.TramStats
		}
	case "deltastep":
		var res *deltastep.Result
		res, err = deltastep.Run(g, src, deltastep.Options{Topo: topo, Latency: lat, Jitter: jit})
		if err == nil {
			dist, audit, ts = res.Dist, res.Stats.Audit, res.Stats.TramStats
		}
	case "distctrl":
		var res *distctrl.Result
		res, err = distctrl.Run(g, src, distctrl.Options{Topo: topo, Latency: lat, Jitter: jit})
		if err == nil {
			dist, audit, ts = res.Dist, res.Stats.Audit, res.Stats.TramStats
		}
	case "cc":
		var res *cc.Result
		res, err = cc.Run(g, cc.Options{Topo: topo, Latency: lat, Jitter: jit})
		if err != nil {
			return err
		}
		want := cc.SequentialCC(g)
		for v := range want {
			if res.Labels[v] != want[v] {
				return fmt.Errorf("oracle: label[%d] = %d, want %d", v, res.Labels[v], want[v])
			}
		}
		return checkInvariants(res.Stats.Audit, res.Stats.TramStats)
	default:
		return fmt.Errorf("stress: unknown algorithm %q", spec.Algo)
	}
	if err != nil {
		return err
	}
	want := seq.Dijkstra(g, src)
	if i := seq.FirstMismatch(want.Dist, dist); i >= 0 {
		return fmt.Errorf("oracle: dist[%d] = %g, want %g (source %d)", i, dist[i], want.Dist[i], src)
	}
	return checkInvariants(audit, ts)
}

// acicOptions builds the core.Options an acic spec runs with, for runSpec
// and for dumpArtifacts' instrumented replay alike. Real sockets own their
// timing: a TCP spec carries no latency model, jitter or fault plan, and
// its ledger must balance including the per-process boundary counters.
func acicOptions(spec Spec, topo netsim.Topology, jit netsim.JitterFunc, fp netsim.FaultPlan) core.Options {
	if spec.Fabric == "tcp" {
		return core.Options{Topo: topo, Transport: core.TransportTCP}
	}
	return core.Options{Topo: topo, Latency: netsim.DefaultLatency(), Jitter: jit, Fault: fp}
}

// dumpArtifacts replays one failing acic spec with the full observability
// stack attached — trace recorder, metrics registry, threshold audit — and
// writes the three artifacts under dir/run-<index>/. The replay draws the
// same seeds as the failed run, so under the deterministic delay fabric it
// walks the same schedule envelope. A replay that hangs (the loud
// message-loss mode) is abandoned without a dump: its recorder and
// registry are still being written by the stuck goroutine, so reading
// them would race.
func dumpArtifacts(spec Spec, short bool, artifactDir string, timeout time.Duration, log io.Writer) {
	dir := filepath.Join(artifactDir, fmt.Sprintf("run-%d", spec.Index))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(log, "artifacts: %v\n", err)
		return
	}
	topo, g, src, jit, fp := specInputs(spec, short)
	reg := metrics.New(topo.TotalPEs())
	rec := trace.New(topo.TotalPEs(), 1<<16)
	copts := acicOptions(spec, topo, jit, fp)
	copts.Params = core.DefaultParams()
	copts.Params.AuditTrace = true
	copts.Trace, copts.Metrics = rec, reg
	type outcome struct {
		res *core.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := core.Run(g, src, copts)
		done <- outcome{res, err}
	}()
	var auditRecs []core.ThresholdAudit
	select {
	case o := <-done:
		if o.err != nil {
			fmt.Fprintf(log, "artifacts: replay of run %d errored before producing artifacts: %v\n", spec.Index, o.err)
			return
		}
		auditRecs = o.res.Stats.AuditTrace
	case <-time.After(timeout):
		fmt.Fprintf(log, "artifacts: replay of run %d hung; skipping dump (recorder still live)\n", spec.Index)
		return
	}
	for _, a := range []struct {
		name  string
		write func(io.Writer) error
	}{
		{"trace-chrome.json", rec.WriteChrome},
		{"metrics.json", reg.Snapshot().WriteJSON},
		{"audit.jsonl", func(w io.Writer) error { return core.WriteAuditJSONL(w, auditRecs) }},
	} {
		f, err := os.Create(filepath.Join(dir, a.name))
		if err == nil {
			err = a.write(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(log, "artifacts: %s: %v\n", a.name, err)
			return
		}
	}
	fmt.Fprintf(log, "artifacts: run %d replayed, wrote %s/{trace-chrome.json,metrics.json,audit.jsonl}\n", spec.Index, dir)
}

// checkInvariants audits the conservation ledger of a completed run. No
// cell of the matrix installs a drop filter, so a dropped message is a
// failure everywhere.
func checkInvariants(a runtime.Audit, ts tram.Stats) error {
	if u := a.Unaccounted(); u != 0 {
		return fmt.Errorf("conservation: %d messages unaccounted (sent=%d boundaryIn=%d delivered=%d netq=%d netdrop=%d backlog=%d droppedAtExit=%d boundaryOut=%d)",
			u, a.Sent, a.BoundaryIn, a.Delivered, a.NetQueue, a.NetDropped, a.MailboxBacklog, a.DroppedAtExit, a.BoundaryOut)
	}
	if a.NetQueue != 0 {
		return fmt.Errorf("conservation: fabric not drained, NetQueue=%d after Close", a.NetQueue)
	}
	if a.NetDropped != 0 {
		return fmt.Errorf("conservation: fabric dropped %d messages without an injected filter", a.NetDropped)
	}
	if ts.PoolGets != ts.PoolPuts {
		return fmt.Errorf("tram pool leak: PoolGets=%d PoolPuts=%d", ts.PoolGets, ts.PoolPuts)
	}
	return nil
}
