// Package core implements ACIC — Asynchronous Continuous Introspection and
// Control — the paper's SSSP algorithm (§II, §III).
//
// A weighted directed graph is 1-D partitioned over the PEs of a simulated
// machine (internal/runtime + internal/netsim). Edge relaxations travel as
// updates u = (v, d). Concurrently with that work, an endless cycle of
// asynchronous reductions gathers a histogram of active update distances at
// PE 0, which derives two bucket thresholds and broadcasts them:
//
//   - t_tram gates the *sending* side: an update whose bucket exceeds it
//     waits in tram_hold instead of entering the tramlib send buffers.
//   - t_pq gates the *receiving* side: an accepted update whose bucket
//     exceeds it waits in pq_hold instead of the min-priority queue.
//
// Both holds drain in ascending bucket order when a broadcast raises the
// thresholds, tramlib buffers are explicitly flushed on every broadcast
// (guaranteeing tail progress), and idle PEs pop the priority queue in
// distance order, relaxing out-edges only for updates that still carry the
// vertex's best known distance. Termination is quiescence detected through
// the created/processed counters that ride along with every reduction:
// equal sums in two consecutive reductions end the run (§II-D).
//
// The cycle has no timer in it. The root broadcasts as soon as a reduction
// completes, and each PE joins the next reduction after it has done
// runtime.ReportAfterWork units of work since the broadcast (pq pops plus
// unpacked updates) or as soon as its queue is empty — the delay of the
// asynchronous iteration counted in computation rather than seconds
// (Blanco et al., arXiv:2110.01409). A working machine therefore spends a
// bounded share of its time on introspection, an idle one cycles at the
// latency of its own reduction tree as in the paper, and a run under
// simclock.Fake is paced exactly like a real one.
package core

import (
	"fmt"
	"math"
	"time"

	"acic/internal/histogram"
	"acic/internal/metrics"
	"acic/internal/netsim"
	"acic/internal/runtime"
	"acic/internal/simclock"
	"acic/internal/trace"
	"acic/internal/tram"
)

// Update is one edge relaxation in flight: "set vertex Vertex's distance to
// Dist if that improves it" (§II-A). Pred is the edge's origin, recorded on
// acceptance so the run yields a shortest-path tree as well as distances.
type Update struct {
	Vertex int32
	Pred   int32
	Dist   float64
}

// Params are ACIC's tunable parameters (§III). The cadence of the
// introspection cycle is not among them: it follows the work done (see the
// package comment), so no setting can make the cycle outrun the work.
type Params struct {
	// PTram is the percentile fraction p_tram used to derive the tram
	// threshold. The paper's optimum is 0.999 (§IV-E).
	PTram float64
	// PPQ is the percentile fraction p_pq for the pq threshold. The
	// paper's optimum is 0.05.
	PPQ float64
	// LowWatermarkPerPE: when active updates <= this × numPEs, both
	// thresholds are raised to the top bucket (the paper uses 100).
	LowWatermarkPerPE int64
	// BucketCount is the histogram size; the paper uses 512.
	BucketCount int
	// BucketWidth is the histogram bucket width; zero means the paper's
	// log(|V|).
	BucketWidth float64
	// TramMode is the aggregation organization; the paper uses WP.
	TramMode tram.Mode
	// TramCapacity is the tramlib buffer size (512, 1024 or 2048 in the
	// paper; any positive value accepted).
	TramCapacity int
	// TerminateOnAllFinal additionally enables the experimental
	// vertex-finalization termination condition the paper tried and
	// abandoned (§II-D): if every vertex's distance is below the smallest
	// active update distance, stop immediately. With unreachable vertices
	// this condition never triggers on its own, which is why it is an
	// extra condition layered on quiescence rather than a replacement.
	TerminateOnAllFinal bool
	// AuditTrace records one ThresholdAudit per completed reduction — the
	// merged histogram, the derived thresholds, the quiescence counters,
	// and the hold populations before/after the previous broadcast's drain
	// — exportable as JSONL/CSV (WriteAuditJSONL/WriteAuditCSV), and the
	// raw material of the Fig. 1 reproduction. Costs memory per reduction.
	AuditTrace bool
	// SmoothThresholds selects the §V threshold-function refinement: the
	// root derives thresholds from the whole histogram population via
	// histogram.ComputeSmoothThresholds instead of the paper's two-tier
	// rule (Algorithm 1).
	SmoothThresholds bool
	// OverDecomposition selects the §V over-decomposition extension: the
	// graph is split into OverDecomposition × numPEs contiguous chunks
	// dealt round-robin, spreading scale-free hubs across PEs. Values <= 1
	// keep the paper's plain 1-D block partition.
	OverDecomposition int
	// ComputeCost is the simulated per-unit compute time charged to a PE
	// for each update received and each edge relaxed. Zero disables the
	// compute model. Non-zero values make per-PE load real even on hosts
	// with fewer cores than PEs: the PE owning a scale-free hub serializes
	// through its backlog, reproducing the 1-D-partition imbalance the
	// paper blames for ACIC's RMAT losses (§IV-F).
	ComputeCost time.Duration
}

// DefaultParams returns the paper's tuned configuration: p_tram = 0.999,
// p_pq = 0.05, 512 buckets of width log|V|, WP aggregation with
// 1024-item buffers.
func DefaultParams() Params {
	return Params{
		PTram:             0.999,
		PPQ:               0.05,
		LowWatermarkPerPE: 100,
		BucketCount:       histogram.DefaultBuckets,
		TramMode:          tram.WP,
		TramCapacity:      tram.DefaultCapacity,
	}
}

func (p Params) withDefaults(numVertices int) (Params, error) {
	if p.PTram == 0 {
		p.PTram = 0.999
	}
	if p.PPQ == 0 {
		p.PPQ = 0.05
	}
	if p.PTram < 0 || p.PTram > 1 || p.PPQ < 0 || p.PPQ > 1 {
		return p, fmt.Errorf("core: percentiles must be in (0,1]: p_tram=%v p_pq=%v", p.PTram, p.PPQ)
	}
	if p.LowWatermarkPerPE <= 0 {
		p.LowWatermarkPerPE = 100
	}
	if p.BucketCount <= 0 {
		p.BucketCount = histogram.DefaultBuckets
	}
	if p.BucketWidth <= 0 {
		p.BucketWidth = histogram.PaperWidth(numVertices)
	}
	if p.TramCapacity <= 0 {
		p.TramCapacity = tram.DefaultCapacity
	}
	return p, nil
}

// Transport selects the fabric carrying inter-PE messages (see
// Options.Transport).
type Transport int

const (
	// TransportSim is the default simulated network (internal/netsim).
	TransportSim Transport = iota
	// TransportTCP carries inter-process traffic over loopback TCP
	// sockets through the wire codec (internal/sockfab).
	TransportTCP
)

// Options configure one ACIC run.
type Options struct {
	// Topo is the simulated machine; zero value means a single node with
	// 4 PEs.
	Topo netsim.Topology
	// Latency is the network model; zero value means no injected latency.
	Latency netsim.LatencyModel
	// Params are the algorithm parameters; zero value means DefaultParams.
	Params Params
	// Trace, when non-nil, records per-PE scheduling events for post-run
	// analysis (see internal/trace). It must cover Topo.TotalPEs() PEs.
	Trace *trace.Recorder
	// Metrics, when non-nil, receives every subsystem's instruments for
	// this run: "core." counters from the algorithm, "runtime." scheduler
	// telemetry, "tram." aggregation counters and "netsim." traffic
	// counters. It must cover Topo.TotalPEs() shards. Nil disables the
	// core/runtime telemetry; tram and netsim then fall back to private
	// registries so their Stats views keep working.
	Metrics *metrics.Registry
	// Clock times the run for Stats.Elapsed; nil means the wall clock.
	Clock simclock.Clock
	// Jitter, when non-nil, perturbs every message's delivery delay (see
	// netsim.JitterFunc) — the schedule-stress harness's hook.
	Jitter netsim.JitterFunc
	// Fault installs drop/reordering filters on the fabric (see
	// netsim.FaultPlan). A run with a drop filter hangs loudly at the lost
	// update; reordering alone leaves the answer exact.
	Fault netsim.FaultPlan
	// Transport selects how inter-PE messages travel: TransportSim (the
	// default) routes everything through the simulated network, while
	// TransportTCP builds one sockfab node per topology process,
	// loopback-connected, and serializes every inter-process message
	// through the wire codec over a real TCP socket. TCP runs reject the
	// simulation-only knobs — Latency, Jitter and Fault — because real
	// sockets impose their own timing and already provide ordered,
	// reliable delivery.
	Transport Transport
	// Scratch, when non-nil, recycles per-run allocations across repeated
	// Runs of the same shape (see Scratch). Benchmark, stress and query
	// drivers set this; one-shot callers leave it nil. Must not be shared
	// by concurrent Runs — Run enforces this with an atomic latch and
	// returns ErrScratchInUse on overlap.
	Scratch *Scratch
}

// Stats aggregates the measurements the paper reports.
type Stats struct {
	// Elapsed is the wall time from seeding the source to termination.
	Elapsed time.Duration
	// UpdatesCreated / UpdatesProcessed are the global counter sums at the
	// terminating reduction; equality is the quiescence condition.
	UpdatesCreated   int64
	UpdatesProcessed int64
	// UpdatesSuppressed counts relaxation candidates the sender dropped
	// before creating them, because an update it had already handed on (or
	// the distance of a vertex it owns) was at least as good. Every
	// relaxation is either created or suppressed:
	// Relaxations + 1 (the virtual seed) == UpdatesCreated + UpdatesSuppressed.
	UpdatesSuppressed int64
	// UpdatesRejected counts arrivals that did not improve a distance.
	UpdatesRejected int64
	// Relaxations counts onward-update generations (edges traversed by an
	// accepted, still-current update) — the "updates" series of Fig. 9.
	Relaxations int64
	// Reductions is the number of completed reduction-broadcast cycles.
	Reductions int64
	// TramStats are tramlib's counters.
	TramStats tram.Stats
	// Network are the simulated fabric's counters.
	Network netsim.Stats
	// Audit is the runtime's post-run conservation ledger; the stress
	// harness requires Audit.Unaccounted() == 0 and Audit.NetQueue == 0.
	Audit runtime.Audit
	// FinalizedEarly is true if the optional vertex-finalization condition
	// fired before quiescence.
	FinalizedEarly bool
	// AuditTrace holds one record per completed reduction when
	// Params.AuditTrace is set (see ThresholdAudit).
	AuditTrace []ThresholdAudit
}

// Result is the output of an ACIC run.
type Result struct {
	// Dist[v] is the computed shortest distance from the source, indexed
	// by global vertex id; +Inf marks unreachable vertices.
	Dist []float64
	// Parent[v] is v's predecessor on a shortest path from the source;
	// -1 for the source itself and for unreachable vertices. Together the
	// parents form a shortest-path tree (see PathTo).
	Parent []int32
	Stats  Stats
}

// PathTo reconstructs the shortest path from the run's source to v as a
// vertex sequence ending in v, using the Parent tree. It returns nil if v
// is unreachable. A cycle in the parent array (impossible for a completed
// run, checked defensively) also returns nil.
func (r *Result) PathTo(v int) []int32 {
	if v < 0 || v >= len(r.Parent) {
		return nil
	}
	if math.IsInf(r.Dist[v], 1) || math.IsNaN(r.Dist[v]) { // unreachable
		return nil
	}
	var rev []int32
	cur := int32(v)
	for steps := 0; cur >= 0; steps++ {
		if steps > len(r.Parent) {
			return nil // defensive cycle guard
		}
		rev = append(rev, cur)
		cur = r.Parent[cur]
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}
