// Package runtime is a message-driven parallel runtime in the style of
// Charm++, the substrate the paper's implementation runs on (§I, §II).
//
// The runtime provides exactly the services ACIC consumes:
//
//   - An array of processing elements (PEs), each a goroutine with an
//     unbounded mailbox, executing message handlers run-to-completion.
//     A PE has one queue, as in Charm++: every sender — another PE, Inject,
//     the fabric's dispatcher — appends to it under its mutex, which is
//     also what orders each (src, dst) pair.
//   - Message sends routed through a simulated cluster network
//     (internal/netsim), so inter-process and inter-node messages cost more
//     than intra-process ones, as on the paper's Delta and Frontier runs.
//   - Idle triggers: when a PE's mailbox is empty the runtime repeatedly
//     invokes the handler's Idle method, which is how ACIC drains its
//     min-priority queue "when a PE becomes idle" (§II-C).
//   - Asynchronous tree reductions and broadcasts that execute concurrently
//     with application work, the paper's continuous introspection loop.
//     Reductions combine per-PE contributions up a binary tree to PE 0;
//     broadcasts flow down the same tree. Both travel as ordinary messages
//     through the simulated network so their overhead is measurable
//     (Fig. 3).
//   - Runtime-level quiescence detection (after Sinha, Kale and Ramkumar)
//     for applications that do not roll their own, such as the
//     distributed-control baseline. ACIC itself detects quiescence through
//     its reduction counters because tram batches are application messages
//     the runtime cannot interpret — mirroring the paper's §II-D argument.
package runtime

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"acic/internal/fabric"
	"acic/internal/metrics"
	"acic/internal/netsim"
	"acic/internal/relnet"
	"acic/internal/trace"
)

// Handler is the application logic hosted on one PE. All methods are called
// from that PE's goroutine only, so handler state needs no locking.
type Handler interface {
	// Deliver processes one application message to completion.
	Deliver(pe *PE, msg any)
	// Idle is invoked when the mailbox is empty. It should perform one unit
	// of background work (e.g. pop one pq entry) and return true, or return
	// false if there is nothing to do, letting the PE block until the next
	// message.
	Idle(pe *PE) bool
	// OnBroadcast delivers a broadcast payload originated at PE 0.
	OnBroadcast(pe *PE, epoch int64, payload any)
	// OnReduction delivers a completed reduction's combined value. It is
	// invoked on PE 0 only.
	OnReduction(pe *PE, epoch int64, value any)
}

// NopControl provides no-op OnBroadcast/OnReduction methods for handlers
// that do not use the introspection machinery.
type NopControl struct{}

// OnBroadcast implements Handler.
func (NopControl) OnBroadcast(*PE, int64, any) {}

// OnReduction implements Handler.
func (NopControl) OnReduction(*PE, int64, any) {}

// Quiescence is delivered to PE 0's Deliver when the runtime-level detector
// (Config.QuiescencePoll > 0) observes a quiescent state.
type Quiescence struct{}

// Span is the half-open PE range [Lo, Hi) a Runtime instance hosts. The
// zero value means "all PEs" — the single-process case. A distributed
// launch gives each worker process the span of its topology process;
// messages to PEs outside the span leave through the custom fabric.
type Span struct{ Lo, Hi int }

// Config parameterizes a Runtime.
type Config struct {
	// Topo is the machine shape. Required.
	Topo netsim.Topology
	// Latency is the network latency model.
	Latency netsim.LatencyModel
	// NewFabric, when non-nil, replaces the built-in simulated network:
	// the runtime calls it once with its deliver callback and sends every
	// non-bypass message through the returned fabric (e.g. a sockfab TCP
	// node or mesh). deliver must be invoked serially per destination, on
	// one dispatcher goroutine per process — the same contract netsim's
	// dispatcher honors. With a custom fabric the zero-latency mailbox
	// bypass applies only to intra-process pairs inside Span, and the
	// knobs that parameterize the simulation (Latency, Jitter, Fault,
	// Reliability) are rejected: they have nothing to act on.
	NewFabric func(deliver func(dst int, payload any)) (fabric.Fabric, error)
	// Span restricts which PEs this instance hosts; requires NewFabric
	// (the simulated network delivers every PE in-process). Zero = all.
	Span Span
	// Combine merges two reduction contributions. Required if any handler
	// calls Contribute.
	Combine func(a, b any) any
	// QuiescencePoll enables the runtime-level quiescence detector with the
	// given poll interval; zero disables it. On detection a Quiescence
	// message is delivered to PE 0.
	QuiescencePoll time.Duration
	// Reliability, when non-nil, inserts the reliable-delivery layer
	// (internal/relnet) between the runtime's send path and the fabric:
	// every envelope is sequence-stamped, retained until acknowledged, and
	// retransmitted on timeout, while the receive side deduplicates — so
	// the sent/delivered conservation atomics keep their exactly-once
	// meaning even under injected drop, duplication and reordering faults.
	// Installing reliability disables the zero-latency mailbox bypass so
	// that every envelope crosses the fabric and gets a sequence number.
	// The layer's Metrics/Trace default to this Config's when left nil.
	Reliability *relnet.Config
	// Fault installs the plan's filters on the fabric at construction and,
	// like Jitter, disables the zero-latency mailbox bypass so every
	// message is exposed to them. Runs that install filters directly via
	// Network() keep the bypass and only cover non-zero-latency traffic.
	Fault netsim.FaultPlan
	// Jitter, when non-nil, perturbs the modeled delay of every message
	// (see netsim.JitterFunc). Installing jitter disables the zero-latency
	// mailbox bypass so that every send crosses the simulated fabric and
	// is subject to the perturbation — the schedule-stress harness uses
	// this to explore adversarial delivery orders.
	Jitter netsim.JitterFunc
	// Trace, when non-nil, records per-PE scheduling events (deliveries,
	// idle work, blocking, reductions, broadcasts, compute sleeps). It
	// must have been created for at least Topo.TotalPEs() PEs.
	Trace *trace.Recorder
	// Metrics, when non-nil, receives the runtime's scheduler telemetry
	// ("runtime." counters) and the network fabric's traffic counters
	// ("netsim." prefix). It must have been created for at least
	// Topo.TotalPEs() shards. Nil disables both at the cost of one branch
	// per event; the sent/delivered conservation atomics that feed
	// quiescence detection are independent of this registry either way.
	Metrics *metrics.Registry
}

// controlMsgSize is the size, in items, attributed to reduction and
// broadcast messages for latency purposes: a histogram snapshot is small
// next to a tram batch but not free.
const controlMsgSize = 16

// Runtime hosts the PEs and the message fabric.
type Runtime struct {
	cfg Config
	fab fabric.Fabric
	net *netsim.Network // the built-in fabric; nil under Config.NewFabric
	rel *relnet.Layer   // nil unless Config.Reliability is set
	pes []*PE           // indexed by global PE id; nil outside [lo, hi)
	lo  int             // hosted span [lo, hi)
	hi  int

	// zeroBase is a per-(src,dst) bitmap of pairs whose tier has zero base
	// latency (Delay(tier, 0) == 0), precomputed so the fast-path check in
	// send is a single bit load instead of a tier classification plus a
	// latency-model evaluation per message. noPerItem caches whether the
	// model charges per-item serialization; when it does, only size-0
	// messages on a zero-base tier are truly free.
	zeroBase  []uint64
	noPerItem bool

	sent      atomic.Int64 // messages sent (all kinds)
	delivered atomic.Int64 // messages fully processed (all kinds)
	idlePEs   atomic.Int64 // PEs currently blocked on an empty mailbox

	// Scheduler telemetry, nil (free no-ops) without Config.Metrics. These
	// shadow the trace recorder's event kinds as cheap always-on counters;
	// the sent/delivered atomics above are NOT mirrored here because they
	// are correctness-critical inputs to quiescence detection.
	mDelivered  *metrics.Counter // app messages dispatched, per PE
	mReductions *metrics.Counter // reduction partials/completions handled
	mBroadcasts *metrics.Counter // broadcasts handled
	mIdleWork   *metrics.Counter // productive idle-trigger invocations
	mBlocks     *metrics.Counter // times a PE blocked on an empty mailbox
	mSleptNs    *metrics.Counter // simulated compute debt paid, in ns

	stopFlag atomic.Bool
	stopOnce sync.Once
	done     chan struct{} // closed when all PE goroutines have exited
	wg       sync.WaitGroup
	qdStop   chan struct{}
}

// PE is one processing element. Handlers receive their PE and may call its
// methods from the PE goroutine.
type PE struct {
	rt      *Runtime
	index   int
	mbox    *mailbox
	handler Handler

	// Precomputed binary-tree fan-out for reductions and broadcasts:
	// child PE ids (or -1) and how many contributions absorb expects.
	childL, childR int
	numChildren    int

	reductions map[int64]*redState

	deliveredApp int64 // app messages processed; Fig. 3's "work methods"

	// workDebt accumulates simulated compute time charged via Work. The
	// scheduler pays it down with real sleeps, so an overloaded PE's
	// mailbox backs up exactly as it would on a machine with one core per
	// PE — even when the host has fewer cores than the simulation has PEs.
	workDebt time.Duration
}

// workSleepThreshold batches Work debt into sleeps long enough for the OS
// timer to honor; finer-grained debts accumulate until they matter.
const workSleepThreshold = 200 * time.Microsecond

type redState struct {
	got   int
	value any
	has   bool
}

// Message envelope kinds.
type envKind uint8

const (
	kindApp envKind = iota
	kindReducePartial
	kindReduceDone
	kindBroadcast
	kindQuiesce
)

// envelope is the unit every mailbox moves: 32 bytes, copied on every
// push and pop.
type envelope struct {
	epoch   int64
	payload any
	kind    envKind
}

// hosted resolves Span's "zero means all PEs" default.
func (cfg *Config) hosted() (lo, hi int) {
	if cfg.Span == (Span{}) {
		return 0, cfg.Topo.TotalPEs()
	}
	return cfg.Span.Lo, cfg.Span.Hi
}

// Validate reports the configuration errors that can be found without
// building anything. New calls it first; internal/machine calls it before
// a worker binds its listener.
func (cfg *Config) Validate() error {
	numPEs := cfg.Topo.TotalPEs()
	lo, hi := cfg.hosted()
	partial := lo != 0 || hi != numPEs
	switch {
	case lo < 0 || hi > numPEs || lo >= hi:
		return fmt.Errorf("runtime: span [%d, %d) outside topology's %d PEs", lo, hi, numPEs)
	case partial && cfg.NewFabric == nil:
		return fmt.Errorf("runtime: span [%d, %d) requires a custom fabric; the simulated network hosts every PE in-process", lo, hi)
	case partial && cfg.QuiescencePoll > 0:
		// The poll-based detector compares process-local counters; with a
		// partial span those say nothing about remote PEs, so it could
		// declare quiescence while work is in flight elsewhere.
		return fmt.Errorf("runtime: QuiescencePoll requires hosting all PEs; span [%d, %d) of %d is partial", lo, hi, numPEs)
	}
	if cfg.NewFabric == nil {
		return nil
	}
	// A real fabric imposes its own timing and (TCP) already delivers in
	// order exactly once, so the simulation-only knobs have no meaning on
	// it; rejecting them beats silently ignoring them.
	var knob string
	switch {
	case cfg.Latency != (netsim.LatencyModel{}):
		knob = "Latency"
	case cfg.Jitter != nil:
		knob = "Jitter"
	case !cfg.Fault.Empty():
		knob = "Fault"
	case cfg.Reliability != nil:
		knob = "Reliability"
	default:
		return nil
	}
	return fmt.Errorf("runtime: %s parameterizes the simulated network and must be left zero on a custom fabric (TransportTCP, launched workers)", knob)
}

// New creates a Runtime and starts its fabric (the simulated network, or
// whatever Config.NewFabric builds). Call Start to launch PEs.
func New(cfg Config) (*Runtime, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rt := &Runtime{cfg: cfg, done: make(chan struct{}), qdStop: make(chan struct{})}
	numPEs := cfg.Topo.TotalPEs()
	rt.lo, rt.hi = cfg.hosted()
	rt.pes = make([]*PE, numPEs)
	for i := rt.lo; i < rt.hi; i++ {
		pe := &PE{rt: rt, index: i, mbox: newMailbox(), reductions: make(map[int64]*redState)}
		c1, c2, nc := treeChildren(i, numPEs)
		pe.childL, pe.childR, pe.numChildren = -1, -1, nc
		if c1 < numPEs {
			pe.childL = c1
		}
		if c2 < numPEs {
			pe.childR = c2
		}
		rt.pes[i] = pe
	}
	rt.noPerItem = cfg.Latency.PerItem == 0
	rt.zeroBase = make([]uint64, (numPEs*numPEs+63)/64)
	if cfg.Jitter == nil && cfg.Reliability == nil && cfg.Fault.Empty() {
		// With jitter installed no pair is reliably zero-delay, with
		// reliability installed every envelope needs a sequence number, and
		// with a fault plan every message must face the filters — in each
		// case the bitmap stays empty and every message crosses the fabric.
		// Under a custom fabric only hosted intra-process pairs may bypass:
		// everything else must reach the fabric to be routed (and, across
		// the process boundary, serialized and counted).
		for src := rt.lo; src < rt.hi; src++ {
			for dst := rt.lo; dst < rt.hi; dst++ {
				if cfg.NewFabric != nil && cfg.Topo.ProcessOf(src) != cfg.Topo.ProcessOf(dst) {
					continue
				}
				if cfg.Latency.Delay(cfg.Topo.TierOf(src, dst), 0) == 0 {
					idx := src*numPEs + dst
					rt.zeroBase[idx>>6] |= 1 << (idx & 63)
				}
			}
		}
	}
	rt.mDelivered = cfg.Metrics.Counter("runtime.app_delivered")
	rt.mReductions = cfg.Metrics.Counter("runtime.reductions")
	rt.mBroadcasts = cfg.Metrics.Counter("runtime.broadcasts")
	rt.mIdleWork = cfg.Metrics.Counter("runtime.idle_work")
	rt.mBlocks = cfg.Metrics.Counter("runtime.blocks")
	rt.mSleptNs = cfg.Metrics.Counter("runtime.work_slept_ns")
	if cfg.Reliability != nil {
		relCfg := *cfg.Reliability
		if relCfg.Metrics == nil {
			relCfg.Metrics = cfg.Metrics
		}
		if relCfg.Trace == nil {
			relCfg.Trace = cfg.Trace
		}
		rt.rel = relnet.New(relCfg, numPEs, func(dst int, payload any) {
			rt.deliverLocal(dst, payload)
		})
	}
	deliver := func(dst int, payload any) {
		if rt.rel != nil {
			// The layer deduplicates and strips its framing, then hands
			// application envelopes to deliverLocal.
			rt.rel.OnFabric(dst, payload)
			return
		}
		rt.deliverLocal(dst, payload)
	}
	if cfg.NewFabric != nil {
		fab, err := cfg.NewFabric(deliver)
		if err != nil {
			return nil, err
		}
		rt.fab = fab
	} else {
		net, err := netsim.NewNetworkWithRegistry(cfg.Topo, cfg.Latency, deliver, cfg.Metrics)
		if err != nil {
			return nil, err
		}
		if cfg.Jitter != nil {
			net.SetJitter(cfg.Jitter)
		}
		net.ApplyFaults(cfg.Fault)
		rt.net = net
		rt.fab = net
		if rt.rel != nil {
			// Validate rejects Reliability on a custom fabric, so the layer
			// only ever rides the simulated network and its timer facility.
			rt.rel.Bind(net)
		}
	}
	return rt, nil
}

// deliverLocal pushes a fabric-delivered envelope into its destination
// mailbox. A delivery outside the hosted span is a routing bug in the
// fabric — made loud rather than dropped, because a silently lost
// envelope shows up much later as a quiescence hang.
func (rt *Runtime) deliverLocal(dst int, payload any) {
	pe := rt.pes[dst]
	if pe == nil {
		panic(fmt.Sprintf("runtime: fabric delivered to PE %d outside hosted span [%d, %d)", dst, rt.lo, rt.hi))
	}
	pe.mbox.push(payload.(envelope))
}

// Start instantiates one handler per hosted PE via factory and launches
// the PE goroutines. It must be called exactly once.
func (rt *Runtime) Start(factory func(pe *PE) Handler) {
	for _, pe := range rt.pes[rt.lo:rt.hi] {
		pe.handler = factory(pe)
	}
	for _, pe := range rt.pes[rt.lo:rt.hi] {
		rt.wg.Add(1)
		//acic:allow-goroutine PE workers are the runtime's own threads of execution
		go pe.run()
	}
	if rt.cfg.QuiescencePoll > 0 {
		//acic:allow-goroutine the quiescence monitor is part of the runtime's lifecycle
		go rt.quiescenceMonitor()
	}
	//acic:allow-goroutine done-channel closer joins the PE workers
	go func() {
		rt.wg.Wait()
		close(rt.done)
	}()
}

// Wait blocks until every PE goroutine has exited (after RequestExit or a
// PE's Exit call).
func (rt *Runtime) Wait() {
	<-rt.done
	rt.fab.Close()
}

// RequestExit asks all PEs to stop once they finish their current handler.
// Safe to call from any goroutine, multiple times.
func (rt *Runtime) RequestExit() {
	rt.stopOnce.Do(func() {
		rt.stopFlag.Store(true)
		close(rt.qdStop)
		for _, pe := range rt.pes[rt.lo:rt.hi] {
			pe.mbox.close()
		}
	})
}

// NumPEs returns the machine-wide PE count (hosted or not).
func (rt *Runtime) NumPEs() int { return len(rt.pes) }

// HostedSpan returns the PE range this instance hosts, [Lo, Hi).
func (rt *Runtime) HostedSpan() Span { return Span{Lo: rt.lo, Hi: rt.hi} }

// Topology returns the machine shape.
func (rt *Runtime) Topology() netsim.Topology { return rt.cfg.Topo }

// NetworkStats returns the simulated network's counters, or zeros under a
// custom fabric (a real transport has no simulation counters).
func (rt *Runtime) NetworkStats() netsim.Stats {
	if rt.net == nil {
		return netsim.Stats{}
	}
	return rt.net.Stats()
}

// Network exposes the underlying simulated fabric, primarily so
// fault-injection tests can install a netsim.DropFilter. Nil when the
// runtime was built over a custom fabric (Config.NewFabric). Note that
// zero-delay messages bypass the network (they go straight to the
// destination mailbox), so a filter only sees messages with non-zero
// modeled latency.
func (rt *Runtime) Network() *netsim.Network { return rt.net }

// MessagesSent returns the total number of messages sent so far.
func (rt *Runtime) MessagesSent() int64 { return rt.sent.Load() }

// MessagesDelivered returns the total number of envelopes dispatched so far.
func (rt *Runtime) MessagesDelivered() int64 { return rt.delivered.Load() }

// Audit is a snapshot of the runtime's message-conservation ledger. Every
// frame put onto the fabric — an original envelope send (Sent), a relnet
// retransmission (Retransmits), a fabric-injected duplicate
// (NetDuplicated) or a standalone ack (AcksSent) — is exactly one of:
// dispatched to a handler (Delivered), still inside the simulated fabric
// (NetQueue), discarded by an injected fault filter (NetDropped), parked in
// a PE mailbox (MailboxBacklog), pushed at a mailbox that had already
// closed during shutdown (DroppedAtExit), swallowed by the relnet dedup
// window (DupDiscarded), or consumed as an ack by the layer (AcksConsumed).
// The identity Unaccounted() == 0 is exact once Wait has returned (fabric
// timer frames, which are uncounted, have all fired by then); mid-run
// snapshots are only approximate because the counters are read at
// different instants and pending timers sit in NetQueue.
//
// Without Config.Reliability the relnet columns are zero and the identity
// reduces to the pre-relnet one (with NetDuplicated covering fabric-level
// duplication, which is then delivered twice).
type Audit struct {
	Sent           int64
	Delivered      int64
	NetQueue       int64
	NetDropped     int64
	MailboxBacklog int64
	DroppedAtExit  int64

	// Reliable-delivery columns (zero without Config.Reliability).
	Retransmits  int64 // data frames re-sent by the timeout machinery
	DupDiscarded int64 // frames swallowed by the receiver dedup window
	AcksSent     int64 // standalone ack frames handed to the fabric
	AcksConsumed int64 // standalone ack frames consumed by the layer
	// Stranded is relnet's diagnostic for frames whose retransmit
	// protection lapsed against a closing fabric. It is NOT part of the
	// conservation identity (the frame's first transmission is already
	// accounted there); nonzero after a clean run means the close raced
	// the reliability layer.
	Stranded int64

	// NetDuplicated counts fabric-injected duplicate copies (netsim
	// DupFilter ghosts), with or without the reliability layer.
	NetDuplicated int64

	// Process-boundary columns (zero on a single-process fabric). A frame
	// written to the transport boundary leaves this process's ledger
	// through BoundaryOut; a frame decoded off the boundary enters it
	// through BoundaryIn. Within one process the identity holds with both
	// columns in place; across a whole launch, sum(BoundaryOut) ==
	// sum(BoundaryIn) once every process has drained — the launcher checks
	// exactly that.
	BoundaryOut int64
	BoundaryIn  int64
}

// Unaccounted returns the number of fabric frames the ledger cannot place —
// nonzero means a message was silently lost or double-counted somewhere.
func (a Audit) Unaccounted() int64 {
	return a.Sent + a.Retransmits + a.NetDuplicated + a.AcksSent + a.BoundaryIn -
		a.Delivered - a.NetQueue - a.NetDropped - a.MailboxBacklog - a.DroppedAtExit -
		a.DupDiscarded - a.AcksConsumed - a.BoundaryOut
}

// Audit snapshots the conservation ledger. Call after Wait for an exact
// accounting; the schedule-stress harness checks Unaccounted() == 0 and
// NetQueue == 0 after every run.
func (rt *Runtime) Audit() Audit {
	ns := rt.NetworkStats()
	a := Audit{
		Sent:          rt.sent.Load(),
		Delivered:     rt.delivered.Load(),
		NetQueue:      int64(rt.fab.QueueLen()),
		NetDropped:    ns.Dropped,
		NetDuplicated: ns.Duplicated,
	}
	if rt.rel != nil {
		rs := rt.rel.Stats()
		a.Retransmits = rs.Retransmits
		a.DupDiscarded = rs.DupDiscarded
		a.AcksSent = rs.AcksSent
		a.AcksConsumed = rs.AcksConsumed
		a.Stranded = rs.Stranded
	}
	if b, ok := rt.fab.(fabric.Boundary); ok {
		a.BoundaryOut, a.BoundaryIn = b.BoundaryCounts()
	}
	for _, pe := range rt.pes[rt.lo:rt.hi] {
		a.MailboxBacklog += int64(pe.mbox.len())
		a.DroppedAtExit += pe.mbox.dropped.Load()
	}
	return a
}

// Inject delivers msg to dst's handler from outside the PE array — the way
// a driver seeds the initial work (e.g. the source vertex's first
// relaxation) or a timer re-enters the message-driven world. Safe from any
// goroutine; delivery is immediate (no simulated latency).
func (rt *Runtime) Inject(dst int, msg any) {
	rt.send(dst, dst, envelope{kind: kindApp, payload: msg}, 0)
}

// send routes an envelope through the simulated network, or directly into
// the destination mailbox when the modeled delay is zero (keeping the
// single dispatcher goroutine off the critical path of shared-memory runs).
// The zero-delay decision is one bitmap load: the bit covers the tier's
// base latency, and noPerItem/size==0 covers the serialization term, so
// the outcome is identical to evaluating Delay(tier, size) == 0.
//
// Safe from any goroutine: PE handlers, Inject, timers.
//
//acic:noalloc
func (rt *Runtime) send(src, dst int, env envelope, size int) {
	rt.sent.Add(1)
	idx := src*len(rt.pes) + dst
	if rt.zeroBase[idx>>6]&(1<<(idx&63)) != 0 && (rt.noPerItem || size == 0) {
		rt.pes[dst].mbox.push(env)
		return
	}
	if rt.rel != nil {
		rt.rel.Send(src, dst, env, size) //acic:allow-alloc fabric path queues the envelope; the mailbox bypass above stays alloc-free
		return
	}
	rt.fab.Send(src, dst, env, size) //acic:allow-alloc fabric path queues the envelope; the mailbox bypass above stays alloc-free
}

// selfPush counts a mailbox self-push in sent before enqueueing it. Every
// envelope that reaches dispatch bumps delivered, so any path that feeds a
// mailbox without passing through send — the root's own broadcast copy, the
// root's completed-reduction delivery, the quiescence notification — must
// bump sent symmetrically. Otherwise delivered permanently outruns sent and
// the conservation check sent == delivered can never hold again; worse, a
// stale surplus of delivered can mask exactly that many in-flight messages,
// turning the detector's equality into a false-quiescence window.
func (pe *PE) selfPush(env envelope) {
	pe.rt.sent.Add(1)
	pe.mbox.push(env)
}

// --- PE API (handler-side) ---

// Index returns this PE's id in [0, NumPEs).
func (pe *PE) Index() int { return pe.index }

// NumPEs returns the machine's PE count.
func (pe *PE) NumPEs() int { return len(pe.rt.pes) }

// Runtime returns the hosting runtime.
func (pe *PE) Runtime() *Runtime { return pe.rt }

// Topology returns the simulated machine shape.
func (pe *PE) Topology() netsim.Topology { return pe.rt.cfg.Topo }

// Send delivers msg to dst's handler after the simulated network delay for
// a message of the given size (in items).
func (pe *PE) Send(dst int, msg any, size int) {
	pe.rt.send(pe.index, dst, envelope{kind: kindApp, payload: msg}, size)
}

// Delivered returns the number of application messages this PE has
// processed — the "work methods executed" metric of Fig. 3.
func (pe *PE) Delivered() int64 { return pe.deliveredApp }

// Work charges d of simulated compute time to this PE. The runtime pays
// accumulated debt down with real sleeps between messages, serializing the
// PE's throughput: a PE owning a scale-free hub really does fall behind,
// reproducing the load-imbalance effects of §IV-F on hosts with fewer
// cores than simulated PEs. Zero-cost configurations never sleep.
func (pe *PE) Work(d time.Duration) { pe.workDebt += d }

// Exit requests a runtime-wide stop. Typically called by PE 0 when the
// algorithm's own termination condition fires.
func (pe *PE) Exit() { pe.rt.RequestExit() }

// Contribute submits this PE's contribution to reduction epoch. Every PE
// must contribute exactly once per epoch; contributions combine up a binary
// tree and the final value arrives at PE 0's OnReduction. Contributions to
// different epochs may be in flight concurrently.
func (pe *PE) Contribute(epoch int64, value any) {
	if pe.rt.cfg.Combine == nil {
		panic("runtime: Contribute requires Config.Combine")
	}
	pe.absorb(epoch, value)
}

// Broadcast sends payload down the tree from PE 0; every PE (including the
// root) receives OnBroadcast. It panics if called on another PE, matching
// the paper's root-driven broadcast cycle. The root's own delivery goes
// through its mailbox rather than recursing, so a broadcast issued from
// OnReduction cannot grow the stack and interleaves fairly with queued
// application messages.
func (pe *PE) Broadcast(epoch int64, payload any) {
	if pe.index != 0 {
		panic(fmt.Sprintf("runtime: Broadcast called on PE %d, only the root may broadcast", pe.index))
	}
	pe.selfPush(envelope{kind: kindBroadcast, epoch: epoch, payload: payload})
}

// --- internal machinery ---

func treeParent(i int) int { return (i - 1) / 2 }

func treeChildren(i, n int) (int, int, int) {
	c1, c2 := 2*i+1, 2*i+2
	count := 0
	if c1 < n {
		count++
	}
	if c2 < n {
		count++
	}
	return c1, c2, count
}

// absorb merges a contribution (local or from a child subtree) into the
// epoch's reduction state, forwarding the partial up the tree when complete.
func (pe *PE) absorb(epoch int64, value any) {
	expected := 1 + pe.numChildren
	st := pe.reductions[epoch]
	if st == nil {
		st = &redState{}
		pe.reductions[epoch] = st
	}
	if st.has {
		st.value = pe.rt.cfg.Combine(st.value, value)
	} else {
		st.value = value
		st.has = true
	}
	st.got++
	if st.got < expected {
		return
	}
	delete(pe.reductions, epoch)
	if pe.index == 0 {
		// Deliver through the mailbox: the final contribution may have been
		// made synchronously from a handler (OnBroadcast of the previous
		// cycle), and a direct call would recurse cycle after cycle.
		pe.selfPush(envelope{kind: kindReduceDone, epoch: epoch, payload: st.value})
		return
	}
	pe.rt.send(pe.index, treeParent(pe.index),
		envelope{kind: kindReducePartial, epoch: epoch, payload: st.value},
		controlMsgSize)
}

func (pe *PE) handleBroadcast(env envelope) {
	if pe.rt.cfg.NewFabric != nil {
		// Over a real transport the relay tree is a shutdown hazard: a
		// terminate broadcast makes the first PE to process it stop every
		// sibling in its process (RequestExit), including siblings that
		// still hold their own copy undispatched — and with it the relay
		// duty to their (possibly remote) subtree, which would then never
		// terminate. The root fans out directly instead: every send is on
		// the fabric before the root's own handler can initiate shutdown,
		// so no delivery depends on an intermediate PE staying alive.
		if pe.index == 0 {
			for i := 1; i < len(pe.rt.pes); i++ {
				pe.rt.send(pe.index, i, env, controlMsgSize)
			}
		}
	} else {
		if pe.childL >= 0 {
			pe.rt.send(pe.index, pe.childL, env, controlMsgSize)
		}
		if pe.childR >= 0 {
			pe.rt.send(pe.index, pe.childR, env, controlMsgSize)
		}
	}
	pe.handler.OnBroadcast(pe, env.epoch, env.payload)
}

func (pe *PE) dispatch(env envelope) {
	tr := pe.rt.cfg.Trace
	switch env.kind {
	case kindApp:
		pe.handler.Deliver(pe, env.payload)
		pe.deliveredApp++
		pe.rt.mDelivered.Inc(pe.index)
		if tr != nil {
			tr.Record(pe.index, trace.KindDeliver, 0)
		}
	case kindReducePartial:
		pe.absorb(env.epoch, env.payload)
		pe.rt.mReductions.Inc(pe.index)
		if tr != nil {
			tr.Record(pe.index, trace.KindReduction, env.epoch)
		}
	case kindReduceDone:
		pe.handler.OnReduction(pe, env.epoch, env.payload)
		pe.rt.mReductions.Inc(pe.index)
		if tr != nil {
			tr.Record(pe.index, trace.KindReduction, env.epoch)
		}
	case kindBroadcast:
		pe.handleBroadcast(env)
		pe.rt.mBroadcasts.Inc(pe.index)
		if tr != nil {
			tr.Record(pe.index, trace.KindBroadcast, env.epoch)
		}
	case kindQuiesce:
		pe.handler.Deliver(pe, Quiescence{})
	}
	pe.rt.delivered.Add(1)
}

func (pe *PE) run() {
	defer pe.rt.wg.Done()
	for {
		if pe.rt.stopFlag.Load() {
			return
		}
		tr := pe.rt.cfg.Trace
		if pe.workDebt >= workSleepThreshold {
			d := pe.workDebt
			pe.workDebt = 0
			//acic:allow-wallclock paying off accumulated work debt is how simulated compute cost occupies real time
			time.Sleep(d)
			pe.rt.mSleptNs.Add(pe.index, int64(d))
			if tr != nil {
				tr.Record(pe.index, trace.KindWorkSleep, int64(d))
			}
			continue
		}
		if msg, ok := pe.mbox.tryPop(); ok {
			pe.dispatch(msg)
			continue
		}
		if pe.handler.Idle(pe) {
			pe.rt.mIdleWork.Inc(pe.index)
			if tr != nil {
				tr.Record(pe.index, trace.KindIdleWork, 0)
			}
			continue
		}
		// Truly idle: block until the next message or shutdown.
		pe.rt.mBlocks.Inc(pe.index)
		if tr != nil {
			tr.Record(pe.index, trace.KindBlock, 0)
		}
		pe.rt.idlePEs.Add(1)
		msg, ok := pe.mbox.pop()
		pe.rt.idlePEs.Add(-1)
		if tr != nil {
			tr.Record(pe.index, trace.KindWake, 0)
		}
		if !ok {
			return
		}
		pe.dispatch(msg)
	}
}

// quiescenceMonitor implements the runtime-level detector: the system is
// quiescent when all PEs are blocked idle, the send and delivery counters
// match, nothing is in flight in the network, and — to close the race the
// paper also closes by requiring two consecutive agreeing reductions
// (§II-D) — the same snapshot is observed twice in a row.
func (rt *Runtime) quiescenceMonitor() {
	type snap struct{ sent, delivered, idle int64 }
	var prev snap
	havePrev := false
	ticker := time.NewTicker(rt.cfg.QuiescencePoll)
	defer ticker.Stop()
	for {
		select {
		case <-rt.qdStop:
			return
		case <-ticker.C:
		}
		cur := snap{rt.sent.Load(), rt.delivered.Load(), rt.idlePEs.Load()}
		quiet := cur.sent == cur.delivered &&
			cur.idle == int64(rt.hi-rt.lo) &&
			rt.fab.QueueLen() == 0
		if quiet && havePrev && cur == prev {
			rt.pes[rt.lo].selfPush(envelope{kind: kindQuiesce})
			return
		}
		prev, havePrev = cur, quiet
	}
}
