// Package netsim simulates the communication fabric of the clusters the
// paper evaluates on (Delta at NCSA and Frontier at ORNL, §IV-C).
//
// The paper's experiments need a machine with distinguishable communication
// tiers: PEs within a process share memory, processes within a node talk
// over shared memory or loopback, and nodes talk over the interconnect.
// ACIC's advantage over bulk-synchronous Δ-stepping comes precisely from
// hiding the latency of the slowest tier, so the simulation reproduces the
// tiers as injected delivery delays rather than pretending every goroutine
// is adjacent.
//
// A Topology describes nodes × processes-per-node × PEs-per-process exactly
// as the paper configures its runs (8 processes/node, 6 PEs/process). A
// Network owns a sharded, time-ordered delay-queue fabric: one lane (a
// typed min-heap under its own mutex) per destination PE. Senders enqueue
// a message into the destination's lane with the latency implied by the
// (src, dst) tier plus a per-item serialization cost, and a single
// dispatcher goroutine delivers each message to the caller-provided
// delivery function when its deadline arrives, waking exactly at the
// earliest pending deadline (timer + wake channel, no polling). Messages
// between two PEs are delivered in send order (FIFO per source-destination
// pair), matching the in-order delivery Charm++ guarantees between a pair
// of PEs on one channel: both endpoints of a pair map to the same lane,
// where per-pair deadlines are clamped to be monotone in send order and a
// per-lane sequence number breaks the remaining deadline ties in enqueue
// order — so the guarantee holds even under jittered delay models
// (SetJitter) whose delays are not monotone in send order.
package netsim

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"acic/internal/fabric"
	"acic/internal/metrics"
)

// Topology is the machine shape: Nodes × ProcsPerNode × PEsPerProc.
// PE ids are dense in [0, TotalPEs()) with PEs of one process contiguous
// and processes of one node contiguous, matching +ppn-style launches.
type Topology struct {
	Nodes        int
	ProcsPerNode int
	PEsPerProc   int
}

// SingleNode returns a one-node topology with one process of numPEs PEs —
// the pure shared-memory configuration used for the §IV-E parameter sweeps.
func SingleNode(numPEs int) Topology {
	return Topology{Nodes: 1, ProcsPerNode: 1, PEsPerProc: numPEs}
}

// PaperNode returns the per-node shape used in §IV-C: 8 processes per node,
// 6 worker PEs per process (the 48 cores minus communication/OS cores are
// the workers).
func PaperNode(nodes int) Topology {
	return Topology{Nodes: nodes, ProcsPerNode: 8, PEsPerProc: 6}
}

// Validate returns an error if any dimension is non-positive.
func (t Topology) Validate() error {
	if t.Nodes <= 0 || t.ProcsPerNode <= 0 || t.PEsPerProc <= 0 {
		return fmt.Errorf("netsim: invalid topology %+v", t)
	}
	return nil
}

// TotalPEs returns the number of PEs in the machine.
func (t Topology) TotalPEs() int { return t.Nodes * t.ProcsPerNode * t.PEsPerProc }

// TotalProcs returns the number of processes in the machine.
func (t Topology) TotalProcs() int { return t.Nodes * t.ProcsPerNode }

// ProcessOf returns the process id of a PE.
func (t Topology) ProcessOf(pe int) int { return pe / t.PEsPerProc }

// NodeOf returns the node id of a PE.
func (t Topology) NodeOf(pe int) int { return pe / (t.PEsPerProc * t.ProcsPerNode) }

// PEsOfProcess returns the half-open PE range [lo, hi) of process p.
func (t Topology) PEsOfProcess(p int) (lo, hi int) {
	return p * t.PEsPerProc, (p + 1) * t.PEsPerProc
}

// Tier classifies the communication distance between two PEs.
type Tier uint8

// Communication tiers, nearest first.
const (
	TierSelf Tier = iota // same PE
	TierProcess
	TierNode
	TierMachine
)

// TierOf returns the tier between two PEs.
func (t Topology) TierOf(src, dst int) Tier {
	switch {
	case src == dst:
		return TierSelf
	case t.ProcessOf(src) == t.ProcessOf(dst):
		return TierProcess
	case t.NodeOf(src) == t.NodeOf(dst):
		return TierNode
	default:
		return TierMachine
	}
}

// LatencyModel maps a tier and message size to a delivery delay.
type LatencyModel struct {
	// Base one-way latencies per tier.
	Self, IntraProcess, IntraNode, InterNode time.Duration
	// PerItem adds serialization cost proportional to message size (in
	// items, e.g. updates in a tram batch). Aggregation amortizes the base
	// latency but not this term — which is why Fig. 6's optimal buffer size
	// shrinks as parallelism grows.
	PerItem time.Duration
}

// DefaultLatency returns a model with tier ratios resembling a real
// cluster (inter-node ≈ 25× intra-process) scaled down so full experiment
// suites finish in seconds.
func DefaultLatency() LatencyModel {
	return LatencyModel{
		Self:         0,
		IntraProcess: 2 * time.Microsecond,
		IntraNode:    10 * time.Microsecond,
		InterNode:    50 * time.Microsecond,
		PerItem:      20 * time.Nanosecond,
	}
}

// ZeroLatency returns a model with no injected delay, for unit tests that
// exercise only logical behaviour.
func ZeroLatency() LatencyModel { return LatencyModel{} }

// Delay returns the delivery delay for a message of size items over tier.
func (m LatencyModel) Delay(tier Tier, size int) time.Duration {
	var base time.Duration
	switch tier {
	case TierSelf:
		base = m.Self
	case TierProcess:
		base = m.IntraProcess
	case TierNode:
		base = m.IntraNode
	default:
		base = m.InterNode
	}
	return base + time.Duration(size)*m.PerItem
}

// Stats aggregates network-level counters. Read with Network.Stats after
// the run; fields are updated atomically.
type Stats struct {
	MessagesSent  int64 // individual Send calls
	ItemsSent     int64 // sum of message sizes
	BytesByTier   [4]int64
	MaxQueueDepth int64
	Dropped       int64 // messages discarded by an injected fault filter
	Reordered     int64 // messages released from the per-pair FIFO clamp
}

// SendResult reports what happened to one Send (or SendAfter) call: the
// runtime uses it to return the pooled envelope of a message the fabric
// did not keep. It is an alias of fabric.SendResult so netsim's constants
// and those of any other fabric.Fabric implementation are interchangeable.
type SendResult = fabric.SendResult

// Send outcomes.
const (
	// SendEnqueued: the message entered a lane and will be delivered.
	SendEnqueued = fabric.SendEnqueued
	// SendDropped: an injected DropFilter discarded the message.
	SendDropped = fabric.SendDropped
	// SendClosed: the network was already closed; the message vanished.
	SendClosed = fabric.SendClosed
)

// The simulated network is the reference implementation of the fabric
// surface the runtime programs against.
var _ fabric.Fabric = (*Network)(nil)

// DropFilter decides whether to discard a message, for fault-injection
// tests. It is consulted on every Send with the message's endpoints and
// size; returning true drops the message silently — the failure mode of a
// lossy fabric. Charm++ (and therefore ACIC's core counters) assume
// reliable delivery, so a lost update leaves the quiescence counters
// permanently unequal and the algorithm visibly hangs rather than silently
// producing wrong distances.
type DropFilter func(src, dst, size int) bool

// ReorderFilter breaks the fabric's per-pair FIFO guarantee for selected
// messages, modeling adversarial reordering (multipath routing, retried
// RPCs). A message selected with reorder=true is scheduled extra after its
// modeled delay, bypasses the per-pair FIFO clamp, and does not advance the
// pair's deadline floor — so messages sent after it can overtake it.
// Stats.Reordered counts the released messages. Only order-insensitive
// receivers (label-correcting relaxation) should run under a ReorderFilter.
type ReorderFilter func(src, dst, size int) (extra time.Duration, reorder bool)

// FaultPlan bundles the fault filters a run installs on its fabric — the
// shape run drivers and the stress harness pass around instead of separate
// setters. Nil members install nothing.
type FaultPlan struct {
	Drop    DropFilter
	Reorder ReorderFilter
}

// Empty reports whether the plan installs no filter at all.
func (p FaultPlan) Empty() bool {
	return p.Drop == nil && p.Reorder == nil
}

// ApplyFaults installs the plan's non-nil filters. Like the individual
// setters it is safe mid-run, but runs normally call it before any Send.
func (n *Network) ApplyFaults(p FaultPlan) {
	if p.Drop != nil {
		n.SetDropFilter(p.Drop)
	}
	if p.Reorder != nil {
		n.SetReorderFilter(p.Reorder)
	}
}

// JitterFunc perturbs the modeled delay of one message. It receives the
// endpoints, the size in items, and the delay the LatencyModel assigned,
// and returns the delay to use instead. The schedule-stress harness
// (internal/stress) installs deterministic seeded jitter through this hook
// to shake out timing-dependent bugs; negative results are clamped to zero.
// The function runs on sender goroutines and must be safe for concurrent
// use. Per-pair FIFO order is preserved regardless of what the jitter
// returns: the fabric never delivers a later send of a (src, dst) pair
// before an earlier one (see Send).
type JitterFunc func(src, dst, size int, base time.Duration) time.Duration

// Network is the sharded delay-queue message fabric.
type Network struct {
	topo    Topology
	model   LatencyModel
	deliver func(dst int, payload any)
	drop    atomic.Pointer[DropFilter]
	reorder atomic.Pointer[ReorderFilter]
	jitter  atomic.Pointer[JitterFunc]

	// epoch anchors all deadlines: deliveries are scheduled in nanoseconds
	// since epoch, measured with the monotonic clock, so deadline math is
	// plain int64 comparison and immune to wall-clock steps.
	epoch time.Time

	lanes []lane // one per destination PE

	// queued is correctness-critical (QueueLen feeds quiescence detection)
	// and stays a single atomic; the traffic counters below are telemetry
	// and live in a metrics.Registry, sharded by source PE.
	queued atomic.Int64 // scheduled but not yet delivered, all lanes

	closed    atomic.Bool
	closeOnce sync.Once
	wake      chan struct{} // buffered(1): senders nudge the dispatcher
	done      chan struct{}

	messagesSent *metrics.Counter
	itemsSent    *metrics.Counter
	bytesByTier  [4]*metrics.Counter
	dropped      *metrics.Counter
	reordered    *metrics.Counter
	maxDepth     *metrics.Gauge
}

// laneInitCap is each lane's starting heap capacity. A network lives for
// one run, so a lane that grew its heap from empty would pay an
// allocation per doubling in every run.
const laneInitCap = 64

// laneEmpty is the nextAt sentinel for a lane with nothing queued.
const laneEmpty = math.MaxInt64

// lane is one destination PE's delay queue. Both directions of a (src,dst)
// pair hit a single lane (the dst's), so per-pair FIFO needs only the
// per-lane seq tiebreak. The padding keeps neighboring lanes off one cache
// line; lanes are the contended structures of the fabric.
type lane struct {
	mu     sync.Mutex
	q      deliveryQueue
	seq    uint64 // tiebreak: preserves FIFO among equal deadlines
	closed bool

	// pairAt[src] is the deadline of the latest message enqueued from src
	// into this lane, allocated on the lane's first Send. Deadlines of a
	// (src, dst) pair are clamped to be monotone non-decreasing, so FIFO
	// per pair survives delays that are not monotone in send order —
	// jittered models, or a large per-item batch followed by a small one.
	pairAt []int64

	// nextAt mirrors the head deadline (laneEmpty when empty) so the
	// dispatcher can scan lanes without taking their locks.
	nextAt atomic.Int64

	_ [64]byte
}

type delivery struct {
	at      int64 // nanoseconds since Network.epoch
	seq     uint64
	payload any
}

// deliveryQueue is a hand-rolled binary min-heap over delivery values.
// Unlike container/heap it never boxes elements into interfaces, so a
// steady-state push/pop cycle allocates nothing once the backing array has
// grown to the high-water depth.
type deliveryQueue []delivery

func (q deliveryQueue) less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q *deliveryQueue) push(d delivery) {
	*q = append(*q, d)
	h := *q
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (q *deliveryQueue) pop() delivery {
	h := *q
	d := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n].payload = nil // release for GC
	h = h[:n]
	*q = h
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && h.less(l, min) {
			min = l
		}
		if r < n && h.less(r, min) {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return d
}

// NewNetwork creates a network over topo with the given latency model.
// deliver is invoked from the dispatcher goroutine for every message at its
// delivery time; it must be safe for concurrent use with senders and must
// not block for long (it typically appends to an unbounded mailbox).
// The returned Network is running; call Close when done. Counters land in
// a private registry; use NewNetworkWithRegistry to aggregate them into a
// run-wide one.
func NewNetwork(topo Topology, model LatencyModel, deliver func(dst int, payload any)) (*Network, error) {
	return NewNetworkWithRegistry(topo, model, deliver, nil)
}

// NewNetworkWithRegistry is NewNetwork with the fabric's traffic counters
// registered in reg under the "netsim." prefix, sharded by source PE. reg
// must have been created for at least topo.TotalPEs() shards; a nil reg
// selects a private registry so the counters (and therefore Stats) always
// exist.
func NewNetworkWithRegistry(topo Topology, model LatencyModel, deliver func(dst int, payload any), reg *metrics.Registry) (*Network, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if deliver == nil {
		return nil, fmt.Errorf("netsim: nil deliver function")
	}
	if reg == nil {
		reg = metrics.New(topo.TotalPEs())
	}
	n := &Network{
		topo:    topo,
		model:   model,
		deliver: deliver,
		//acic:allow-wallclock the epoch anchors the delay fabric's monotonic timeline; taken once per Network
		epoch: time.Now(),
		lanes: make([]lane, topo.TotalPEs()),
		wake:  make(chan struct{}, 1),
		done:  make(chan struct{}),

		messagesSent: reg.Counter("netsim.messages_sent"),
		itemsSent:    reg.Counter("netsim.items_sent"),
		bytesByTier: [4]*metrics.Counter{
			reg.Counter("netsim.items_tier_self"),
			reg.Counter("netsim.items_tier_process"),
			reg.Counter("netsim.items_tier_node"),
			reg.Counter("netsim.items_tier_machine"),
		},
		dropped:   reg.Counter("netsim.dropped"),
		reordered: reg.Counter("netsim.reordered"),
		maxDepth:  reg.Gauge("netsim.max_queue_depth"),
	}
	for i := range n.lanes {
		n.lanes[i].q = make(deliveryQueue, 0, laneInitCap)
		n.lanes[i].nextAt.Store(laneEmpty)
	}
	//acic:allow-goroutine the dispatcher is the fabric's own delivery thread, joined by Close
	go n.dispatch()
	return n, nil
}

// Topology returns the network's topology.
func (n *Network) Topology() Topology { return n.topo }

// SetDropFilter installs a fault-injection filter. A nil filter (the
// default) delivers everything.
//
// Mid-run swaps are race-free and permitted: the filter lives behind an
// atomic pointer, every Send consults exactly one filter (loaded once,
// before any fabric lock), and a swap never tears — a concurrent Send sees
// either the old filter or the new one, never a mix, and the Dropped
// counter advances only for messages the consulted filter rejected. What a
// swap does NOT give is a delivery barrier: messages already enqueued by
// the old filter's verdict are still in flight and will be delivered. The
// filter runs on sender goroutines — outside every fabric lock, so a slow
// filter can never stall the dispatcher — and must itself be safe for
// concurrent use (TestDropFilterMidRunSwap pins these semantics).
func (n *Network) SetDropFilter(f DropFilter) {
	if f == nil {
		n.drop.Store(nil)
		return
	}
	n.drop.Store(&f)
}

// SetReorderFilter installs an adversarial-reordering filter (see
// ReorderFilter). The same mid-run swap semantics as SetDropFilter apply.
// A nil filter (the default) preserves per-pair FIFO for every message.
func (n *Network) SetReorderFilter(f ReorderFilter) {
	if f == nil {
		n.reorder.Store(nil)
		return
	}
	n.reorder.Store(&f)
}

// SetJitter installs a per-message delay perturbation. Call before any
// Send; a nil func (the default) leaves the model's delays untouched.
func (n *Network) SetJitter(j JitterFunc) {
	if j == nil {
		n.jitter.Store(nil)
		return
	}
	n.jitter.Store(&j)
}

// Send schedules payload for delivery to dst's mailbox after the delay
// implied by the (src, dst) tier and size (in items). It is safe for
// concurrent use. Sending on a closed network is a no-op (SendClosed). A
// message counts toward MessagesSent/ItemsSent/BytesByTier only when it is
// actually enqueued: dropped and post-close sends are not traffic.
func (n *Network) Send(src, dst int, payload any, size int) SendResult {
	// The fault filters are user code: evaluate them before touching any
	// fabric lock so a slow filter cannot stall the dispatcher.
	if f := n.drop.Load(); f != nil && (*f)(src, dst, size) {
		n.dropped.Add(src, 1)
		return SendDropped
	}
	tier := n.topo.TierOf(src, dst)
	delay := n.model.Delay(tier, size)
	if j := n.jitter.Load(); j != nil {
		if delay = (*j)(src, dst, size, delay); delay < 0 {
			delay = 0
		}
	}
	var reorderExtra time.Duration
	reordered := false
	if f := n.reorder.Load(); f != nil {
		if extra, ok := (*f)(src, dst, size); ok {
			if extra < 0 {
				extra = 0
			}
			reorderExtra, reordered = extra, true
		}
	}
	//acic:allow-wallclock latency injection maps simulated delay onto the real timeline by design
	at := int64(time.Since(n.epoch) + delay)

	la := &n.lanes[dst]
	la.mu.Lock()
	if la.closed {
		la.mu.Unlock()
		return SendClosed
	}
	if reordered {
		// Released from the FIFO clamp: the message is scheduled past its
		// modeled delay and does not raise the pair's deadline floor, so
		// later sends of the pair may overtake it.
		at += int64(reorderExtra)
	} else {
		// Clamp the deadline so it never precedes an earlier send of the
		// same (src, dst) pair: per-pair FIFO must hold for any delay
		// function, not only monotone ones (the seq tiebreak alone covers
		// only exact ties).
		if la.pairAt == nil {
			la.pairAt = make([]int64, len(n.lanes))
		}
		if at < la.pairAt[src] {
			at = la.pairAt[src]
		}
		la.pairAt[src] = at
	}
	newHead := la.pushLocked(n, at, payload)
	depth := n.queued.Load()
	if newHead {
		la.nextAt.Store(la.q[0].at)
	}
	la.mu.Unlock()

	n.messagesSent.Add(src, 1)
	n.itemsSent.Add(src, int64(size))
	n.bytesByTier[tier].Add(src, int64(size))
	if reordered {
		n.reordered.Add(src, 1)
	}
	// Per-src high-water mark of the global depth: the gauge's Max over
	// shards recovers the machine-wide maximum the old CAS loop tracked.
	n.maxDepth.SetMax(src, depth)
	if newHead {
		// A pushed message is now its lane's earliest; the dispatcher may
		// be sleeping toward a later deadline. Non-blocking nudge: a full
		// buffer means a wake is already pending.
		select {
		case n.wake <- struct{}{}:
		default:
		}
	}
	return SendEnqueued
}

// pushLocked enqueues one delivery while the lane lock is held and reports
// whether it became the lane's new head. queued must rise before the
// message becomes visible to the dispatcher (it cannot pop until the lane
// lock is released): incrementing after the unlock opens a window where a
// message is delivered and decremented first, letting QueueLen() read 0 —
// or negative — while traffic is outstanding, a false-quiescence hazard for
// any detector that trusts QueueLen.
func (la *lane) pushLocked(n *Network, at int64, payload any) bool {
	la.seq++
	n.queued.Add(1)
	la.q.push(delivery{at: at, seq: la.seq, payload: payload})
	return la.q[0].at == at && la.q[0].seq == la.seq
}

// SendAfter schedules payload for delivery to dst exactly delay from now,
// bypassing the latency model, every fault filter, the per-pair FIFO clamp
// and the traffic counters. It is the fabric's timer facility: a caller
// that wants a wake-up on the fabric's own timeline schedules it here —
// no second clock, no polling (the benchmark measures the dispatcher's
// wake-up overshoot with it). The runtime never calls it. Timer deliveries
// still count toward QueueLen (a pending timer is a reason not to declare
// the fabric quiet) and are delivered in deadline order like any message.
func (n *Network) SendAfter(dst int, payload any, delay time.Duration) SendResult {
	if delay < 0 {
		delay = 0
	}
	//acic:allow-wallclock timer deadlines live on the same real timeline the fabric schedules on
	at := int64(time.Since(n.epoch) + delay)
	la := &n.lanes[dst]
	la.mu.Lock()
	if la.closed {
		la.mu.Unlock()
		return SendClosed
	}
	newHead := la.pushLocked(n, at, payload)
	if newHead {
		la.nextAt.Store(at)
	}
	la.mu.Unlock()
	if newHead {
		select {
		case n.wake <- struct{}{}:
		default:
		}
	}
	return SendEnqueued
}

// timerHorizon is the nearest deadline the dispatcher hands to the OS
// timer. A runtime timer armed for a few microseconds fires when the
// kernel next wakes the thread — about a millisecond late on a quiet host
// (the benchmark's host.sleep_50us_us), twenty times the largest modeled
// latency — so for deadlines nearer than this the dispatcher yields the
// processor and looks at the clock again. The wait is bounded by the
// horizon itself: anything further away (a long modeled delay, an idle
// fabric) parks as before.
const timerHorizon = 200 * time.Microsecond

// dispatch delivers queued messages at their deadlines. It scans the
// lanes' lock-free nextAt mirrors for the earliest pending deadline, then
// waits until that deadline (or an earlier-deadline send arrives): on a
// timer + wake channel when it is at least timerHorizon away, by yielding
// when it is nearer — no polling naps either way.
func (n *Network) dispatch() {
	defer close(n.done)
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		best := -1
		bestAt := int64(laneEmpty)
		for i := range n.lanes {
			if at := n.lanes[i].nextAt.Load(); at < bestAt {
				bestAt, best = at, i
			}
		}
		if best < 0 {
			// Nothing queued anywhere. Every lane is marked closed before
			// n.closed is set, so observing closed here means no further
			// enqueue can happen: drained, done.
			if n.closed.Load() {
				return
			}
			<-n.wake
			continue
		}
		//acic:allow-wallclock the dispatcher compares due times against the real timeline it schedules on, and re-reads it after each yield toward a near deadline
		now := int64(time.Since(n.epoch))
		if bestAt > now {
			if bestAt-now < int64(timerHorizon) {
				runtime.Gosched()
				continue
			}
			timer.Reset(time.Duration(bestAt - now))
			select {
			case <-n.wake:
				// An earlier deadline may have arrived; rescan.
				if !timer.Stop() {
					<-timer.C
				}
			case <-timer.C:
			}
			continue
		}
		la := &n.lanes[best]
		la.mu.Lock()
		var payload any
		delivered := false
		if len(la.q) > 0 && la.q[0].at <= now {
			payload = la.q.pop().payload
			delivered = true
			if len(la.q) > 0 {
				la.nextAt.Store(la.q[0].at)
			} else {
				la.nextAt.Store(laneEmpty)
			}
		}
		la.mu.Unlock()
		if delivered {
			n.deliver(best, payload)
			n.queued.Add(-1)
		}
	}
}

// Close stops accepting new messages, delivers everything still queued at
// its scheduled deadline, and waits for the dispatcher to exit.
func (n *Network) Close() {
	n.closeOnce.Do(func() {
		// Mark every lane closed first: once the loop finishes no sender
		// can enqueue, and only then may the dispatcher's "closed and all
		// lanes empty" exit check become true.
		for i := range n.lanes {
			la := &n.lanes[i]
			la.mu.Lock()
			la.closed = true
			la.mu.Unlock()
		}
		n.closed.Store(true)
		select {
		case n.wake <- struct{}{}:
		default:
		}
	})
	<-n.done
}

// QueueLen reports how many messages are scheduled but not yet delivered.
// The runtime's quiescence detector uses it to rule out in-flight messages.
func (n *Network) QueueLen() int {
	return int(n.queued.Load())
}

// Stats returns a copy of the network counters. Call after Close, or accept
// slightly stale values mid-run. It is a thin view over the registry
// instruments; callers wanting per-source-PE resolution read the "netsim."
// counters from the registry directly.
func (n *Network) Stats() Stats {
	return Stats{
		MessagesSent: n.messagesSent.Value(),
		ItemsSent:    n.itemsSent.Value(),
		BytesByTier: [4]int64{
			n.bytesByTier[0].Value(),
			n.bytesByTier[1].Value(),
			n.bytesByTier[2].Value(),
			n.bytesByTier[3].Value(),
		},
		MaxQueueDepth: n.maxDepth.Max(),
		Dropped:       n.dropped.Value(),
		Reordered:     n.reordered.Value(),
	}
}
