// Package relnet is the reliable-delivery layer between the runtime and the
// simulated message fabric (internal/netsim, the one fabric that can lose,
// duplicate or reorder a frame, and the one that offers the timer facility
// the layer's timeouts ride; see Fabric). The TCP transport in
// internal/sockfab is ordered and reliable already and runs without it.
//
// The paper's quiescence rule — created == processed, stable across two
// consecutive reductions (§II-D) — silently assumes the fabric neither loses
// nor duplicates an update. PR 3 made violations loud: a single dropped
// message leaves the counters permanently unequal and the run hangs. This
// layer moves the reproduction from "detects loss" to "survives loss", the
// property real transports give Charm++ underneath the paper's runs:
//
//   - Every application frame on a (src, dst) stream is stamped with a
//     sequence number (starting at 1) and retained by the sender until
//     acknowledged.
//   - Receivers deduplicate with a cumulative-ack counter plus an
//     out-of-order window, so at-least-once transmission becomes
//     exactly-once delivery to the mailboxes above — the quiescence
//     counters never see a loss or a duplicate.
//   - Acks are cumulative and piggybacked on reverse-direction data frames
//     (a tram batch flowing dst→src carries the ack for free); quiet links
//     fall back to a standalone delayed ack.
//   - Unacked frames are retransmitted on a timeout with exponential
//     backoff. Timeouts ride the fabric's own SendAfter timer facility, so
//     retransmission is event-driven on the same timeline as the traffic
//     it guards — no second clock, no polling, no wall-time reads (the
//     package is under detrand enforcement). The injected simclock.Clock
//     is used only to observe ack latency.
//   - A frame left unacked when the fabric's timer facility closes loses
//     its retransmit protection. The layer makes that loud instead of
//     silent: the send reports SendClosed and the frame is counted in the
//     "relnet.stranded" diagnostic (Stats.Stranded).
//
// Retransmitted frames re-enter the fabric's Send and are therefore subject
// to the same fault filters as first transmissions: under a probabilistic drop
// filter a frame is retried until a copy survives. Every layer action is
// counted (Stats, and the "relnet." metrics instruments) so the runtime's
// conservation ledger (runtime.Audit) stays exact in the presence of
// retransmits, fabric duplicates and discarded duplicates.
package relnet

import (
	"sync"
	"sync/atomic"
	"time"

	"acic/internal/fabric"
	"acic/internal/metrics"
	"acic/internal/simclock"
	"acic/internal/trace"
)

// Config parameterizes a Layer. The zero value selects workable defaults
// for the latency scales DefaultLatency simulates.
type Config struct {
	// RTO is the initial retransmit timeout. It should comfortably exceed
	// one round trip on the slowest tier plus the ack delay; too small and
	// the layer wastes fabric bandwidth on spurious retransmits (they are
	// harmless — the dedup window discards them — but they are counted).
	// The fabric timeline is anchored to wall time, so the margin must
	// absorb host scheduling noise too, not just simulated latency.
	// Defaults to 5ms.
	RTO time.Duration
	// MaxRTO caps the exponential backoff. It also bounds how long a
	// pending retransmit timer can stall Network.Close, which drains every
	// queued delivery at its scheduled deadline. Defaults to 8×RTO.
	MaxRTO time.Duration
	// AckDelay is the standalone-ack fallback delay: a receiver that owes
	// an ack and sees no reverse traffic to piggyback on sends a dedicated
	// ack frame this long after the data arrived. Defaults to RTO/4.
	AckDelay time.Duration
	// Clock observes ack latency (the "relnet.ack_latency_ns" histogram).
	// Retransmit scheduling does NOT use it — timeouts ride the fabric's
	// timeline via its SendAfter facility. Defaults to simclock.Default().
	Clock simclock.Clock
	// Metrics, when non-nil, receives the layer's instruments under the
	// "relnet." prefix, sharded by the stream's source PE. A nil registry
	// selects a private one so Stats always works.
	Metrics *metrics.Registry
	// Trace, when non-nil, records one KindRetransmit event per
	// retransmitted frame (Arg: the frame's sequence number) on the
	// stream's source PE.
	Trace *trace.Recorder
}

func (c Config) withDefaults() Config {
	if c.RTO <= 0 {
		c.RTO = 5 * time.Millisecond
	}
	if c.MaxRTO <= 0 {
		c.MaxRTO = 8 * c.RTO
	}
	if c.AckDelay <= 0 {
		c.AckDelay = c.RTO / 4
	}
	c.Clock = simclock.Default(c.Clock)
	return c
}

// Stats aggregates the layer's counters — the ledger columns runtime.Audit
// folds into its conservation identity.
type Stats struct {
	// Retransmits counts data frames re-sent by the timeout machinery
	// (attempts that reached the fabric or its drop filter; post-close
	// attempts are not counted because the frame did not go anywhere).
	Retransmits int64
	// DupDiscarded counts data frames the dedup window swallowed — fabric
	// duplicates and retransmits whose original made it through.
	DupDiscarded int64
	// AcksSent counts standalone ack frames handed to the fabric
	// (piggybacked acks travel inside data frames and are not counted).
	AcksSent int64
	// AcksConsumed counts standalone ack frames delivered to and consumed
	// by the layer.
	AcksConsumed int64
	// Stranded counts data frames left unacked after the fabric's timer
	// facility closed under them: no retransmit timer will ever retry
	// them, so the at-least-once guarantee has lapsed. Each frame is
	// counted at most once. A diagnostic, not a conservation column — a
	// stranded frame's first transmission may still be delivered by the
	// fabric's close-time drain, in which case the counter overstates the
	// actual loss.
	Stranded int64
}

// --- wire frames ---
//
// In every frame, Src and Dst name the STREAM (Src sent data to Dst), not
// necessarily the transport direction: an ackFrame for stream (Src, Dst)
// travels Dst→Src.

// dataFrame carries one application payload plus a piggybacked cumulative
// ack for the reverse stream.
type dataFrame struct {
	Src, Dst int
	Seq      uint64 // position in the (Src, Dst) stream, starting at 1
	Ack      uint64 // cumulative ack of the reverse (Dst, Src) stream
	Payload  any
	Size     int
}

// ackFrame is the standalone cumulative ack for quiet links.
type ackFrame struct {
	Src, Dst int    // the acknowledged stream
	Ack      uint64 // every Seq <= Ack was received by Dst
}

// retransTimer is a fabric timer: when it fires, the sender side of the
// stream retransmits everything still unacked. Delivered to Src's lane.
type retransTimer struct {
	Src, Dst int
}

// ackTimer is a fabric timer: when it fires, the receiver side of the
// stream sends a standalone ack if one is still owed. Delivered to Dst's
// lane.
type ackTimer struct {
	Src, Dst int
}

// pending is one unacked frame retained for retransmission.
type pending struct {
	seq     uint64
	payload any
	size    int
	sentAt  time.Time // Clock stamp of the first transmission
}

// pair holds the full state of one unidirectional stream src→dst.
type pair struct {
	// Sender side, guarded by mu. Touched by the source PE's goroutine
	// (Send) and the fabric dispatcher (acks, retransmit timers).
	mu         sync.Mutex
	nextSeq    uint64
	unacked    []pending
	rto        time.Duration // current backoff value; 0 means "use Config.RTO"
	timerArmed bool
	// strandedUpTo is the highest seq already counted in the stranded
	// diagnostic, so repeated arm failures count each frame at most once.
	strandedUpTo uint64

	// Receiver side. cumAck is atomic because reverse-direction senders
	// read it to piggyback; everything else is touched only on the fabric
	// dispatcher goroutine, which delivers serially.
	cumAck     atomic.Uint64
	ooo        map[uint64]struct{} // received seqs beyond cumAck+1
	ackOwed    bool
	ackPending bool // an ackTimer is in flight

	// Layer stores pairs contiguously ([]pair, index s*n+d), so without
	// padding the sender mutex of stream (s,d) and the receiver atomics of
	// stream (s,d+1) share a cache line across goroutines.
	_ [64]byte
}

// Fabric is what the layer sends through: a fabric with a timer facility
// that delivers payload to dst after at least delay, on the same serial
// dispatcher as Send's deliveries. *netsim.Network provides it.
type Fabric interface {
	fabric.Fabric
	SendAfter(dst int, payload any, delay time.Duration) fabric.SendResult
}

// Layer is the reliable-delivery endpoint set for one simulated machine.
// Create it with New, hand OnFabric to the Network as its deliver function
// (directly or via a closure), then Bind the network before the first Send.
type Layer struct {
	cfg     Config
	n       int
	net     Fabric
	deliver func(dst int, payload any)
	pairs   []pair // stream (s, d) at index s*n+d

	retransmits  *metrics.Counter
	dupDiscarded *metrics.Counter
	acksSent     *metrics.Counter
	acksConsumed *metrics.Counter
	stranded     *metrics.Counter
	ackLatency   *metrics.Histogram
}

// New creates a Layer for numPEs endpoints. deliver receives exactly-once,
// deduplicated application payloads on the fabric dispatcher goroutine —
// the same contract netsim's deliver function has without the layer.
func New(cfg Config, numPEs int, deliver func(dst int, payload any)) *Layer {
	cfg = cfg.withDefaults()
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.New(numPEs)
	}
	return &Layer{
		cfg:     cfg,
		n:       numPEs,
		deliver: deliver,
		pairs:   make([]pair, numPEs*numPEs),

		retransmits:  reg.Counter("relnet.retransmits"),
		dupDiscarded: reg.Counter("relnet.dup_discarded"),
		acksSent:     reg.Counter("relnet.acks_sent"),
		acksConsumed: reg.Counter("relnet.acks_consumed"),
		stranded:     reg.Counter("relnet.stranded"),
		ackLatency:   reg.Histogram("relnet.ack_latency_ns"),
	}
}

// Bind attaches the fabric the layer sends through (the simulated netsim
// network, or a test stub). The fabric's deliver function must route every
// payload to OnFabric; Bind must be called before the first Send.
func (l *Layer) Bind(net Fabric) { l.net = net }

// pair returns the state of stream src→dst.
func (l *Layer) pair(src, dst int) *pair { return &l.pairs[src*l.n+dst] }

// Send transmits payload on stream src→dst with at-least-once semantics:
// the frame is stamped with the stream's next sequence number, retained
// until acknowledged, and retransmitted with exponential backoff until an
// ack arrives or the fabric closes. Safe for concurrent use.
//
// SendClosed means the at-least-once guarantee could not be provided for
// this frame: either the data send itself hit a closed fabric, or the
// fabric closed before the retransmit timer could arm (a close racing the
// send), leaving the frame unacked with nothing to retry it. Both cases
// count the stream's newly unprotected frames in Stats.Stranded.
func (l *Layer) Send(src, dst int, payload any, size int) fabric.SendResult {
	p := l.pair(src, dst)
	p.mu.Lock()
	p.nextSeq++
	seq := p.nextSeq
	p.unacked = append(p.unacked, pending{seq: seq, payload: payload, size: size, sentAt: l.cfg.Clock.Now()})
	arm := !p.timerArmed
	if arm {
		p.timerArmed = true
	}
	p.mu.Unlock()

	// Piggyback the cumulative ack of the reverse stream: a tram batch
	// flowing src→dst acknowledges everything received dst→src for free.
	res := l.net.Send(src, dst, dataFrame{
		Src: src, Dst: dst, Seq: seq,
		Ack:     l.pair(dst, src).cumAck.Load(),
		Payload: payload, Size: size,
	}, size)
	if arm {
		if l.net.SendAfter(src, retransTimer{Src: src, Dst: dst}, l.cfg.RTO) == fabric.SendClosed {
			// The fabric closed between the data send and the timer arm.
			// The frame sits in unacked with no timer to retry it; report
			// the lapse instead of pretending the frame is protected.
			p.mu.Lock()
			p.timerArmed = false
			l.strandLocked(p, src)
			p.mu.Unlock()
			res = fabric.SendClosed
		}
	}
	// A SendDropped result is still at-least-once progress: the frame sits
	// in the unacked queue and the armed timer will retry it.
	return res
}

// strandLocked counts every unacked frame of p not already counted into
// the stranded diagnostic. Caller holds p.mu; src shards the counter.
func (l *Layer) strandLocked(p *pair, src int) {
	for _, pd := range p.unacked {
		if pd.seq > p.strandedUpTo {
			p.strandedUpTo = pd.seq
			l.stranded.Inc(src)
		}
	}
}

// OnFabric is the layer's fabric-side entry point: the Network's deliver
// function must forward every (dst, payload) here. It runs on the fabric
// dispatcher goroutine.
func (l *Layer) OnFabric(dst int, payload any) {
	switch f := payload.(type) {
	case dataFrame:
		l.onData(f)
	case ackFrame:
		l.acksConsumed.Inc(f.Src)
		l.processAck(f.Src, f.Dst, f.Ack)
	case retransTimer:
		l.onRetransTimer(f)
	case ackTimer:
		l.onAckTimer(f)
	default:
		// Not a layer frame — a payload injected around the layer (e.g. a
		// test poking the raw network). Pass it through untouched.
		l.deliver(dst, payload)
	}
}

// onData deduplicates one arriving data frame, delivers fresh payloads to
// the application, and schedules the ack that every arrival earns.
func (l *Layer) onData(f dataFrame) {
	// The piggybacked ack acknowledges the reverse stream.
	l.processAck(f.Dst, f.Src, f.Ack)

	p := l.pair(f.Src, f.Dst)
	cum := p.cumAck.Load()
	_, inWindow := p.ooo[f.Seq]
	if f.Seq <= cum || inWindow {
		// Seen before: a fabric duplicate, or a retransmit whose original
		// made it through. Discard, but still owe an ack — a retransmit
		// means the sender has not seen ours.
		l.dupDiscarded.Inc(f.Dst)
	} else {
		if f.Seq == cum+1 {
			cum++
			for {
				if _, ok := p.ooo[cum+1]; !ok {
					break
				}
				delete(p.ooo, cum+1)
				cum++
			}
			p.cumAck.Store(cum)
		} else {
			// A gap below f.Seq is outstanding (dropped or reordered):
			// deliver immediately — relaxation is order-insensitive — but
			// remember the seq so a late copy is recognized as a dup.
			if p.ooo == nil {
				p.ooo = make(map[uint64]struct{})
			}
			p.ooo[f.Seq] = struct{}{}
		}
		l.deliver(f.Dst, f.Payload)
	}

	p.ackOwed = true
	if !p.ackPending {
		p.ackPending = true
		if l.net.SendAfter(f.Dst, ackTimer{Src: f.Src, Dst: f.Dst}, l.cfg.AckDelay) == fabric.SendClosed {
			// The timer facility is closed but data is still arriving — a
			// half-closed fabric. Resetting ackPending alone would leave
			// ackOwed latched with no timer ever coming, permanently muting
			// standalone acks for the stream while the sender retransmits
			// forever. Fire the fallback inline instead: onData runs on the
			// dispatcher goroutine, exactly where the timer would have run.
			p.ackPending = false
			l.onAckTimer(ackTimer{Src: f.Src, Dst: f.Dst})
		}
	}
}

// onAckTimer fires the standalone-ack fallback for a quiet link: if an ack
// is still owed (no reverse-direction data frame has carried it meanwhile,
// and cumulative acks make any overlap harmless), send it now.
func (l *Layer) onAckTimer(t ackTimer) {
	p := l.pair(t.Src, t.Dst)
	p.ackPending = false
	if !p.ackOwed {
		return
	}
	p.ackOwed = false
	ack := ackFrame{Src: t.Src, Dst: t.Dst, Ack: p.cumAck.Load()}
	if l.net.Send(t.Dst, t.Src, ack, 1) != fabric.SendClosed {
		l.acksSent.Inc(t.Src)
	}
}

// processAck retires every unacked frame of stream (src, dst) with
// seq <= ack. Cumulative acks are idempotent, so stale or reordered acks
// are harmless no-ops.
func (l *Layer) processAck(src, dst int, ack uint64) {
	if ack == 0 {
		return
	}
	p := l.pair(src, dst)
	var retired []time.Duration
	p.mu.Lock()
	keep := p.unacked[:0]
	for _, pd := range p.unacked {
		if pd.seq > ack {
			keep = append(keep, pd)
		} else {
			retired = append(retired, l.cfg.Clock.Since(pd.sentAt))
		}
	}
	for i := len(keep); i < len(p.unacked); i++ {
		p.unacked[i] = pending{} // release payloads for GC
	}
	p.unacked = keep
	if len(p.unacked) == 0 {
		p.rto = 0 // reset backoff; the armed timer will observe and disarm
	}
	p.mu.Unlock()
	for _, d := range retired {
		l.ackLatency.Observe(src, int64(d))
	}
}

// onRetransTimer retransmits everything still unacked on the stream and
// re-arms itself with doubled (capped) backoff; with nothing left unacked
// it disarms and resets the backoff.
func (l *Layer) onRetransTimer(t retransTimer) {
	p := l.pair(t.Src, t.Dst)
	p.mu.Lock()
	if len(p.unacked) == 0 {
		p.timerArmed = false
		p.rto = 0
		p.mu.Unlock()
		return
	}
	if p.rto == 0 {
		p.rto = l.cfg.RTO
	}
	p.rto *= 2
	if p.rto > l.cfg.MaxRTO {
		p.rto = l.cfg.MaxRTO
	}
	next := p.rto
	resend := make([]pending, len(p.unacked))
	copy(resend, p.unacked)
	p.mu.Unlock()

	// Sends happen outside the lock (locksend). An ack racing in between
	// snapshot and send only makes a resend a dup the receiver discards.
	ack := l.pair(t.Dst, t.Src).cumAck.Load()
	for _, pd := range resend {
		res := l.net.Send(t.Src, t.Dst, dataFrame{
			Src: t.Src, Dst: t.Dst, Seq: pd.seq, Ack: ack,
			Payload: pd.payload, Size: pd.size,
		}, pd.size)
		if res == fabric.SendClosed {
			// Fabric closed mid-resend: nothing further will be delivered
			// and no timer can re-arm. Disarm (a latched timerArmed with no
			// timer in flight would also block every future Send from
			// arming one) and record the lapse.
			p.mu.Lock()
			p.timerArmed = false
			l.strandLocked(p, t.Src)
			p.mu.Unlock()
			return
		}
		l.retransmits.Inc(t.Src)
		if l.cfg.Trace != nil {
			l.cfg.Trace.Record(t.Src, trace.KindRetransmit, int64(pd.seq))
		}
	}
	if l.net.SendAfter(t.Src, t, next) == fabric.SendClosed {
		p.mu.Lock()
		p.timerArmed = false
		l.strandLocked(p, t.Src)
		p.mu.Unlock()
	}
}

// Stats returns the layer's ledger counters. Exact after the fabric has
// closed; mid-run snapshots are approximate.
func (l *Layer) Stats() Stats {
	return Stats{
		Retransmits:  l.retransmits.Value(),
		DupDiscarded: l.dupDiscarded.Value(),
		AcksSent:     l.acksSent.Value(),
		AcksConsumed: l.acksConsumed.Value(),
		Stranded:     l.stranded.Value(),
	}
}
