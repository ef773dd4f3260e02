// Package fabric defines the transport-neutral message fabric the ACIC
// runtime sends through. Two implementations exist: internal/netsim (the
// simulated delay-queue network — latency models, jitter, fault
// injection, virtual time) and internal/sockfab (real OS processes
// exchanging length-prefixed frames over loopback TCP). The runtime and
// the algorithm drivers program against this interface only, so an
// algorithm runs unmodified over either fabric.
//
// Contract (what netsim already provided, now named):
//
//   - Send(src, dst, payload, size) enqueues payload for PE dst. The
//     fabric delivers it on the destination's dispatcher goroutine via
//     the deliver callback supplied at construction; deliveries to any
//     one destination are serial, and two sends on the same (src, dst)
//     pair arrive in send order (per-pair FIFO).
//   - QueueLen reports how many accepted-but-undelivered payloads the
//     fabric currently holds (the ledger's NetQueue column).
//   - Close is idempotent; it delivers or accounts for everything the
//     fabric accepted, then returns. After Close (or concurrently with
//     it) Send returns SendClosed.
//
// Timers are not part of the seam. The one consumer of a timer facility,
// the relnet reliability layer, exists to survive the simulated network's
// injected faults and declares the extra method it needs itself; a real
// ordered transport needs no retransmit layer above it.
package fabric

// SendResult reports what the fabric decided to do with a payload.
// netsim aliases its SendResult to this type so the two packages'
// constants are interchangeable.
type SendResult uint8

const (
	// SendEnqueued: accepted; the payload will be delivered (or counted
	// as dropped-at-exit if the destination closes first).
	SendEnqueued SendResult = iota
	// SendDropped: a fault filter discarded the payload. The fabric
	// counted the drop; the caller may rely on a reliability layer to
	// recover it.
	SendDropped
	// SendClosed: the fabric (or that destination) is closed; the
	// payload was not accepted.
	SendClosed
)

// String returns the constant's name for test failures and logs.
func (r SendResult) String() string {
	switch r {
	case SendEnqueued:
		return "enqueued"
	case SendDropped:
		return "dropped"
	case SendClosed:
		return "closed"
	}
	return "invalid"
}

// Fabric is the transport surface. Implementations: *netsim.Network,
// *sockfab.Mesh, *sockfab.Node.
type Fabric interface {
	// Send enqueues payload from PE src to PE dst. size is the payload's
	// item count (batch length), used for accounting tiers; it does not
	// affect delivery.
	Send(src, dst int, payload any, size int) SendResult
	// QueueLen reports accepted-but-undelivered payloads.
	QueueLen() int
	// Close delivers or accounts for everything accepted, then returns.
	Close()
}

// Boundary is implemented by fabrics that move frames between OS
// processes. BoundaryCounts returns how many frames this process has
// written to (out) and decoded from (in) its transport boundary; the
// conservation ledger carries both so the per-process identity
//
//	Sent + BoundaryIn == Delivered + BoundaryOut + NetQueue + backlog + drops
//
// stays exact after the process split, and globally
// sum(out) == sum(in) once every process has drained.
type Boundary interface {
	BoundaryCounts() (out, in int64)
}
