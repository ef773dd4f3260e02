package runtime

import (
	"sync"
	"sync/atomic"

	"acic/internal/cacheline"
)

// mailbox is an unbounded MPSC queue feeding one PE's scheduler loop.
//
// Unboundedness matters: the netsim dispatcher goroutine delivers messages
// for every PE, so a delivery must never block on a full buffer — one slow
// PE would head-of-line-block the whole simulated network. Memory is bounded
// in practice by the quiescence invariant (created == processed drains all
// queues).
//
// The whole protocol is "append under the mutex, swap once, pop privately":
// producers append envelopes to prod under the mutex; the consumer, when its
// private cons slice runs dry, swaps the whole prod slice in under a single
// lock acquisition and then pops lock-free. The two backing arrays ping-pong
// between the roles so steady-state traffic allocates nothing. One queue
// appended in arrival order is what gives per-(src,dst) FIFO.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	prod   []envelope // producer side, guarded by mu
	closed bool

	// Consumer-private state: touched only by the single consumer
	// goroutine, never under mu.
	cons []envelope
	head int

	// queued counts prod plus un-popped items in cons, so len() (feeding
	// the conservation audit's MailboxBacklog column) is exact from any
	// goroutine without touching consumer-private state.
	queued atomic.Int64

	// dropped counts pushes that arrived after close — in-flight messages
	// discarded during shutdown. The conservation audit needs them: they
	// were counted in sent but will never be counted in delivered.
	dropped atomic.Int64
}

// mailboxInitCap is the starting capacity of each of a mailbox's two
// backing arrays. A mailbox lives for one run, so one that grew from empty
// would pay an allocation per doubling in every run, more the deeper that
// run's traffic queued up.
const mailboxInitCap = 64

// newMailbox returns an empty mailbox on cache lines of its own: its
// producers write it on every push, so it must not share a line with
// another PE's mailbox or PE (allocated back to back, they would).
func newMailbox() *mailbox {
	m := cacheline.New[mailbox]()
	m.prod, m.cons = make([]envelope, 0, mailboxInitCap), make([]envelope, 0, mailboxInitCap)
	m.cond = sync.NewCond(&m.mu)
	return m
}

// push appends an item and wakes the consumer. Push on a closed mailbox is
// dropped (the PE has already exited). Safe from any goroutine.
//
//acic:noalloc
func (m *mailbox) push(env envelope) {
	m.mu.Lock()
	if !m.closed {
		m.prod = append(m.prod, env)
		m.queued.Add(1)
		m.cond.Signal()
	} else {
		m.dropped.Add(1)
	}
	m.mu.Unlock()
}

// tryPop removes the oldest item without blocking. ok is false if empty.
// Must be called from the consumer goroutine only.
//
// An empty mailbox is answered from queued, without the producers' mutex:
// the scheduler polls before every idle step, and most polls find nothing.
// With cons drained, queued is the length of prod, so a zero misses at
// most a push still inside its critical section, which the blocking pop
// finds under the mutex.
func (m *mailbox) tryPop() (envelope, bool) {
	if m.head < len(m.cons) {
		return m.popCons(), true
	}
	if m.queued.Load() == 0 {
		return envelope{}, false
	}
	m.mu.Lock()
	if len(m.prod) == 0 {
		m.mu.Unlock()
		return envelope{}, false
	}
	m.swapLocked()
	m.mu.Unlock()
	return m.popCons(), true
}

// pop blocks until an item is available or the mailbox is closed.
// ok is false only when closed and drained. Consumer goroutine only.
func (m *mailbox) pop() (envelope, bool) {
	if m.head < len(m.cons) {
		return m.popCons(), true
	}
	m.mu.Lock()
	for len(m.prod) == 0 {
		if m.closed {
			m.mu.Unlock()
			return envelope{}, false
		}
		m.cond.Wait()
	}
	m.swapLocked()
	m.mu.Unlock()
	return m.popCons(), true
}

// swapLocked drains the producer slice into the consumer's private slice —
// the whole batch under one lock acquisition. The consumer's exhausted
// backing array (still at full capacity) becomes the new producer slice,
// so the two arrays alternate roles instead of being reallocated.
func (m *mailbox) swapLocked() {
	m.prod, m.cons = m.cons[:0], m.prod
	m.head = 0
}

// popCons returns the next item from the consumer-private slice, which is
// known to be non-empty.
func (m *mailbox) popCons() envelope {
	env := m.cons[m.head]
	m.cons[m.head] = envelope{} // release payload for GC
	m.head++
	if m.head == len(m.cons) {
		m.cons = m.cons[:0]
		m.head = 0
	}
	m.queued.Add(-1)
	return env
}

// len reports the number of queued items. Safe from any goroutine.
func (m *mailbox) len() int {
	return int(m.queued.Load())
}

// close wakes the consumer and makes subsequent pops return ok=false once
// drained.
func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()
}
