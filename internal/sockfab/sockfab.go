// Package sockfab is the real transport: a fabric.Fabric that carries
// envelopes between PEs hosted in different OS processes over TCP.
//
// Each process runs one Node. A Node owns a contiguous proc's worth of
// PEs (NodeConfig.Owner maps PE index to proc), a listener, and exactly
// one TCP connection per peer process — the lower-numbered proc dials
// the higher, so an N-proc mesh settles into N*(N-1)/2 connections with
// no glare. On the wire every message is a 4-byte destination-PE prefix
// followed by one wire-codec frame; the codec (and the pool hooks hung
// on it) is supplied by the caller, so sockfab itself knows nothing
// about envelope or batch layouts.
//
// Delivery preserves the contract documented in package fabric: a single
// dispatcher goroutine per Node performs every deliver callback, so
// delivery into a given destination is serial, and each (src, dst) pair's
// messages arrive in send order (writer queues, TCP, and the dispatcher
// FIFO are all order-preserving). There is no timer facility: TCP is
// ordered and reliable, so nothing above this fabric retransmits.
//
// A message crosses without allocating. Each writer goroutine drains its
// whole queue at once, encodes every frame of it into one buffer it owns
// for its lifetime, and writes that buffer with one syscall (cut at
// writeCut bytes). Each reader reads through one buffered reader and
// decodes into one frame buffer it also owns. The writer queues and the
// dispatcher FIFO ping-pong between two backing arrays, as the runtime's
// mailbox does, so a drain never makes the next enqueue grow a slice from
// nothing.
//
// Close is two-phase so a full mesh can shut down without deadlock:
// beginClose stops accepting sends, flushes the writer queues, and
// half-closes every connection (CloseWrite); finishClose drains the
// readers to EOF — which arrives once the peer has flushed its side —
// and joins the dispatcher. Node.Close runs both phases; Mesh.Close runs
// beginClose on every node before finishClose on any, which is what
// breaks the cycle when all nodes live in one process.
package sockfab

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"acic/internal/fabric"
	"acic/internal/wire"
)

// helloMagic opens every dialed connection, followed by the dialer's
// proc index — the accepting side cannot otherwise know who connected.
const helloMagic uint32 = 0xAC1CFAB0

// connectTimeout bounds Listen/Connect handshaking so a lost worker
// turns into an error, not a hang.
const connectTimeout = 30 * time.Second

// writeCut is the size at which a writer stops appending frames to its
// buffer and writes it out. A drained queue of small frames goes out in
// one write; a backlog of large batches goes out in pieces of about this
// size, so the buffer stays bounded by writeCut plus one frame.
const writeCut = 64 << 10

// readBuf is the size of each connection's buffered reader: one read
// syscall brings in every frame a peer's coalesced write put on the wire,
// up to this many bytes.
const readBuf = 64 << 10

// NodeConfig wires a Node into a topology.
type NodeConfig struct {
	Proc     int              // this process's proc index
	NumProcs int              // total processes in the mesh
	NumPEs   int              // total PEs across all processes
	Owner    func(pe int) int // PE index -> owning proc
	Codec    *wire.Codec      // frame codec; must cover every payload that crosses
}

// delivery is one deliverable message waiting on the dispatcher.
type delivery struct {
	dst     int
	payload any
}

// peer is one TCP connection to another proc, with its writer queue.
type peer struct {
	conn net.Conn

	mu     sync.Mutex
	cond   *sync.Cond
	q      []delivery
	closed bool // no new enqueues; writer flushes and half-closes

	writerDone chan struct{}
}

// Node is the per-process endpoint. It satisfies fabric.Fabric and
// fabric.Boundary.
type Node struct {
	cfg   NodeConfig
	ln    net.Listener
	peers []*peer // indexed by proc; nil at self and before Connect

	mu       sync.Mutex
	cond     *sync.Cond // signaled when ready grows or dispStop flips
	ready    []delivery
	closing  bool // Send rejects; set by beginClose
	dispStop bool

	dispDone chan struct{}

	deliver func(dst int, payload any)

	queued      atomic.Int64
	boundaryOut atomic.Int64
	boundaryIn  atomic.Int64

	readerWG  sync.WaitGroup
	closeOnce sync.Once
}

var (
	_ fabric.Fabric   = (*Node)(nil)
	_ fabric.Boundary = (*Node)(nil)
)

// NewNode validates cfg and returns an unconnected Node. The sequence is
// Listen, exchange addresses out of band, Connect, Start.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.NumProcs <= 0 || cfg.Proc < 0 || cfg.Proc >= cfg.NumProcs {
		return nil, fmt.Errorf("sockfab: proc %d outside [0, %d)", cfg.Proc, cfg.NumProcs)
	}
	if cfg.NumPEs <= 0 || cfg.Owner == nil || cfg.Codec == nil {
		return nil, fmt.Errorf("sockfab: NumPEs, Owner and Codec are required")
	}
	n := &Node{
		cfg:      cfg,
		peers:    make([]*peer, cfg.NumProcs),
		dispDone: make(chan struct{}),
	}
	n.cond = sync.NewCond(&n.mu)
	return n, nil
}

// Listen binds the node's listener and returns the address peers should
// dial. Pass "127.0.0.1:0" for an ephemeral loopback port.
func (n *Node) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("sockfab: listen: %w", err)
	}
	n.ln = ln
	return ln.Addr().String(), nil
}

// Addr returns the bound listener address; empty before Listen.
func (n *Node) Addr() string {
	if n.ln == nil {
		return ""
	}
	return n.ln.Addr().String()
}

// Connect establishes the full peer mesh. addrs is indexed by proc; only
// the entries for higher-numbered procs are dialed (this node accepts
// connections from lower-numbered ones), so lower entries may be empty.
// Every listener must be up before any node Connects.
func (n *Node) Connect(addrs []string) error {
	if len(addrs) != n.cfg.NumProcs {
		return fmt.Errorf("sockfab: got %d addrs for %d procs", len(addrs), n.cfg.NumProcs)
	}
	type res struct {
		proc int
		conn net.Conn
		err  error
	}
	want := n.cfg.NumProcs - 1
	ch := make(chan res, want)
	if n.cfg.Proc > 0 {
		if tl, ok := n.ln.(*net.TCPListener); ok {
			tl.SetDeadline(time.Now().Add(connectTimeout))
		}
		go func() {
			for i := 0; i < n.cfg.Proc; i++ {
				conn, err := n.ln.Accept()
				if err != nil {
					ch <- res{err: fmt.Errorf("sockfab: accept: %w", err)}
					continue
				}
				proc, err := readHello(conn)
				ch <- res{proc: proc, conn: conn, err: err}
			}
		}()
	}
	for p := n.cfg.Proc + 1; p < n.cfg.NumProcs; p++ {
		go func(p int) {
			conn, err := net.DialTimeout("tcp", addrs[p], connectTimeout)
			if err == nil {
				err = writeHello(conn, n.cfg.Proc)
			}
			ch <- res{proc: p, conn: conn, err: err}
		}(p)
	}
	var firstErr error
	for i := 0; i < want; i++ {
		r := <-ch
		if r.err != nil {
			if firstErr == nil {
				firstErr = r.err
			}
			continue
		}
		if r.proc < 0 || r.proc >= n.cfg.NumProcs || r.proc == n.cfg.Proc || n.peers[r.proc] != nil {
			r.conn.Close()
			if firstErr == nil {
				firstErr = fmt.Errorf("sockfab: bad or duplicate hello from proc %d", r.proc)
			}
			continue
		}
		p := &peer{conn: r.conn, writerDone: make(chan struct{})}
		p.cond = sync.NewCond(&p.mu)
		n.peers[r.proc] = p
	}
	if tl, ok := n.ln.(*net.TCPListener); ok {
		tl.SetDeadline(time.Time{})
	}
	return firstErr
}

func writeHello(conn net.Conn, proc int) error {
	var b [8]byte
	binary.BigEndian.PutUint32(b[:4], helloMagic)
	binary.BigEndian.PutUint32(b[4:], uint32(proc))
	conn.SetWriteDeadline(time.Now().Add(connectTimeout))
	_, err := conn.Write(b[:])
	conn.SetWriteDeadline(time.Time{})
	if err != nil {
		return fmt.Errorf("sockfab: hello: %w", err)
	}
	return nil
}

func readHello(conn net.Conn) (int, error) {
	var b [8]byte
	conn.SetReadDeadline(time.Now().Add(connectTimeout))
	_, err := io.ReadFull(conn, b[:])
	conn.SetReadDeadline(time.Time{})
	if err != nil {
		return 0, fmt.Errorf("sockfab: hello: %w", err)
	}
	if binary.BigEndian.Uint32(b[:4]) != helloMagic {
		return 0, fmt.Errorf("sockfab: hello: bad magic %#x", binary.BigEndian.Uint32(b[:4]))
	}
	return int(binary.BigEndian.Uint32(b[4:])), nil
}

// Start installs the delivery callback and launches the node's
// goroutines: one writer and one reader per peer connection, and the
// dispatcher. Call after Connect, before any Send.
func (n *Node) Start(deliver func(dst int, payload any)) {
	n.deliver = deliver
	for _, p := range n.peers {
		if p == nil {
			continue
		}
		go n.writerLoop(p)
		n.readerWG.Add(1)
		go n.readerLoop(p)
	}
	go n.dispatchLoop()
}

// Send routes payload to dst: onto the local dispatcher FIFO when this
// node hosts dst, onto the owning peer's writer queue otherwise. size is
// accepted for fabric.Fabric compatibility; the wire cost is the encoded
// frame, not the simulated size.
func (n *Node) Send(src, dst int, payload any, size int) fabric.SendResult {
	if dst < 0 || dst >= n.cfg.NumPEs {
		panic(fmt.Sprintf("sockfab: send to PE %d outside [0, %d)", dst, n.cfg.NumPEs))
	}
	dproc := n.cfg.Owner(dst)
	if dproc == n.cfg.Proc {
		n.mu.Lock()
		if n.closing {
			n.mu.Unlock()
			return fabric.SendClosed
		}
		n.queued.Add(1)
		n.ready = append(n.ready, delivery{dst: dst, payload: payload})
		n.cond.Signal()
		n.mu.Unlock()
		return fabric.SendEnqueued
	}
	p := n.peers[dproc]
	if p == nil {
		panic(fmt.Sprintf("sockfab: no connection to proc %d (PE %d)", dproc, dst))
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return fabric.SendClosed
	}
	n.queued.Add(1)
	p.q = append(p.q, delivery{dst: dst, payload: payload})
	p.cond.Signal()
	p.mu.Unlock()
	return fabric.SendEnqueued
}

// QueueLen counts messages accepted but not yet delivered locally or
// written to a socket: dispatcher FIFO and writer queues.
func (n *Node) QueueLen() int { return int(n.queued.Load()) }

// BoundaryCounts returns how many messages left this process over TCP
// and how many arrived. Exact once the node is closed.
func (n *Node) BoundaryCounts() (out, in int64) {
	return n.boundaryOut.Load(), n.boundaryIn.Load()
}

// Close runs both shutdown phases: stop accepting sends, flush and
// half-close every connection, drain inbound to EOF, and join the
// dispatcher. It is safe to call more than once. In a single-process mesh
// use Mesh.Close instead: closing one node at a time would deadlock on
// the peer drains.
func (n *Node) Close() {
	n.closeOnce.Do(func() {
		n.beginClose()
		n.finishClose()
	})
}

// beginClose makes the node quiescent on the send side: new sends get
// SendClosed, writer queues flush, and every connection's write side
// closes so peers' readers see EOF once the last frame lands.
func (n *Node) beginClose() {
	n.mu.Lock()
	n.closing = true
	n.mu.Unlock()
	for _, p := range n.peers {
		if p == nil {
			continue
		}
		p.mu.Lock()
		p.closed = true
		p.cond.Signal()
		p.mu.Unlock()
	}
}

// finishClose joins everything beginClose set in motion. Blocks until
// peers half-close their sides too.
func (n *Node) finishClose() {
	for _, p := range n.peers {
		if p != nil {
			<-p.writerDone
		}
	}
	n.readerWG.Wait()
	n.mu.Lock()
	n.dispStop = true
	n.cond.Signal()
	n.mu.Unlock()
	<-n.dispDone
	if n.ln != nil {
		n.ln.Close()
	}
	for _, p := range n.peers {
		if p != nil {
			p.conn.Close()
		}
	}
}

// writerLoop drains one peer's queue. Each drain encodes the 4-byte
// destination prefix plus one wire frame per message into the writer's
// buffer and writes it once writeCut is reached and at the end of the
// drain; the drained array then becomes the queue's next backing array.
// An unencodable payload or a failed write is a wiring bug or a dead
// peer — both panic rather than silently losing a message (which would
// resurface as a quiescence hang).
func (n *Node) writerLoop(p *peer) {
	defer close(p.writerDone)
	var buf []byte
	var spare []delivery
	flush := func(frames int) {
		_, err := p.conn.Write(buf)
		buf = buf[:0]
		n.queued.Add(-int64(frames))
		if err != nil {
			panic(fmt.Sprintf("sockfab: write to peer failed: %v", err))
		}
		n.boundaryOut.Add(int64(frames))
	}
	for {
		p.mu.Lock()
		for len(p.q) == 0 && !p.closed {
			p.cond.Wait()
		}
		batch := p.q
		p.q = spare
		done := p.closed && len(batch) == 0
		p.mu.Unlock()
		if done {
			break
		}
		frames := 0
		for _, d := range batch {
			buf = wire.AppendU32(buf, uint32(d.dst))
			var err error
			buf, err = n.cfg.Codec.EncodeFrame(buf, d.payload)
			if err != nil {
				panic(fmt.Sprintf("sockfab: payload %T for PE %d cannot cross the process boundary: %v", d.payload, d.dst, err))
			}
			if frames++; len(buf) >= writeCut {
				flush(frames)
				frames = 0
			}
		}
		if frames > 0 {
			flush(frames)
		}
		clear(batch)
		spare = batch[:0]
	}
	if tc, ok := p.conn.(*net.TCPConn); ok {
		tc.CloseWrite()
	}
}

// readerLoop decodes inbound frames from one connection and hands them
// to the dispatcher. It exits on the peer's clean EOF; anything else —
// mid-frame truncation, a frame that fails decode, a destination this
// node does not host — is a protocol violation and panics, because a
// silently dropped message becomes an undebuggable hang downstream.
func (n *Node) readerLoop(p *peer) {
	defer n.readerWG.Done()
	r := bufio.NewReaderSize(p.conn, readBuf)
	var frame []byte
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err == io.EOF {
				return
			}
			panic(fmt.Sprintf("sockfab: read: %v", err))
		}
		dst := int(binary.BigEndian.Uint32(hdr[:]))
		var err error
		frame, err = wire.ReadFrame(r, frame)
		if err != nil {
			panic(fmt.Sprintf("sockfab: frame for PE %d: %v", dst, err))
		}
		v, _, err := n.cfg.Codec.DecodeFrame(frame)
		if err != nil {
			panic(fmt.Sprintf("sockfab: decode frame for PE %d: %v", dst, err))
		}
		if dst < 0 || dst >= n.cfg.NumPEs || n.cfg.Owner(dst) != n.cfg.Proc {
			panic(fmt.Sprintf("sockfab: misrouted frame for PE %d at proc %d", dst, n.cfg.Proc))
		}
		n.boundaryIn.Add(1)
		n.queued.Add(1)
		n.mu.Lock()
		n.ready = append(n.ready, delivery{dst: dst, payload: v})
		n.cond.Signal()
		n.mu.Unlock()
	}
}

// dispatchLoop is the node's single delivery thread: it drains the ready
// FIFO through the deliver callback, handing the drained array back as
// the FIFO's next one. It exits when finishClose has guaranteed no
// producer remains and the FIFO is empty.
func (n *Node) dispatchLoop() {
	defer close(n.dispDone)
	var spare []delivery
	for {
		n.mu.Lock()
		for len(n.ready) == 0 && !n.dispStop {
			n.cond.Wait()
		}
		batch := n.ready
		n.ready = spare
		stop := n.dispStop && len(batch) == 0
		n.mu.Unlock()
		if stop {
			return
		}
		for _, d := range batch {
			n.deliver(d.dst, d.payload)
			n.queued.Add(-1)
		}
		clear(batch)
		spare = batch[:0]
	}
}
