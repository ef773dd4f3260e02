package sockfab

import (
	"sync"
	"testing"
	"time"

	"acic/internal/fabric"
	"acic/internal/wire"
)

// msg is the payload type that crosses the test meshes.
type msg struct {
	n int64
}

func testCodec() *wire.Codec {
	c := wire.NewCodec()
	c.Register(0x80, msg{},
		func(c *wire.Codec, buf []byte, v any) ([]byte, error) {
			return wire.AppendI64(buf, v.(msg).n), nil
		},
		func(c *wire.Codec, r *wire.Reader) (any, error) {
			return msg{n: r.I64()}, nil
		},
		nil)
	return c
}

// sink collects deliveries thread-safely.
type sink struct {
	mu   sync.Mutex
	got  []delivery
	wake chan struct{}
}

func newSink() *sink { return &sink{wake: make(chan struct{}, 1)} }

func (s *sink) deliver(dst int, payload any) {
	s.mu.Lock()
	s.got = append(s.got, delivery{dst: dst, payload: payload})
	s.mu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

func (s *sink) waitLen(t *testing.T, n int) []delivery {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		s.mu.Lock()
		if len(s.got) >= n {
			out := append([]delivery(nil), s.got...)
			s.mu.Unlock()
			return out
		}
		s.mu.Unlock()
		select {
		case <-s.wake:
		case <-deadline:
			s.mu.Lock()
			got := len(s.got)
			s.mu.Unlock()
			t.Fatalf("timed out with %d of %d deliveries", got, n)
		}
	}
}

// twoProcMesh is a 2-proc, 2-PE mesh: PE i owned by proc i.
func twoProcMesh(t *testing.T, deliver func(dst int, payload any)) *Mesh {
	t.Helper()
	m, err := NewMesh(MeshConfig{
		NumProcs: 2, NumPEs: 2,
		Owner: func(pe int) int { return pe },
		Codec: testCodec(),
	}, deliver)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMeshDeliversLocalAndRemote(t *testing.T) {
	s := newSink()
	m := twoProcMesh(t, s.deliver)
	defer m.Close()

	if res := m.Send(0, 0, msg{n: 10}, 1); res != fabric.SendEnqueued {
		t.Fatalf("local send: %v", res)
	}
	if res := m.Send(0, 1, msg{n: 20}, 1); res != fabric.SendEnqueued {
		t.Fatalf("remote send: %v", res)
	}
	got := s.waitLen(t, 2)
	byDst := map[int]int64{}
	for _, d := range got {
		byDst[d.dst] = d.payload.(msg).n
	}
	if byDst[0] != 10 || byDst[1] != 20 {
		t.Fatalf("deliveries: %+v", got)
	}
}

func TestMeshPreservesPairOrder(t *testing.T) {
	s := newSink()
	m := twoProcMesh(t, s.deliver)
	defer m.Close()

	const N = 500
	for i := 0; i < N; i++ {
		if res := m.Send(0, 1, msg{n: int64(i)}, 1); res != fabric.SendEnqueued {
			t.Fatalf("send %d: %v", i, res)
		}
	}
	got := s.waitLen(t, N)
	for i, d := range got {
		if d.dst != 1 || d.payload.(msg).n != int64(i) {
			t.Fatalf("delivery %d out of order: %+v", i, d)
		}
	}
}

func TestMeshCloseRejectsSends(t *testing.T) {
	s := newSink()
	m := twoProcMesh(t, s.deliver)
	m.Close()
	if res := m.Send(0, 0, msg{}, 1); res != fabric.SendClosed {
		t.Errorf("local Send after close = %v, want SendClosed", res)
	}
	if res := m.Send(0, 1, msg{}, 1); res != fabric.SendClosed {
		t.Errorf("remote Send after close = %v, want SendClosed", res)
	}
	if q := m.QueueLen(); q != 0 {
		t.Errorf("QueueLen after close = %d, want 0", q)
	}
}

func TestMeshBoundaryConservation(t *testing.T) {
	const procs, pesPerProc, msgs = 4, 2, 400
	s := newSink()
	numPEs := procs * pesPerProc
	m, err := NewMesh(MeshConfig{
		NumProcs: procs, NumPEs: numPEs,
		Owner: func(pe int) int { return pe / pesPerProc },
		Codec: testCodec(),
	}, s.deliver)
	if err != nil {
		t.Fatal(err)
	}

	sent := 0
	for i := 0; i < msgs; i++ {
		src := (i * 3) % numPEs
		dst := (i*5 + 1) % numPEs
		if res := m.Send(src, dst, msg{n: int64(i)}, 1); res != fabric.SendEnqueued {
			t.Fatalf("send %d: %v", i, res)
		}
		sent++
	}
	s.waitLen(t, sent)
	m.Close()

	out, in := m.BoundaryCounts()
	if out != in {
		t.Errorf("boundary counts: out %d != in %d", out, in)
	}
	if out == 0 {
		t.Error("no message crossed a process boundary; the spread should hit every pair")
	}
	if q := m.QueueLen(); q != 0 {
		t.Errorf("QueueLen after close = %d, want 0", q)
	}
}

// TestNodesCloseIndependently wires two Nodes by hand, the way two worker
// OS processes do, and closes each from its own goroutine: Node.Close runs
// both phases itself, so it must return on both sides (each drains to the
// EOF the other's half-close sends) with every accepted frame delivered.
func TestNodesCloseIndependently(t *testing.T) {
	const msgs = 200
	s := newSink()
	nodes := make([]*Node, 2)
	addrs := make([]string, 2)
	for p := range nodes {
		n, err := NewNode(NodeConfig{
			Proc: p, NumProcs: 2, NumPEs: 2,
			Owner: func(pe int) int { return pe },
			Codec: testCodec(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		nodes[p], addrs[p] = n, n.Addr()
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for p, n := range nodes {
		wg.Add(1)
		go func(p int, n *Node) {
			defer wg.Done()
			errs[p] = n.Connect(addrs)
		}(p, n)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("node %d connect: %v", p, err)
		}
	}
	for _, n := range nodes {
		n.Start(s.deliver)
	}
	for i := 0; i < msgs; i++ {
		src := i % 2
		if res := nodes[src].Send(src, 1-src, msg{n: int64(i)}, 1); res != fabric.SendEnqueued {
			t.Fatalf("send %d: %v", i, res)
		}
	}
	for _, n := range nodes {
		wg.Add(1)
		go func(n *Node) {
			defer wg.Done()
			n.Close()
			n.Close() // idempotent
		}(n)
	}
	wg.Wait()
	if got := s.waitLen(t, msgs); len(got) != msgs {
		t.Fatalf("delivered %d of %d", len(got), msgs)
	}
	var out, in int64
	for p, n := range nodes {
		o, i := n.BoundaryCounts()
		out, in = out+o, in+i
		if q := n.QueueLen(); q != 0 {
			t.Errorf("node %d QueueLen after close = %d, want 0", p, q)
		}
		if res := n.Send(p, 1-p, msg{}, 1); res != fabric.SendClosed {
			t.Errorf("node %d Send after close = %v, want SendClosed", p, res)
		}
	}
	if out != msgs || in != msgs {
		t.Errorf("boundary out %d in %d, want %d each", out, in, msgs)
	}
}
