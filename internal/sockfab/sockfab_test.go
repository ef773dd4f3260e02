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

func TestMeshTimerFires(t *testing.T) {
	s := newSink()
	m := twoProcMesh(t, s.deliver)
	defer m.Close()

	if res := m.SendAfter(1, msg{n: 7}, time.Millisecond); res != fabric.SendEnqueued {
		t.Fatalf("SendAfter: %v", res)
	}
	got := s.waitLen(t, 1)
	if got[0].dst != 1 || got[0].payload.(msg).n != 7 {
		t.Fatalf("timer delivery: %+v", got[0])
	}
}

func TestMeshCloseFiresPendingTimersAndRejectsSends(t *testing.T) {
	s := newSink()
	m := twoProcMesh(t, s.deliver)

	// A timer far in the future must not stall Close; it fires immediately
	// during the drain instead.
	if res := m.SendAfter(0, msg{n: 99}, time.Hour); res != fabric.SendEnqueued {
		t.Fatalf("SendAfter: %v", res)
	}
	m.Close()
	got := s.waitLen(t, 1)
	if got[0].payload.(msg).n != 99 {
		t.Fatalf("pending timer not drained: %+v", got)
	}
	if res := m.Send(0, 1, msg{}, 1); res != fabric.SendClosed {
		t.Errorf("Send after close = %v, want SendClosed", res)
	}
	if res := m.SendAfter(0, msg{}, time.Millisecond); res != fabric.SendClosed {
		t.Errorf("SendAfter after close = %v, want SendClosed", res)
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
