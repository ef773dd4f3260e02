package runtime

import (
	"testing"
	"time"

	"acic/internal/netsim"
)

// BenchmarkMailbox measures the cost of moving one envelope through the
// MPSC mailbox — the per-message floor every delivered message pays. The
// pingpong case alternates push/pop (consumer keeps up); the burst case
// pushes 64 then drains 64, the arrival pattern a tram flush produces.
func BenchmarkMailbox(b *testing.B) {
	b.Run("pingpong", func(b *testing.B) {
		m := newMailbox()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.push(envelope{kind: kindApp, epoch: int64(i)})
			if _, ok := m.tryPop(); !ok {
				b.Fatal("mailbox unexpectedly empty")
			}
		}
	})
	b.Run("burst64", func(b *testing.B) {
		m := newMailbox()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += 64 {
			for j := 0; j < 64; j++ {
				m.push(envelope{kind: kindApp, epoch: int64(j)})
			}
			for j := 0; j < 64; j++ {
				if _, ok := m.tryPop(); !ok {
					b.Fatal("mailbox unexpectedly empty")
				}
			}
		}
	})
}

// signalApp acknowledges every delivery on got.
type signalApp struct {
	NopControl
	got chan struct{}
}

func (h *signalApp) Deliver(pe *PE, msg any) { h.got <- struct{}{} }
func (h *signalApp) Idle(pe *PE) bool        { return false }

// BenchmarkRuntimeFabricSend measures one runtime send that leaves the
// mailbox bypass: across the simulated network at a non-zero latency,
// delivered into the destination's mailbox and dispatched to its handler.
// The envelope rides a pooled pointer through the fabric seam, so the
// round must allocate nothing.
func BenchmarkRuntimeFabricSend(b *testing.B) {
	rt, err := New(Config{
		Topo:    netsim.SingleNode(2),
		Latency: netsim.LatencyModel{IntraProcess: time.Microsecond},
	})
	if err != nil {
		b.Fatal(err)
	}
	got := make(chan struct{}, 1)
	rt.Start(func(pe *PE) Handler { return &signalApp{got: got} })
	var msg any = struct{}{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.send(0, 1, envelope{kind: kindApp, payload: msg}, 1)
		<-got
	}
	b.StopTimer()
	rt.RequestExit()
	rt.Wait()
}
