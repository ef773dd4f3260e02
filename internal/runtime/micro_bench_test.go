package runtime

import "testing"

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
