package relnet

// Close-race regressions. Both bugs are races between a Send/deliver and
// the fabric closing, so they are pinned against scriptable Fabric
// stubs rather than a live netsim network: the stub freezes the exact
// interleaving (data path open, timer path closed) that a real close only
// hits in a narrow window.

import (
	"testing"
	"time"

	"acic/internal/fabric"
)

// stubMsg is one payload a stubFabric accepted.
type stubMsg struct {
	src, dst int
	payload  any
}

// stubFabric scripts its two paths independently: a fabric whose Send
// works while SendAfter reports closed is exactly the half-closed state a
// real close passes through (netsim marks lanes closed one by one).
type stubFabric struct {
	sendClosed  bool
	afterClosed bool
	sent        []stubMsg
	timers      []stubMsg
}

func (s *stubFabric) Send(src, dst int, payload any, size int) fabric.SendResult {
	if s.sendClosed {
		return fabric.SendClosed
	}
	s.sent = append(s.sent, stubMsg{src, dst, payload})
	return fabric.SendEnqueued
}

func (s *stubFabric) SendAfter(dst int, payload any, delay time.Duration) fabric.SendResult {
	if s.afterClosed {
		return fabric.SendClosed
	}
	s.timers = append(s.timers, stubMsg{dst, dst, payload})
	return fabric.SendEnqueued
}

func (s *stubFabric) QueueLen() int { return len(s.sent) + len(s.timers) }
func (s *stubFabric) Close()        { s.sendClosed, s.afterClosed = true, true }

// TestSendStrandedOnCloseMidSend pins the close-mid-send race: the data
// frame reaches the fabric, but the fabric closes before the retransmit
// timer arms. The frame sits in unacked with nothing to retry it — Send
// must say so (SendClosed) and count the frame as stranded, not return
// success and quietly clear timerArmed.
func TestSendStrandedOnCloseMidSend(t *testing.T) {
	fab := &stubFabric{afterClosed: true} // close lands between Send and SendAfter
	l := New(Config{}, 2, func(dst int, payload any) {})
	l.Bind(fab)

	if res := l.Send(0, 1, "first", 1); res != fabric.SendClosed {
		t.Errorf("Send with no timer protection returned %v, want SendClosed", res)
	}
	if got := l.Stats().Stranded; got != 1 {
		t.Errorf("Stranded = %d after one unprotected frame, want 1", got)
	}
	if len(fab.sent) != 1 {
		t.Fatalf("fabric saw %d data frames, want 1", len(fab.sent))
	}

	// A second send on the same stream tries to arm again (the first
	// failure reset timerArmed), fails again, and strands only the new
	// frame — the first is already counted.
	if res := l.Send(0, 1, "second", 1); res != fabric.SendClosed {
		t.Errorf("second Send returned %v, want SendClosed", res)
	}
	if got := l.Stats().Stranded; got != 2 {
		t.Errorf("Stranded = %d after two unprotected frames, want 2", got)
	}

	// An ack retiring the frames must not resurrect the counter.
	l.OnFabric(0, ackFrame{Src: 0, Dst: 1, Ack: 2})
	if got := l.Stats().Stranded; got != 2 {
		t.Errorf("Stranded = %d after ack, want 2 (count is monotone)", got)
	}
}

// TestRetransTimerStrandsOnClosedFabric pins the same race inside the
// retransmit path: a timer firing after the fabric closed must disarm and
// strand, not leave timerArmed latched true with no timer in flight
// (which would also block every future Send from arming one).
func TestRetransTimerStrandsOnClosedFabric(t *testing.T) {
	fab := &stubFabric{}
	l := New(Config{}, 2, func(dst int, payload any) {})
	l.Bind(fab)

	if res := l.Send(0, 1, "payload", 1); res != fabric.SendEnqueued {
		t.Fatalf("Send = %v, want SendEnqueued", res)
	}
	if len(fab.timers) != 1 {
		t.Fatalf("no retransmit timer armed")
	}

	// Fabric closes, then the armed timer fires (netsim's close drain
	// delivers pending timers at their deadlines).
	fab.Close()
	l.OnFabric(0, fab.timers[0].payload)

	if got := l.Stats().Stranded; got != 1 {
		t.Errorf("Stranded = %d after timer hit closed fabric, want 1", got)
	}
	if p := l.pair(0, 1); p.timerArmed {
		t.Error("timerArmed still latched true with no timer in flight")
	}
}

// TestStandaloneAckSurvivesHalfClosedFabric pins the onData leak: with the
// timer path closed but the data path open, an owed ack must go out
// inline instead of waiting forever for an ack timer that can never arm —
// otherwise the stream's standalone acks are permanently muted and the
// peer retransmits until it dies.
func TestStandaloneAckSurvivesHalfClosedFabric(t *testing.T) {
	fab := &stubFabric{afterClosed: true}
	var delivered []any
	l := New(Config{}, 2, func(dst int, payload any) { delivered = append(delivered, payload) })
	l.Bind(fab)

	l.OnFabric(1, dataFrame{Src: 0, Dst: 1, Seq: 1, Payload: "data", Size: 1})

	if len(delivered) != 1 || delivered[0] != "data" {
		t.Fatalf("delivered = %v, want [data]", delivered)
	}
	var acks []ackFrame
	for _, m := range fab.sent {
		if a, ok := m.payload.(ackFrame); ok {
			acks = append(acks, a)
		}
	}
	if len(acks) != 1 || acks[0] != (ackFrame{Src: 0, Dst: 1, Ack: 1}) {
		t.Fatalf("standalone acks sent = %v, want one cumulative ack of seq 1", acks)
	}
	if got := l.Stats().AcksSent; got != 1 {
		t.Errorf("AcksSent = %d, want 1", got)
	}
	if p := l.pair(0, 1); p.ackOwed || p.ackPending {
		t.Errorf("receiver state leaked: ackOwed=%v ackPending=%v, want false/false", p.ackOwed, p.ackPending)
	}

	// A retransmitted duplicate still earns its (inline) ack: the sender
	// only retransmits because it has not seen ours.
	l.OnFabric(1, dataFrame{Src: 0, Dst: 1, Seq: 1, Payload: "data", Size: 1})
	if got := l.Stats().AcksSent; got != 2 {
		t.Errorf("AcksSent = %d after duplicate, want 2", got)
	}
	if got := l.Stats().DupDiscarded; got != 1 {
		t.Errorf("DupDiscarded = %d, want 1", got)
	}
	if len(delivered) != 1 {
		t.Errorf("duplicate reached the application: delivered = %v", delivered)
	}
}
