package runtime

// Fault-injection tests: the runtime (like Charm++) assumes reliable
// message delivery. These tests document what that assumption buys — a
// lost message leaves the sent/delivered counters permanently unequal, so
// quiescence detection can never fire a false positive: message loss
// manifests as a visible hang, never as silent wrong results.

import (
	"sync/atomic"
	"testing"
	"time"

	"acic/internal/netsim"
	"acic/internal/relnet"
)

// relayApp forwards a counter around a two-PE ring n times, then idles.
type relayApp struct {
	NopControl
	hops     *atomic.Int64
	quiesced *atomic.Int64
}

// relayHopSize is the size every hop travels at. relnet's standalone acks
// travel at size 1, so a fault filter — which sees only (src, dst, size) —
// can pick out a data frame whatever the timing of the acks around it.
const relayHopSize = 2

func (h *relayApp) Deliver(pe *PE, msg any) {
	if _, ok := msg.(Quiescence); ok {
		h.quiesced.Add(1)
		pe.Exit()
		return
	}
	n := msg.(int)
	h.hops.Add(1)
	if n > 1 {
		pe.Send(1-pe.Index(), n-1, relayHopSize)
	}
}

func (h *relayApp) Idle(pe *PE) bool { return false }

func TestDroppedMessageBlocksQuiescence(t *testing.T) {
	var hops, quiesced atomic.Int64
	cfg := Config{
		Topo:           netsim.SingleNode(2),
		Latency:        netsim.LatencyModel{IntraProcess: 100 * time.Microsecond},
		QuiescencePoll: 200 * time.Microsecond,
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Drop the 5th network message.
	var count atomic.Int64
	rt.Network().SetDropFilter(func(src, dst, size int) bool {
		return count.Add(1) == 5
	})
	rt.Start(func(pe *PE) Handler { return &relayApp{hops: &hops, quiesced: &quiesced} })
	rt.send(0, 0, envelope{kind: kindApp, payload: 20}, 1)

	// The chain must stall at the dropped hop and quiescence must never
	// fire: sent > delivered forever.
	time.Sleep(50 * time.Millisecond)
	if got := quiesced.Load(); got != 0 {
		t.Errorf("quiescence fired %d times despite a lost message", got)
	}
	if got := hops.Load(); got >= 20 {
		t.Errorf("chain completed (%d hops) despite the drop", got)
	}
	if d := rt.NetworkStats().Dropped; d != 1 {
		t.Errorf("Dropped = %d, want 1", d)
	}
	rt.RequestExit()
	rt.Wait()
}

// TestDroppedMessageRecoversWithReliability is the mirror image of
// TestDroppedMessageBlocksQuiescence: the same drop that hangs a bare
// runtime is retransmitted by the relnet layer, the chain completes, the
// runtime-level detector fires, and the extended ledger balances with the
// retransmit column non-zero.
func TestDroppedMessageRecoversWithReliability(t *testing.T) {
	var hops, quiesced atomic.Int64
	cfg := Config{
		Topo:           netsim.SingleNode(2),
		Latency:        netsim.LatencyModel{IntraProcess: 100 * time.Microsecond},
		QuiescencePoll: 200 * time.Microsecond,
		Reliability:    &relnet.Config{RTO: 2 * time.Millisecond, AckDelay: 500 * time.Microsecond},
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Drop the 5th hop (acks excluded so the recovery exercises exactly
	// one retransmission; a dropped ack is healed by the next cumulative
	// one and retransmits nothing).
	var count atomic.Int64
	rt.Network().SetDropFilter(func(src, dst, size int) bool {
		return size == relayHopSize && count.Add(1) == 5
	})
	rt.Start(func(pe *PE) Handler { return &relayApp{hops: &hops, quiesced: &quiesced} })
	rt.send(0, 0, envelope{kind: kindApp, payload: 20}, 1)
	waitOrFail(t, rt, 10*time.Second)

	if got := hops.Load(); got != 20 {
		t.Errorf("hops = %d, want 20 (retransmit must heal the chain)", got)
	}
	if got := quiesced.Load(); got != 1 {
		t.Errorf("quiescence fired %d times, want 1", got)
	}
	a := rt.Audit()
	if a.Retransmits == 0 {
		t.Error("Audit.Retransmits = 0, want > 0: the drop forced the timeout path")
	}
	if a.NetDropped == 0 {
		t.Error("Audit.NetDropped = 0, want > 0")
	}
	if u := a.Unaccounted(); u != 0 {
		t.Errorf("Unaccounted = %d, want 0; ledger: %+v", u, a)
	}
	if a.NetQueue != 0 {
		t.Errorf("NetQueue = %d after Wait, want 0", a.NetQueue)
	}
}

// TestDuplicateDeliveryLedgerBalancedWithoutReliability documents today's
// at-most-once runtime under fabric duplication: the ghost copy is
// dispatched twice (Delivered = Sent + NetDuplicated) and the extended
// ledger still balances — duplication is visible in its own column, never
// smeared into Unaccounted.
func TestDuplicateDeliveryLedgerBalancedWithoutReliability(t *testing.T) {
	var hops, quiesced atomic.Int64
	cfg := Config{
		Topo:    netsim.SingleNode(2),
		Latency: netsim.LatencyModel{IntraProcess: 50 * time.Microsecond},
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate the 3rd network message once.
	var count atomic.Int64
	rt.Network().SetDupFilter(func(src, dst, size int) (time.Duration, bool) {
		return 200 * time.Microsecond, count.Add(1) == 3
	})
	rt.Start(func(pe *PE) Handler { return &relayApp{hops: &hops, quiesced: &quiesced} })
	rt.send(0, 0, envelope{kind: kindApp, payload: 10}, 1)

	// The duplicated hop re-runs the remainder of the countdown, so the
	// ring sees extra hops and sent == delivered never holds again; wait
	// for the fabric to drain and deliveries to stop moving, then stop.
	deadline := time.Now().Add(5 * time.Second)
	for {
		before := rt.MessagesDelivered()
		time.Sleep(2 * time.Millisecond)
		if rt.Network().QueueLen() == 0 && rt.MessagesDelivered() == before {
			break
		}
		if time.Now().After(deadline) {
			break
		}
	}
	rt.RequestExit()
	rt.Wait()

	a := rt.Audit()
	if a.NetDuplicated != 1 {
		t.Errorf("NetDuplicated = %d, want 1", a.NetDuplicated)
	}
	if a.Delivered != a.Sent+a.NetDuplicated-a.MailboxBacklog-a.DroppedAtExit {
		t.Errorf("Delivered = %d, want Sent(%d) + NetDuplicated(%d) - backlog(%d) - atExit(%d)",
			a.Delivered, a.Sent, a.NetDuplicated, a.MailboxBacklog, a.DroppedAtExit)
	}
	if u := a.Unaccounted(); u != 0 {
		t.Errorf("Unaccounted = %d, want 0; ledger: %+v", u, a)
	}
	if hops.Load() <= 10 {
		t.Errorf("hops = %d, want > 10: the duplicate re-runs part of the countdown", hops.Load())
	}
}

// TestDuplicateDeliverySwallowedWithReliability: the same fabric duplicate
// under the relnet layer never reaches a handler twice — it lands in the
// DupDiscarded column and the hop count stays exact.
func TestDuplicateDeliverySwallowedWithReliability(t *testing.T) {
	var hops, quiesced atomic.Int64
	cfg := Config{
		Topo:           netsim.SingleNode(2),
		Latency:        netsim.LatencyModel{IntraProcess: 50 * time.Microsecond},
		QuiescencePoll: 200 * time.Microsecond,
		Reliability:    &relnet.Config{RTO: 5 * time.Millisecond, AckDelay: 500 * time.Microsecond},
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Ghost the third hop. Counting every frame instead would sometimes
	// pick a standalone ack, which the layer consumes rather than discards.
	var hopFrames atomic.Int64
	rt.Network().SetDupFilter(func(src, dst, size int) (time.Duration, bool) {
		return 200 * time.Microsecond, size == relayHopSize && hopFrames.Add(1) == 3
	})
	rt.Start(func(pe *PE) Handler { return &relayApp{hops: &hops, quiesced: &quiesced} })
	rt.send(0, 0, envelope{kind: kindApp, payload: 10}, 1)
	waitOrFail(t, rt, 10*time.Second)

	if got := hops.Load(); got != 10 {
		t.Errorf("hops = %d, want exactly 10 (duplicate must be swallowed)", got)
	}
	a := rt.Audit()
	if a.DupDiscarded == 0 {
		t.Error("DupDiscarded = 0, want > 0: the ghost copy must hit the dedup window")
	}
	if u := a.Unaccounted(); u != 0 {
		t.Errorf("Unaccounted = %d, want 0; ledger: %+v", u, a)
	}
}

func TestNoDropsQuiescesNormally(t *testing.T) {
	// Control experiment: same setup, no filter → the chain finishes and
	// quiescence fires exactly once.
	var hops, quiesced atomic.Int64
	cfg := Config{
		Topo:           netsim.SingleNode(2),
		Latency:        netsim.LatencyModel{IntraProcess: 50 * time.Microsecond},
		QuiescencePoll: 200 * time.Microsecond,
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start(func(pe *PE) Handler { return &relayApp{hops: &hops, quiesced: &quiesced} })
	rt.send(0, 0, envelope{kind: kindApp, payload: 20}, 1)
	waitOrFail(t, rt, 10*time.Second)
	if hops.Load() != 20 {
		t.Errorf("hops = %d, want 20", hops.Load())
	}
	if quiesced.Load() != 1 {
		t.Errorf("quiescence fired %d times, want 1", quiesced.Load())
	}
}
