package runtime

// Fault-injection tests: the runtime (like Charm++) assumes reliable
// message delivery. These tests document what that assumption buys — a
// lost message leaves the sent/delivered counters permanently unequal, so
// quiescence detection can never fire a false positive: message loss
// manifests as a visible hang, never as silent wrong results.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"acic/internal/netsim"
)

// relayApp forwards a counter around a two-PE ring n times, then idles.
type relayApp struct {
	NopControl
	hops     *atomic.Int64
	quiesced *atomic.Int64
}

func (h *relayApp) Deliver(pe *PE, msg any) {
	if _, ok := msg.(Quiescence); ok {
		h.quiesced.Add(1)
		pe.Exit()
		return
	}
	n := msg.(int)
	h.hops.Add(1)
	if n > 1 {
		pe.Send(1-pe.Index(), n-1, 1)
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

// ringMsg is a payload only one send ever carries.
type ringMsg struct{ id, dst int }

// ringSink records every delivery.
type ringSink struct {
	NopControl
	mu  *sync.Mutex
	got map[int]int // ringMsg id -> deliveries
	bad *[]string
}

func (h *ringSink) Deliver(pe *PE, msg any) {
	h.mu.Lock()
	defer h.mu.Unlock()
	m, ok := msg.(ringMsg)
	if !ok || m.dst != pe.Index() {
		*h.bad = append(*h.bad, fmt.Sprintf("PE %d delivered %#v", pe.Index(), msg))
		return
	}
	h.got[m.id]++
}

func (h *ringSink) Idle(pe *PE) bool { return false }

// TestReorderedDeliveryNeverShowsARecycledEnvelope sends a ring of
// distinct payloads through a network whose reorder filter holds every
// 5th message back past later traffic. Every delivery returns its
// *envelope to the pool while held-back envelopes are still in flight, so
// a delivery that read a recycled envelope would carry another send's
// payload to the wrong PE, or no payload at all. Each message must arrive
// exactly once, carrying its own payload, and the ledger must balance.
func TestReorderedDeliveryNeverShowsARecycledEnvelope(t *testing.T) {
	const pes, msgs = 4, 2000
	rt, err := New(Config{
		Topo:    netsim.SingleNode(pes),
		Latency: netsim.LatencyModel{IntraProcess: 20 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	var count atomic.Int64
	rt.Network().SetReorderFilter(func(src, dst, size int) (time.Duration, bool) {
		return 100 * time.Microsecond, count.Add(1)%5 == 0
	})
	var mu sync.Mutex
	var bad []string
	got := make(map[int]int)
	rt.Start(func(pe *PE) Handler { return &ringSink{mu: &mu, got: got, bad: &bad} })
	for i := 0; i < msgs; i++ {
		src := i % pes
		dst := (src + 1) % pes
		rt.send(src, dst, envelope{kind: kindApp, payload: ringMsg{id: i, dst: dst}}, 1)
	}
	deadline := time.Now().Add(10 * time.Second)
	for rt.MessagesDelivered() < rt.MessagesSent() || rt.Network().QueueLen() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("fabric did not drain: queue %d, delivered %d of %d",
				rt.Network().QueueLen(), rt.MessagesDelivered(), rt.MessagesSent())
		}
		time.Sleep(time.Millisecond)
	}
	rt.RequestExit()
	rt.Wait()

	mu.Lock()
	defer mu.Unlock()
	for _, b := range bad {
		t.Error(b)
	}
	for i := 0; i < msgs; i++ {
		if got[i] != 1 {
			t.Errorf("message %d delivered %d times, want 1", i, got[i])
		}
	}
	if r := rt.NetworkStats().Reordered; r == 0 {
		t.Error("Reordered = 0: the filter never fired, nothing was held back")
	}
	if u := rt.Audit().Unaccounted(); u != 0 {
		t.Errorf("Unaccounted = %d, want 0; ledger: %+v", u, rt.Audit())
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

// TestLedgerBalancesUnderEveryFault checks the conservation identity
// Sent + BoundaryIn == Delivered + NetQueue + NetDropped + MailboxBacklog +
// DroppedAtExit + BoundaryOut column by column under each fault the
// simulated fabric can still inject, alone and together. Every send is a
// distinct ring payload, so the test also knows which ones must arrive:
// a dropped send never does, every other send arrives exactly once.
func TestLedgerBalancesUnderEveryFault(t *testing.T) {
	const pes, msgs = 4, 1000
	for _, tc := range []struct {
		name                    string
		dropEvery, reorderEvery int
	}{
		{"none", 0, 0},
		{"reorder", 0, 5},
		{"drop", 7, 0},
		{"drop+reorder", 7, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt, err := New(Config{
				Topo:    netsim.SingleNode(pes),
				Latency: netsim.LatencyModel{IntraProcess: 20 * time.Microsecond},
			})
			if err != nil {
				t.Fatal(err)
			}
			dropped := func(id int) bool { return tc.dropEvery > 0 && (id+1)%tc.dropEvery == 0 }
			// One sender: the k-th drop-filter call is the send of payload k.
			var drops, reorders atomic.Int64
			if tc.dropEvery > 0 {
				rt.Network().SetDropFilter(func(src, dst, size int) bool {
					return dropped(int(drops.Add(1) - 1))
				})
			}
			if tc.reorderEvery > 0 {
				rt.Network().SetReorderFilter(func(src, dst, size int) (time.Duration, bool) {
					return 100 * time.Microsecond, reorders.Add(1)%int64(tc.reorderEvery) == 0
				})
			}
			var mu sync.Mutex
			var bad []string
			got := make(map[int]int)
			rt.Start(func(pe *PE) Handler { return &ringSink{mu: &mu, got: got, bad: &bad} })
			wantDropped := 0
			for i := 0; i < msgs; i++ {
				if dropped(i) {
					wantDropped++
				}
				src := i % pes
				dst := (src + 1) % pes
				rt.send(src, dst, envelope{kind: kindApp, payload: ringMsg{id: i, dst: dst}}, 1)
			}
			wantDelivered := int64(msgs - wantDropped)
			deadline := time.Now().Add(10 * time.Second)
			for rt.MessagesDelivered() < wantDelivered || rt.Network().QueueLen() > 0 {
				if time.Now().After(deadline) {
					t.Fatalf("fabric did not drain: queue %d, delivered %d of %d",
						rt.Network().QueueLen(), rt.MessagesDelivered(), wantDelivered)
				}
				time.Sleep(time.Millisecond)
			}
			rt.RequestExit()
			rt.Wait()

			mu.Lock()
			defer mu.Unlock()
			for _, b := range bad {
				t.Error(b)
			}
			for i := 0; i < msgs; i++ {
				want := 1
				if dropped(i) {
					want = 0
				}
				if got[i] != want {
					t.Errorf("message %d delivered %d times, want %d", i, got[i], want)
				}
			}
			want := Audit{Sent: msgs, Delivered: wantDelivered, NetDropped: int64(wantDropped)}
			if a := rt.Audit(); a != want || a.Unaccounted() != 0 {
				t.Errorf("ledger %+v, want %+v", a, want)
			}
			if r := rt.NetworkStats().Reordered; (tc.reorderEvery > 0) != (r > 0) {
				t.Errorf("Reordered = %d with reorderEvery %d", r, tc.reorderEvery)
			}
		})
	}
}
