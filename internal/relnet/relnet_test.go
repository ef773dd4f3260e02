package relnet

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"acic/internal/netsim"
)

// The one production fabric the layer is bound to (runtime.New).
var _ Fabric = (*netsim.Network)(nil)

// harness wires a Layer over a raw netsim.Network and collects deliveries.
type harness struct {
	l   *Layer
	net *netsim.Network

	mu       sync.Mutex
	received map[int][]any // dst -> payloads in delivery order
	total    int
	gotAll   chan struct{}
	want     int
}

func newHarness(t *testing.T, numPEs int, cfg Config, model netsim.LatencyModel, want int) *harness {
	t.Helper()
	h := &harness{received: make(map[int][]any), gotAll: make(chan struct{}), want: want}
	h.l = New(cfg, numPEs, func(dst int, payload any) {
		h.mu.Lock()
		h.received[dst] = append(h.received[dst], payload)
		h.total++
		if h.total == h.want {
			close(h.gotAll)
		}
		h.mu.Unlock()
	})
	net, err := netsim.NewNetwork(netsim.SingleNode(numPEs), model, h.l.OnFabric)
	if err != nil {
		t.Fatal(err)
	}
	h.net = net
	h.l.Bind(net)
	return h
}

func (h *harness) waitAll(t *testing.T, timeout time.Duration) {
	t.Helper()
	select {
	case <-h.gotAll:
	case <-time.After(timeout):
		h.mu.Lock()
		got := h.total
		h.mu.Unlock()
		t.Fatalf("delivered %d/%d payloads before timeout", got, h.want)
	}
}

// fastCfg keeps retransmission quick enough for prompt tests while leaving
// ample headroom over the ack round trip, so "no spurious retransmits"
// assertions hold even under the race detector's slowdown.
func fastCfg() Config {
	return Config{RTO: 25 * time.Millisecond, MaxRTO: 100 * time.Millisecond, AckDelay: 2 * time.Millisecond}
}

// TestExactlyOnceNoFaults: on a clean fabric the layer is transparent —
// every payload delivered exactly once, in stream order, no retransmits.
func TestExactlyOnceNoFaults(t *testing.T) {
	const msgs = 200
	h := newHarness(t, 2, fastCfg(), netsim.ZeroLatency(), msgs)
	for i := 0; i < msgs; i++ {
		h.l.Send(0, 1, i, 1)
	}
	h.waitAll(t, 10*time.Second)
	h.net.Close()
	for i, v := range h.received[1] {
		if v.(int) != i {
			t.Fatalf("received[1][%d] = %v, want %d (stream order)", i, v, i)
		}
	}
	st := h.l.Stats()
	if st.Retransmits != 0 || st.DupDiscarded != 0 {
		t.Errorf("clean fabric: Retransmits=%d DupDiscarded=%d, want 0/0", st.Retransmits, st.DupDiscarded)
	}
}

// TestRetransmitRecoversDrop: a filter that drops the first transmission of
// every data frame forces the timeout path; every payload still arrives
// exactly once and the retransmits are counted.
func TestRetransmitRecoversDrop(t *testing.T) {
	const msgs = 20
	h := newHarness(t, 2, fastCfg(), netsim.ZeroLatency(), msgs)
	var mu sync.Mutex
	attempts := 0
	h.net.SetDropFilter(func(src, dst, size int) bool {
		mu.Lock()
		defer mu.Unlock()
		if src == 0 { // data direction only; acks flow 1 -> 0
			attempts++
			return attempts <= msgs // every original dropped, retries pass
		}
		return false
	})
	for i := 0; i < msgs; i++ {
		h.l.Send(0, 1, i, 1)
	}
	h.waitAll(t, 15*time.Second)
	h.net.Close()
	if got := len(h.received[1]); got != msgs {
		t.Fatalf("delivered %d payloads, want %d", got, msgs)
	}
	st := h.l.Stats()
	if st.Retransmits == 0 {
		t.Error("Retransmits = 0, want > 0: the drop filter forced the timeout path")
	}
	if fst := h.net.Stats(); fst.Dropped == 0 {
		t.Error("fabric Dropped = 0, want > 0")
	}
}

// TestStandaloneAckOnQuietLink: a one-way stream with no reverse traffic
// must be acknowledged by the standalone fallback, draining the sender's
// unacked queue so the retransmit timer disarms without ever firing a
// resend.
func TestStandaloneAckOnQuietLink(t *testing.T) {
	h := newHarness(t, 2, fastCfg(), netsim.ZeroLatency(), 1)
	h.l.Send(0, 1, "only", 1)
	h.waitAll(t, 5*time.Second)
	// Wait for the ack round trip, then for the timer to observe it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		p := h.l.pair(0, 1)
		p.mu.Lock()
		drained := len(p.unacked) == 0
		p.mu.Unlock()
		if drained {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sender unacked queue never drained on a quiet link")
		}
		time.Sleep(time.Millisecond)
	}
	h.net.Close()
	st := h.l.Stats()
	if st.AcksSent == 0 || st.AcksConsumed == 0 {
		t.Errorf("AcksSent=%d AcksConsumed=%d, want both > 0 (standalone fallback)", st.AcksSent, st.AcksConsumed)
	}
	if st.Retransmits != 0 {
		t.Errorf("Retransmits = %d, want 0 (ack arrived well inside RTO)", st.Retransmits)
	}
}

// TestDedupSwallowsFabricDuplicates: fabric-level duplication must never
// reach the application twice.
func TestDedupSwallowsFabricDuplicates(t *testing.T) {
	const msgs = 50
	h := newHarness(t, 2, fastCfg(), netsim.ZeroLatency(), msgs)
	h.net.SetDupFilter(func(src, dst, size int) (time.Duration, bool) {
		return 100 * time.Microsecond, true // duplicate everything
	})
	for i := 0; i < msgs; i++ {
		h.l.Send(0, 1, i, 1)
	}
	h.waitAll(t, 10*time.Second)
	// Give the ghosts time to land, then close (Close drains the rest).
	h.net.Close()
	if got := len(h.received[1]); got != msgs {
		t.Fatalf("delivered %d payloads, want exactly %d (dups swallowed)", got, msgs)
	}
	if st := h.l.Stats(); st.DupDiscarded == 0 {
		t.Error("DupDiscarded = 0, want > 0 under a duplicate-everything filter")
	}
}

// TestReorderedStreamStillExactlyOnce: adversarial reordering may deliver
// out of stream order; the window must still deliver each payload exactly
// once and recognize late duplicates.
func TestReorderedStreamStillExactlyOnce(t *testing.T) {
	const msgs = 100
	h := newHarness(t, 2, fastCfg(), netsim.ZeroLatency(), msgs)
	rng := rand.New(rand.NewSource(7))
	var mu sync.Mutex
	h.net.SetReorderFilter(func(src, dst, size int) (time.Duration, bool) {
		mu.Lock()
		defer mu.Unlock()
		if rng.Intn(4) == 0 {
			return time.Duration(rng.Intn(2000)) * time.Microsecond, true
		}
		return 0, false
	})
	for i := 0; i < msgs; i++ {
		h.l.Send(0, 1, i, 1)
	}
	h.waitAll(t, 10*time.Second)
	h.net.Close()
	seen := make(map[int]int)
	for _, v := range h.received[1] {
		seen[v.(int)]++
	}
	for i := 0; i < msgs; i++ {
		if seen[i] != 1 {
			t.Fatalf("payload %d delivered %d times, want exactly once", i, seen[i])
		}
	}
}

// TestLossyFabricHammer is the exactly-once stress: several PEs exchanging
// traffic in both directions over a fabric that drops, duplicates AND
// reorders probabilistically (seeded). Every payload must arrive exactly
// once, and after the dust settles the layer's ledger must be consistent
// with the fabric's.
func TestLossyFabricHammer(t *testing.T) {
	const (
		numPEs    = 4
		perStream = 80
	)
	streams := [][2]int{{0, 1}, {1, 0}, {0, 2}, {2, 3}, {3, 0}, {1, 2}}
	want := len(streams) * perStream
	h := newHarness(t, numPEs, fastCfg(), netsim.ZeroLatency(), want)

	var mu sync.Mutex
	rng := rand.New(rand.NewSource(42))
	h.net.SetDropFilter(func(src, dst, size int) bool {
		mu.Lock()
		defer mu.Unlock()
		return rng.Intn(100) < 10
	})
	h.net.SetDupFilter(func(src, dst, size int) (time.Duration, bool) {
		mu.Lock()
		defer mu.Unlock()
		if rng.Intn(100) < 10 {
			return time.Duration(rng.Intn(1000)) * time.Microsecond, true
		}
		return 0, false
	})
	h.net.SetReorderFilter(func(src, dst, size int) (time.Duration, bool) {
		mu.Lock()
		defer mu.Unlock()
		if rng.Intn(100) < 10 {
			return time.Duration(rng.Intn(1000)) * time.Microsecond, true
		}
		return 0, false
	})

	var wg sync.WaitGroup
	for si, s := range streams {
		wg.Add(1)
		go func(si int, src, dst int) {
			defer wg.Done()
			for i := 0; i < perStream; i++ {
				h.l.Send(src, dst, [2]int{si, i}, 1)
			}
		}(si, s[0], s[1])
	}
	wg.Wait()
	h.waitAll(t, 30*time.Second)
	h.net.Close()

	// Exactly once, per stream.
	seen := make(map[[2]int]int)
	for _, payloads := range h.received {
		for _, v := range payloads {
			seen[v.([2]int)]++
		}
	}
	if len(seen) != want {
		t.Fatalf("distinct payloads = %d, want %d", len(seen), want)
	}
	for k, c := range seen {
		if c != 1 {
			t.Fatalf("payload %v delivered %d times, want exactly once", k, c)
		}
	}
	st := h.l.Stats()
	fst := h.net.Stats()
	if st.Retransmits == 0 {
		t.Error("Retransmits = 0, want > 0 under 10% drop")
	}
	if st.DupDiscarded == 0 {
		t.Error("DupDiscarded = 0, want > 0 under 10% dup plus retransmits")
	}
	t.Logf("fabric: sent=%d dropped=%d duplicated=%d reordered=%d | layer: retrans=%d dup_discarded=%d acks=%d/%d",
		fst.MessagesSent, fst.Dropped, fst.Duplicated, fst.Reordered,
		st.Retransmits, st.DupDiscarded, st.AcksSent, st.AcksConsumed)
}

// TestPiggybackAck: with bidirectional traffic the reverse stream's data
// frames carry the ack, so the sender's queue drains without many (or any)
// standalone acks for the busy direction.
func TestPiggybackAck(t *testing.T) {
	const msgs = 50
	h := newHarness(t, 2, fastCfg(), netsim.ZeroLatency(), 2*msgs)
	for i := 0; i < msgs; i++ {
		h.l.Send(0, 1, i, 1)
		h.l.Send(1, 0, i, 1)
	}
	h.waitAll(t, 10*time.Second)
	deadline := time.Now().Add(5 * time.Second)
	for {
		p01, p10 := h.l.pair(0, 1), h.l.pair(1, 0)
		p01.mu.Lock()
		d1 := len(p01.unacked) == 0
		p01.mu.Unlock()
		p10.mu.Lock()
		d2 := len(p10.unacked) == 0
		p10.mu.Unlock()
		if d1 && d2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("unacked queues never drained with bidirectional traffic")
		}
		time.Sleep(time.Millisecond)
	}
	h.net.Close()
	if st := h.l.Stats(); st.Retransmits != 0 {
		t.Errorf("Retransmits = %d, want 0 (piggybacked acks are prompt)", st.Retransmits)
	}
}

// TestSendAfterCloseIsClosed: the layer reports the fabric's refusal and
// does not retain state that would retransmit into the void.
func TestSendAfterCloseIsClosed(t *testing.T) {
	h := newHarness(t, 2, fastCfg(), netsim.ZeroLatency(), 1)
	h.l.Send(0, 1, "x", 1)
	h.waitAll(t, 5*time.Second)
	h.net.Close()
	if res := h.l.Send(0, 1, "late", 1); res != netsim.SendClosed {
		t.Fatalf("Send after Close = %v, want SendClosed", res)
	}
}
