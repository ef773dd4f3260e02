package netsim

import (
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestTopologyMapping(t *testing.T) {
	// Paper shape: 2 nodes, 8 procs/node, 6 PEs/proc.
	topo := PaperNode(2)
	if topo.TotalPEs() != 96 || topo.TotalProcs() != 16 {
		t.Fatalf("totals = (%d,%d)", topo.TotalPEs(), topo.TotalProcs())
	}
	if topo.ProcessOf(0) != 0 || topo.ProcessOf(5) != 0 || topo.ProcessOf(6) != 1 {
		t.Error("ProcessOf wrong at process boundary")
	}
	if topo.NodeOf(47) != 0 || topo.NodeOf(48) != 1 {
		t.Error("NodeOf wrong at node boundary")
	}
	lo, hi := topo.PEsOfProcess(3)
	if lo != 18 || hi != 24 {
		t.Errorf("PEsOfProcess(3) = [%d,%d)", lo, hi)
	}
}

func TestTopologyTiers(t *testing.T) {
	topo := PaperNode(2)
	cases := []struct {
		src, dst int
		want     Tier
	}{
		{0, 0, TierSelf},
		{0, 5, TierProcess},  // same process
		{0, 6, TierNode},     // same node, different process
		{0, 48, TierMachine}, // different node
		{95, 0, TierMachine},
	}
	for _, c := range cases {
		if got := topo.TierOf(c.src, c.dst); got != c.want {
			t.Errorf("TierOf(%d,%d) = %d, want %d", c.src, c.dst, got, c.want)
		}
	}
}

func TestTopologyValidate(t *testing.T) {
	if err := (Topology{Nodes: 0, ProcsPerNode: 1, PEsPerProc: 1}).Validate(); err == nil {
		t.Error("zero nodes validated")
	}
	if err := SingleNode(4).Validate(); err != nil {
		t.Errorf("SingleNode invalid: %v", err)
	}
}

func TestLatencyModelDelay(t *testing.T) {
	m := LatencyModel{
		IntraProcess: 1 * time.Microsecond,
		IntraNode:    5 * time.Microsecond,
		InterNode:    20 * time.Microsecond,
		PerItem:      100 * time.Nanosecond,
	}
	if d := m.Delay(TierSelf, 0); d != 0 {
		t.Errorf("self delay = %v", d)
	}
	if d := m.Delay(TierProcess, 10); d != 2*time.Microsecond {
		t.Errorf("process delay = %v, want 2µs", d)
	}
	if d := m.Delay(TierMachine, 0); d != 20*time.Microsecond {
		t.Errorf("machine delay = %v", d)
	}
}

func TestNetworkDeliversAll(t *testing.T) {
	var mu sync.Mutex
	got := map[int][]int{}
	n, err := NewNetwork(SingleNode(4), ZeroLatency(), func(dst int, payload any) {
		mu.Lock()
		got[dst] = append(got[dst], payload.(int))
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	const per = 100
	for i := 0; i < per; i++ {
		for dst := 0; dst < 4; dst++ {
			n.Send(0, dst, i, 1)
		}
	}
	n.Close()
	mu.Lock()
	defer mu.Unlock()
	for dst := 0; dst < 4; dst++ {
		if len(got[dst]) != per {
			t.Errorf("dst %d received %d messages, want %d", dst, len(got[dst]), per)
		}
	}
}

func TestNetworkFIFOPerPair(t *testing.T) {
	// With a fixed latency, messages between one (src,dst) pair must arrive
	// in send order — the in-order guarantee ACIC's pq logic relies on for
	// monotonicity of tram batches.
	var mu sync.Mutex
	var got []int
	n, err := NewNetwork(SingleNode(2), LatencyModel{IntraProcess: 100 * time.Microsecond}, func(dst int, payload any) {
		mu.Lock()
		got = append(got, payload.(int))
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	const k = 200
	for i := 0; i < k; i++ {
		n.Send(0, 1, i, 0)
	}
	n.Close()
	mu.Lock()
	defer mu.Unlock()
	if len(got) != k {
		t.Fatalf("received %d, want %d", len(got), k)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order at %d: got %d", i, v)
		}
	}
}

func TestNetworkLatencyOrdering(t *testing.T) {
	// A later-sent intra-process message (2µs) should overtake an
	// earlier-sent inter-node one (20ms) — asynchrony in action.
	topo := PaperNode(2)
	m := LatencyModel{IntraProcess: time.Microsecond, IntraNode: time.Millisecond, InterNode: 20 * time.Millisecond}
	var mu sync.Mutex
	var got []string
	n, err := NewNetwork(topo, m, func(dst int, payload any) {
		mu.Lock()
		got = append(got, payload.(string))
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Send(0, 48, "far", 0) // inter-node
	n.Send(0, 1, "near", 0) // intra-process
	n.Close()
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 || got[0] != "near" || got[1] != "far" {
		t.Errorf("delivery order = %v, want [near far]", got)
	}
}

func TestNetworkApproximateDelay(t *testing.T) {
	const lat = 5 * time.Millisecond
	done := make(chan time.Time, 1)
	n, err := NewNetwork(SingleNode(2), LatencyModel{IntraProcess: lat}, func(dst int, payload any) {
		done <- time.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	n.Send(0, 1, nil, 0)
	at := <-done
	n.Close()
	if el := at.Sub(start); el < lat {
		t.Errorf("delivered after %v, want >= %v", el, lat)
	}
}

func TestNetworkCloseIdempotentAndRejectsSends(t *testing.T) {
	var count int64
	n, err := NewNetwork(SingleNode(2), ZeroLatency(), func(int, any) { atomic.AddInt64(&count, 1) })
	if err != nil {
		t.Fatal(err)
	}
	n.Send(0, 1, nil, 0)
	n.Close()
	n.Close() // must not hang or panic
	before := atomic.LoadInt64(&count)
	n.Send(0, 1, nil, 0) // dropped
	time.Sleep(5 * time.Millisecond)
	if atomic.LoadInt64(&count) != before {
		t.Error("send after Close was delivered")
	}
}

func TestNetworkStats(t *testing.T) {
	topo := PaperNode(2)
	n, err := NewNetwork(topo, ZeroLatency(), func(int, any) {})
	if err != nil {
		t.Fatal(err)
	}
	n.Send(0, 1, nil, 10)  // intra-process
	n.Send(0, 6, nil, 20)  // intra-node
	n.Send(0, 48, nil, 30) // inter-node
	n.Close()
	s := n.Stats()
	if s.MessagesSent != 3 || s.ItemsSent != 60 {
		t.Errorf("stats = %+v", s)
	}
	if s.BytesByTier[TierProcess] != 10 || s.BytesByTier[TierNode] != 20 || s.BytesByTier[TierMachine] != 30 {
		t.Errorf("tier bytes = %v", s.BytesByTier)
	}
}

func TestNewNetworkRejectsBadInput(t *testing.T) {
	if _, err := NewNetwork(Topology{}, ZeroLatency(), func(int, any) {}); err == nil {
		t.Error("invalid topology accepted")
	}
	if _, err := NewNetwork(SingleNode(1), ZeroLatency(), nil); err == nil {
		t.Error("nil deliver accepted")
	}
}

func TestNetworkConcurrentSenders(t *testing.T) {
	var count int64
	n, err := NewNetwork(SingleNode(8), LatencyModel{IntraProcess: time.Microsecond}, func(int, any) {
		atomic.AddInt64(&count, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	const senders, per = 8, 500
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				n.Send(src, (src+i)%8, i, 1)
			}
		}(s)
	}
	wg.Wait()
	n.Close()
	if got := atomic.LoadInt64(&count); got != senders*per {
		t.Errorf("delivered %d, want %d", got, senders*per)
	}
}

func TestDropFilter(t *testing.T) {
	var delivered int64
	n, err := NewNetwork(SingleNode(2), LatencyModel{IntraProcess: time.Microsecond}, func(int, any) {
		atomic.AddInt64(&delivered, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Drop every message to PE 1.
	n.SetDropFilter(func(src, dst, size int) bool { return dst == 1 })
	for i := 0; i < 10; i++ {
		n.Send(0, 1, i, 1) // dropped
		n.Send(1, 0, i, 1) // delivered
	}
	n.Close()
	if got := atomic.LoadInt64(&delivered); got != 10 {
		t.Errorf("delivered %d, want 10", got)
	}
	s := n.Stats()
	if s.Dropped != 10 {
		t.Errorf("Dropped = %d, want 10", s.Dropped)
	}
	if s.MessagesSent != 10 {
		t.Errorf("MessagesSent = %d, want 10 (dropped messages are not traffic)", s.MessagesSent)
	}
}

// Regression: a message counts toward MessagesSent/ItemsSent/BytesByTier
// only when it is actually enqueued. Dropped sends count only as Dropped,
// and sends on a closed network count as nothing.
func TestStatsCountOnlyEnqueuedMessages(t *testing.T) {
	topo := PaperNode(2)
	n, err := NewNetwork(topo, ZeroLatency(), func(int, any) {})
	if err != nil {
		t.Fatal(err)
	}
	n.SetDropFilter(func(src, dst, size int) bool { return dst == 1 })
	n.Send(0, 1, nil, 7)   // dropped
	n.Send(0, 6, nil, 20)  // delivered, intra-node
	n.Send(0, 48, nil, 30) // delivered, inter-node
	n.Close()
	n.Send(0, 6, nil, 100) // post-close: no-op, no stats
	s := n.Stats()
	if s.MessagesSent != 2 || s.ItemsSent != 50 {
		t.Errorf("MessagesSent=%d ItemsSent=%d, want 2 and 50", s.MessagesSent, s.ItemsSent)
	}
	if s.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", s.Dropped)
	}
	var total int64
	for _, b := range s.BytesByTier {
		total += b
	}
	if total != 50 {
		t.Errorf("sum(BytesByTier) = %d, want 50 (dropped/post-close sizes leaked in)", total)
	}
	if s.BytesByTier[TierNode] != 20 || s.BytesByTier[TierMachine] != 30 {
		t.Errorf("tier bytes = %v", s.BytesByTier)
	}
}

// TestNetworkFIFOPerPairSharded drives many concurrent sources into many
// destinations and asserts that per-(src,dst) send order survives the
// sharded lanes: each pair's payload sequence must arrive strictly
// ascending even though lanes are independent and deadline ties are only
// ordered within a lane.
func TestNetworkFIFOPerPairSharded(t *testing.T) {
	const (
		numPEs = 8
		per    = 300
	)
	type tagged struct{ src, seq int }
	var mu sync.Mutex
	lastSeen := map[[2]int]int{} // (src,dst) -> last seq delivered
	violations := 0
	n, err := NewNetwork(SingleNode(numPEs), LatencyModel{IntraProcess: 20 * time.Microsecond}, func(dst int, payload any) {
		m := payload.(tagged)
		mu.Lock()
		key := [2]int{m.src, dst}
		if prev, ok := lastSeen[key]; ok && m.seq <= prev {
			violations++
		}
		lastSeen[key] = m.seq
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for src := 0; src < numPEs; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				n.Send(src, (src+i)%numPEs, tagged{src: src, seq: i}, 0)
			}
		}(src)
	}
	wg.Wait()
	n.Close()
	mu.Lock()
	defer mu.Unlock()
	if violations != 0 {
		t.Errorf("%d per-(src,dst) FIFO violations under the sharded queue", violations)
	}
	var delivered int
	for _, last := range lastSeen {
		_ = last
		delivered++
	}
	if delivered != numPEs*numPEs {
		t.Errorf("saw %d (src,dst) pairs, want %d", delivered, numPEs*numPEs)
	}
}

// Property: every PE belongs to exactly one process and one node, and tiers
// are symmetric.
func TestQuickTopologyConsistency(t *testing.T) {
	f := func(nodesRaw, procsRaw, pesRaw uint8) bool {
		topo := Topology{
			Nodes:        int(nodesRaw%4) + 1,
			ProcsPerNode: int(procsRaw%4) + 1,
			PEsPerProc:   int(pesRaw%4) + 1,
		}
		for pe := 0; pe < topo.TotalPEs(); pe++ {
			p := topo.ProcessOf(pe)
			lo, hi := topo.PEsOfProcess(p)
			if pe < lo || pe >= hi {
				return false
			}
			if topo.NodeOf(pe) != p/topo.ProcsPerNode {
				return false
			}
		}
		// Tier symmetry on a sample.
		for a := 0; a < topo.TotalPEs(); a += 3 {
			for b := 0; b < topo.TotalPEs(); b += 5 {
				if topo.TierOf(a, b) != topo.TierOf(b, a) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkNetworkSendZeroLatency(b *testing.B) {
	n, err := NewNetwork(SingleNode(4), ZeroLatency(), func(int, any) {})
	if err != nil {
		b.Fatal(err)
	}
	defer n.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Send(0, i%4, nil, 1)
	}
}

// TestNearDeadlineIsMetWithoutTheTimer pins the dispatcher's wait for
// deadlines inside timerHorizon: a message modeled at 50µs is never
// delivered early, and is not delivered a timer tick (about a millisecond)
// late either. Sends are one at a time, each timed from just before Send to
// the deliver callback; the median over 50 absorbs the odd preemption.
func TestNearDeadlineIsMetWithoutTheTimer(t *testing.T) {
	const delay = 50 * time.Microsecond
	arrived := make(chan time.Time, 1)
	n, err := NewNetwork(SingleNode(2), LatencyModel{IntraProcess: delay},
		func(int, any) { arrived <- time.Now() })
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	late := make([]time.Duration, 50)
	for i := range late {
		sent := time.Now()
		n.Send(0, 1, i, 0)
		took := (<-arrived).Sub(sent)
		if took < delay {
			t.Fatalf("send %d delivered after %v, before its %v delay", i, took, delay)
		}
		late[i] = took - delay
	}
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	if med := late[len(late)/2]; med >= 200*time.Microsecond {
		t.Errorf("median lateness %v over %d sends, want < 200µs (min %v, max %v)",
			med, len(late), late[0], late[len(late)-1])
	}
}
