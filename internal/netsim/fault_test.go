package netsim

// Tests for the fault-injection surface beyond DropFilter — adversarial
// reordering — plus the SendAfter timer facility and the pinned
// mid-run DropFilter swap semantics.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestReorderFilterBreaksFIFO: a reorder-released message scheduled with a
// large extra delay is overtaken by a later send of the same pair — exactly
// the violation the clamp otherwise forbids.
func TestReorderFilterBreaksFIFO(t *testing.T) {
	var mu sync.Mutex
	var order []int
	n, err := NewNetwork(SingleNode(2), ZeroLatency(), func(dst int, payload any) {
		mu.Lock()
		order = append(order, payload.(int))
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	first := true
	n.SetReorderFilter(func(src, dst, size int) (time.Duration, bool) {
		if first {
			first = false
			return 5 * time.Millisecond, true
		}
		return 0, false
	})
	n.Send(0, 1, 1, 1) // released: held back 5ms
	n.Send(0, 1, 2, 1) // normal: delivered immediately
	n.Close()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Fatalf("delivery order = %v, want [2 1] (later send overtakes released one)", order)
	}
	if st := n.Stats(); st.Reordered != 1 {
		t.Errorf("Reordered = %d, want 1", st.Reordered)
	}
}

// TestSendAfterFiresAtDelay: SendAfter delivers its payload after the given
// delay, bypasses the drop filter, is not traffic, but does count toward
// QueueLen while pending.
func TestSendAfterFiresAtDelay(t *testing.T) {
	fired := make(chan struct{})
	n, err := NewNetwork(SingleNode(2), ZeroLatency(), func(dst int, payload any) {
		close(fired)
	})
	if err != nil {
		t.Fatal(err)
	}
	// A drop-everything filter must not touch timers.
	n.SetDropFilter(func(src, dst, size int) bool { return true })
	if res := n.SendAfter(1, "timer", 2*time.Millisecond); res != SendEnqueued {
		t.Fatalf("SendAfter = %v, want SendEnqueued", res)
	}
	if q := n.QueueLen(); q != 1 {
		t.Errorf("QueueLen = %d with a pending timer, want 1", q)
	}
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("timer never fired")
	}
	n.Close()
	st := n.Stats()
	if st.MessagesSent != 0 {
		t.Errorf("MessagesSent = %d, want 0 (timers are not traffic)", st.MessagesSent)
	}
	if st.Dropped != 0 {
		t.Errorf("Dropped = %d, want 0 (timers bypass the drop filter)", st.Dropped)
	}
}

// TestSendAfterOnClosedNetwork: scheduling a timer on a closed network
// reports SendClosed and delivers nothing.
func TestSendAfterOnClosedNetwork(t *testing.T) {
	var delivered atomic.Int64
	n, err := NewNetwork(SingleNode(2), ZeroLatency(), func(dst int, payload any) {
		delivered.Add(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Close()
	if res := n.SendAfter(0, "late", 0); res != SendClosed {
		t.Fatalf("SendAfter after Close = %v, want SendClosed", res)
	}
	if res := n.Send(0, 1, "late", 1); res != SendClosed {
		t.Fatalf("Send after Close = %v, want SendClosed", res)
	}
	if delivered.Load() != 0 {
		t.Errorf("delivered = %d, want 0", delivered.Load())
	}
}

// TestDropFilterMidRunSwap pins the mid-run swap semantics SetDropFilter
// documents: filters may be installed, replaced and removed while senders
// are firing, every Send consults exactly one filter, and the ledger stays
// exact — enqueued (delivered after Close) plus Dropped equals the number
// of Send calls that did not observe a closed lane. Run under -race this
// also proves the swap itself is data-race-free.
func TestDropFilterMidRunSwap(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 4 {
		runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(prev)
	}
	topo := SingleNode(8)
	var delivered atomic.Int64
	n, err := NewNetwork(topo, ZeroLatency(), func(dst int, payload any) {
		delivered.Add(1)
	})
	if err != nil {
		t.Fatal(err)
	}

	const senders = 4
	const perSender = 20000
	var enqueued atomic.Int64
	var wg sync.WaitGroup
	stopSwapping := make(chan struct{})
	var swapperDone sync.WaitGroup

	// The swapper flips between nil, drop-odd-destinations and drop-all as
	// fast as it can while traffic is in flight.
	swapperDone.Add(1)
	go func() {
		defer swapperDone.Done()
		dropOdd := DropFilter(func(src, dst, size int) bool { return dst%2 == 1 })
		dropAll := DropFilter(func(src, dst, size int) bool { return true })
		for i := 0; ; i++ {
			select {
			case <-stopSwapping:
				return
			default:
			}
			switch i % 3 {
			case 0:
				n.SetDropFilter(nil)
			case 1:
				n.SetDropFilter(dropOdd)
			case 2:
				n.SetDropFilter(dropAll)
			}
			runtime.Gosched()
		}
	}()

	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				if n.Send(w, (w+i)%topo.TotalPEs(), i, 1) == SendEnqueued {
					enqueued.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stopSwapping)
	swapperDone.Wait()
	n.Close()

	st := n.Stats()
	total := int64(senders * perSender)
	if st.MessagesSent != enqueued.Load() {
		t.Errorf("MessagesSent = %d, want %d (one count per enqueued Send)", st.MessagesSent, enqueued.Load())
	}
	if got := enqueued.Load() + st.Dropped; got != total {
		t.Errorf("enqueued(%d) + dropped(%d) = %d, want %d: a Send consulted zero or two filters",
			enqueued.Load(), st.Dropped, got, total)
	}
	if delivered.Load() != enqueued.Load() {
		t.Errorf("delivered = %d, want %d (every enqueued message delivered after Close)",
			delivered.Load(), enqueued.Load())
	}
	if n.QueueLen() != 0 {
		t.Errorf("QueueLen = %d after Close, want 0", n.QueueLen())
	}
}

// TestReorderedStreamStillExactlyOnce pins the reordering half of the
// bare fabric's delivery contract on every tier: a reorder filter changes
// when a message arrives, never whether, where, or how often. A stream
// with every 5th send held back past later traffic delivers each payload
// exactly once to the PE it was addressed to, the held-back sends are
// overtaken, and the sends the filter left alone keep their FIFO order.
func TestReorderedStreamStillExactlyOnce(t *testing.T) {
	for _, tc := range []struct {
		name     string
		topo     Topology
		src, dst int
	}{
		{"self", SingleNode(1), 0, 0},
		{"intra-process", SingleNode(2), 0, 1},
		{"intra-node", Topology{Nodes: 1, ProcsPerNode: 2, PEsPerProc: 1}, 0, 1},
		{"inter-node", Topology{Nodes: 2, ProcsPerNode: 1, PEsPerProc: 1}, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const msgs = 1000
			var mu sync.Mutex
			var order []int
			misrouted := 0
			n, err := NewNetwork(tc.topo, DefaultLatency(), func(dst int, payload any) {
				mu.Lock()
				defer mu.Unlock()
				if dst != tc.dst {
					misrouted++
				}
				order = append(order, payload.(int))
			})
			if err != nil {
				t.Fatal(err)
			}
			// One sender: the k-th filter call is the send of payload k.
			held := func(id int) bool { return (id+1)%5 == 0 }
			var calls atomic.Int64
			n.SetReorderFilter(func(src, dst, size int) (time.Duration, bool) {
				return 500 * time.Microsecond, held(int(calls.Add(1) - 1))
			})
			for i := 0; i < msgs; i++ {
				if res := n.Send(tc.src, tc.dst, i, 1); res != SendEnqueued {
					t.Fatalf("Send %d = %v, want SendEnqueued", i, res)
				}
			}
			n.Close()

			mu.Lock()
			defer mu.Unlock()
			if misrouted != 0 {
				t.Errorf("%d deliveries reached a PE other than %d", misrouted, tc.dst)
			}
			seen := make([]int, msgs)
			overtaken, lastFIFO := 0, -1
			for k, id := range order {
				seen[id]++
				if k > 0 && order[k-1] > id {
					overtaken++
				}
				if !held(id) {
					if id < lastFIFO {
						t.Errorf("unreleased send %d arrived after unreleased send %d", id, lastFIFO)
					}
					lastFIFO = id
				}
			}
			for id, c := range seen {
				if c != 1 {
					t.Errorf("payload %d delivered %d times, want 1", id, c)
				}
			}
			if overtaken == 0 {
				t.Error("no send was overtaken: the filter released nothing out of order")
			}
			st := n.Stats()
			if st.Reordered != msgs/5 {
				t.Errorf("Reordered = %d, want %d", st.Reordered, msgs/5)
			}
			if st.MessagesSent != msgs {
				t.Errorf("MessagesSent = %d, want %d", st.MessagesSent, msgs)
			}
			if q := n.QueueLen(); q != 0 {
				t.Errorf("QueueLen = %d after Close, want 0", q)
			}
		})
	}
}

// TestDropAndReorderAtMostOnce runs both remaining filters at once: the
// drop filter decides first, so a dropped send is never reordered, never
// delivered and never counted as traffic, while every other send arrives
// exactly once. Sends split exactly into enqueued and Dropped.
func TestDropAndReorderAtMostOnce(t *testing.T) {
	const msgs = 1200
	var mu sync.Mutex
	seen := make([]int, msgs)
	n, err := NewNetwork(SingleNode(2), DefaultLatency(), func(dst int, payload any) {
		mu.Lock()
		seen[payload.(int)]++
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	var drops, reorders atomic.Int64
	n.SetDropFilter(func(src, dst, size int) bool { return drops.Add(1)%4 == 0 })
	n.SetReorderFilter(func(src, dst, size int) (time.Duration, bool) {
		return 300 * time.Microsecond, reorders.Add(1)%3 == 0
	})
	enqueued := 0
	for i := 0; i < msgs; i++ {
		switch res := n.Send(0, 1, i, 1); res {
		case SendEnqueued:
			enqueued++
		case SendDropped:
		default:
			t.Fatalf("Send %d = %v on an open network", i, res)
		}
	}
	n.Close()

	mu.Lock()
	defer mu.Unlock()
	for id, c := range seen {
		want := 1
		if (id+1)%4 == 0 {
			want = 0
		}
		if c != want {
			t.Errorf("payload %d delivered %d times, want %d", id, c, want)
		}
	}
	st := n.Stats()
	if st.Dropped != msgs/4 || int64(enqueued) != msgs-st.Dropped {
		t.Errorf("enqueued %d, Dropped %d; want %d and %d", enqueued, st.Dropped, msgs-msgs/4, msgs/4)
	}
	if st.MessagesSent != int64(enqueued) {
		t.Errorf("MessagesSent = %d, want %d (dropped sends are not traffic)", st.MessagesSent, enqueued)
	}
	if want := int64(enqueued / 3); st.Reordered != want {
		t.Errorf("Reordered = %d, want %d (the reorder filter sees only surviving sends)", st.Reordered, want)
	}
	if q := n.QueueLen(); q != 0 {
		t.Errorf("QueueLen = %d after Close, want 0", q)
	}
}
