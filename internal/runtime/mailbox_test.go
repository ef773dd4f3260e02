package runtime

import (
	"sync"
	"testing"
	"time"
)

// env wraps a sequence number in an envelope for queue tests.
func env(i int) envelope { return envelope{kind: kindApp, epoch: int64(i)} }

func TestMailboxFIFO(t *testing.T) {
	m := newMailbox()
	for i := 0; i < 100; i++ {
		m.push(env(i))
	}
	if m.len() != 100 {
		t.Fatalf("len = %d", m.len())
	}
	for i := 0; i < 100; i++ {
		v, ok := m.tryPop()
		if !ok || v.epoch != int64(i) {
			t.Fatalf("pop %d: got %v ok=%v", i, v, ok)
		}
	}
	if _, ok := m.tryPop(); ok {
		t.Error("tryPop on empty returned ok")
	}
}

func TestMailboxBlockingPop(t *testing.T) {
	m := newMailbox()
	done := make(chan envelope, 1)
	go func() {
		v, _ := m.pop()
		done <- v
	}()
	select {
	case <-done:
		t.Fatal("pop returned before push")
	case <-time.After(5 * time.Millisecond):
	}
	m.push(env(42))
	select {
	case v := <-done:
		if v.epoch != 42 {
			t.Fatalf("got %v", v)
		}
	case <-time.After(time.Second):
		t.Fatal("pop never woke")
	}
}

func TestMailboxCloseWakesConsumer(t *testing.T) {
	m := newMailbox()
	done := make(chan bool, 1)
	go func() {
		_, ok := m.pop()
		done <- ok
	}()
	time.Sleep(2 * time.Millisecond)
	m.close()
	select {
	case ok := <-done:
		if ok {
			t.Error("pop on closed empty mailbox returned ok")
		}
	case <-time.After(time.Second):
		t.Fatal("close did not wake consumer")
	}
}

func TestMailboxDrainsBeforeCloseReturnsFalse(t *testing.T) {
	m := newMailbox()
	m.push(env(1))
	m.push(env(2))
	m.close()
	if v, ok := m.pop(); !ok || v.epoch != 1 {
		t.Fatal("first item lost after close")
	}
	if v, ok := m.pop(); !ok || v.epoch != 2 {
		t.Fatal("second item lost after close")
	}
	if _, ok := m.pop(); ok {
		t.Error("drained closed mailbox still returns items")
	}
}

func TestMailboxPushAfterCloseDropped(t *testing.T) {
	m := newMailbox()
	m.close()
	m.push(env(1))
	if m.len() != 0 {
		t.Error("push after close was stored")
	}
	if _, ok := m.tryPop(); ok {
		t.Error("push after close was observable")
	}
}

// TestMailboxSwapDrainOrder exercises the two-slice swap drain directly:
// bursts of pushes interleaved with partial drains, across many swap
// cycles, must neither lose nor reorder items, and a final drain must
// return the remainder in order.
func TestMailboxSwapDrainOrder(t *testing.T) {
	m := newMailbox()
	next := 0
	pushed := 0
	for round := 0; round < 200; round++ {
		// Push a burst, drain roughly half — leaves the consumer slice
		// partially consumed across the next swap.
		for j := 0; j < 37; j++ {
			m.push(env(pushed))
			pushed++
		}
		for j := 0; j < 18; j++ {
			v, ok := m.tryPop()
			if !ok || v.epoch != int64(next) {
				t.Fatalf("round %d: got %v ok=%v, want %d", round, v, ok, next)
			}
			next++
		}
	}
	for {
		v, ok := m.tryPop()
		if !ok {
			break
		}
		if v.epoch != int64(next) {
			t.Fatalf("final drain: got %v, want %d", v, next)
		}
		next++
	}
	if next != pushed {
		t.Fatalf("drained %d items, want %d", next, pushed)
	}
	if m.len() != 0 {
		t.Fatalf("len = %d after full drain", m.len())
	}
}

// TestMailboxConcurrentProducersFIFO checks the MPSC contract under the
// race detector: items from each producer arrive in that producer's send
// order (per-producer FIFO), with nothing lost or duplicated. The consumer
// starts only once every producer has more than inFlight envelopes queued —
// a backlog deeper than any bounded side buffer would hold, so ordering
// must survive it — and then alternates tryPop and pop, the two ways the
// scheduler loop takes an envelope, while the producers keep pushing.
func TestMailboxConcurrentProducersFIFO(t *testing.T) {
	m := newMailbox()
	const producers, per, inFlight = 8, 2000, 300
	var wg, primed sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		primed.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m.push(env(p*per + i))
				if i == inFlight {
					primed.Done()
				}
			}
		}(p)
	}
	primed.Wait()
	if got := m.len(); got <= producers*inFlight {
		t.Fatalf("len = %d before the first pop, want > %d", got, producers*inFlight)
	}
	lastFrom := make([]int, producers)
	for i := range lastFrom {
		lastFrom[i] = -1
	}
	for seen := 0; seen < producers*per; seen++ {
		var v envelope
		ok := false
		if seen%2 == 0 {
			v, ok = m.tryPop()
		}
		if !ok {
			if v, ok = m.pop(); !ok {
				t.Fatal("mailbox closed unexpectedly")
			}
		}
		p, i := int(v.epoch)/per, int(v.epoch)%per
		if i != lastFrom[p]+1 {
			t.Fatalf("producer %d: item %d arrived after %d", p, i, lastFrom[p])
		}
		lastFrom[p] = i
	}
	wg.Wait()
	if m.len() != 0 {
		t.Fatalf("len = %d after consuming everything", m.len())
	}
}

// TestMailboxPushPopZeroAlloc is the allocation ceiling of the per-message
// floor: once both backing arrays exist, a steady push/tryPop cycle must
// not allocate (the payload is a pre-boxed value, as tram batches are in
// the real hot path).
func TestMailboxPushPopZeroAlloc(t *testing.T) {
	m := newMailbox()
	payload := any("batch")
	for i := 0; i < 2; i++ { // one push per backing array
		m.push(envelope{payload: payload})
		if _, ok := m.tryPop(); !ok {
			t.Fatal("warm pop failed")
		}
	}
	avg := testing.AllocsPerRun(1000, func() {
		m.push(envelope{kind: kindApp, payload: payload})
		if _, ok := m.tryPop(); !ok {
			t.Fatal("pop failed")
		}
	})
	if avg > 0 {
		t.Errorf("warm push/tryPop allocates %.2f objects, want 0", avg)
	}
}

// TestMailboxCloseRace closes the mailbox while producers are pushing and
// a consumer is draining; after pop reports closed-and-drained, len must
// be stable at zero and further pushes must be dropped. Run under -race.
func TestMailboxCloseRace(t *testing.T) {
	m := newMailbox()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				m.push(env(i))
				i++
			}
		}(p)
	}
	consumed := 0
	deadline := time.After(50 * time.Millisecond)
drain:
	for {
		select {
		case <-deadline:
			break drain
		default:
		}
		if _, ok := m.tryPop(); ok {
			consumed++
		}
	}
	m.close()
	close(stop)
	wg.Wait()
	// Drain whatever was accepted before close; pop must terminate.
	for {
		if _, ok := m.pop(); !ok {
			break
		}
		consumed++
	}
	if m.len() != 0 {
		t.Fatalf("len = %d after close and drain", m.len())
	}
	m.push(env(1))
	if m.len() != 0 {
		t.Error("push after close stored an item")
	}
	if consumed == 0 {
		t.Error("consumed nothing; test exercised nothing")
	}
}
