package runtime

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"acic/internal/fabric"
	"acic/internal/netsim"
	"acic/internal/trace"
)

// testTimeout guards against deadlocked runtimes hanging the suite.
func waitOrFail(t *testing.T, rt *Runtime, d time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		rt.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(d):
		rt.RequestExit()
		t.Fatal("runtime did not terminate in time")
	}
}

func zeroCfg(pes int) Config {
	return Config{Topo: netsim.SingleNode(pes), Latency: netsim.ZeroLatency()}
}

// pingPong sends a token around the ring once and exits at the origin.
type pingPong struct {
	NopControl
	hops  *atomic.Int64
	limit int64
}

func (h *pingPong) Deliver(pe *PE, msg any) {
	n := h.hops.Add(1)
	if n >= h.limit {
		pe.Exit()
		return
	}
	pe.Send((pe.Index()+1)%pe.NumPEs(), msg, 1)
}

func (h *pingPong) Idle(pe *PE) bool { return false }

func TestMessageRing(t *testing.T) {
	var hops atomic.Int64
	rt, err := New(zeroCfg(8))
	if err != nil {
		t.Fatal(err)
	}
	rt.Start(func(pe *PE) Handler { return &pingPong{hops: &hops, limit: 100} })
	// Kick off from outside: inject into PE 0 via an internal send.
	rt.send(0, 0, envelope{kind: kindApp, payload: "token"}, 1)
	waitOrFail(t, rt, 5*time.Second)
	if got := hops.Load(); got != 100 {
		t.Errorf("hops = %d, want 100", got)
	}
}

func TestMessageRingWithLatency(t *testing.T) {
	var hops atomic.Int64
	cfg := Config{
		Topo:    netsim.PaperNode(2),
		Latency: netsim.LatencyModel{IntraProcess: time.Microsecond, IntraNode: 2 * time.Microsecond, InterNode: 5 * time.Microsecond},
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start(func(pe *PE) Handler { return &pingPong{hops: &hops, limit: 200} })
	rt.send(0, 0, envelope{kind: kindApp, payload: "token"}, 1)
	waitOrFail(t, rt, 10*time.Second)
	if got := hops.Load(); got != 200 {
		t.Errorf("hops = %d, want 200", got)
	}
}

// idleWorker counts Idle invocations and exits after enough of them.
type idleWorker struct {
	NopControl
	idleCalls int
	done      *atomic.Int64
}

func (h *idleWorker) Deliver(pe *PE, msg any) {}

func (h *idleWorker) Idle(pe *PE) bool {
	h.idleCalls++
	if h.idleCalls == 50 {
		if h.done.Add(1) == int64(pe.NumPEs()) {
			pe.Exit()
		}
		return false
	}
	return h.idleCalls < 50
}

func TestIdleTrigger(t *testing.T) {
	var done atomic.Int64
	rt, err := New(zeroCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	handlers := make([]*idleWorker, 0, 4)
	var mu sync.Mutex
	rt.Start(func(pe *PE) Handler {
		h := &idleWorker{done: &done}
		mu.Lock()
		handlers = append(handlers, h)
		mu.Unlock()
		return h
	})
	waitOrFail(t, rt, 5*time.Second)
	for i, h := range handlers {
		if h.idleCalls < 50 {
			t.Errorf("handler %d got %d idle calls, want >= 50", i, h.idleCalls)
		}
	}
}

// reducer contributes its PE index each epoch; the root records totals.
type reducer struct {
	NopControl
	epochs  int64
	results chan int64
}

func (h *reducer) Deliver(pe *PE, msg any) {}
func (h *reducer) Idle(pe *PE) bool        { return false }

func (h *reducer) OnReduction(pe *PE, epoch int64, value any) {
	h.results <- value.(int64)
	if epoch+1 < h.epochs {
		pe.Broadcast(epoch+1, nil)
	} else {
		pe.Exit()
	}
}

func (h *reducer) OnBroadcast(pe *PE, epoch int64, payload any) {
	pe.Contribute(epoch, int64(pe.Index()))
}

func TestReductionTreeSumsAllPEs(t *testing.T) {
	const pes = 11 // odd count exercises incomplete tree levels
	results := make(chan int64, 16)
	cfg := zeroCfg(pes)
	cfg.Combine = func(a, b any) any { return a.(int64) + b.(int64) }
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var root *reducer
	rt.Start(func(pe *PE) Handler {
		h := &reducer{epochs: 5, results: results}
		if pe.Index() == 0 {
			root = h
		}
		return h
	})
	// Start the first cycle: every PE contributes to epoch 0. Trigger via a
	// broadcast from the root so all PEs enter the cycle the same way.
	rt.pes[0].mbox.push(envelope{kind: kindBroadcast, epoch: 0, payload: nil})
	waitOrFail(t, rt, 5*time.Second)
	_ = root
	close(results)
	want := int64(pes * (pes - 1) / 2)
	count := 0
	for v := range results {
		count++
		if v != want {
			t.Errorf("reduction result %d, want %d", v, want)
		}
	}
	if count != 5 {
		t.Errorf("got %d reductions, want 5", count)
	}
}

func TestConcurrentEpochsInFlight(t *testing.T) {
	// Contribute to epochs 0..9 all at once from every PE; each must
	// resolve independently.
	const pes = 7
	const epochs = 10
	results := make(chan int64, epochs)
	cfg := zeroCfg(pes)
	cfg.Combine = func(a, b any) any { return a.(int64) + b.(int64) }
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var seen atomic.Int64
	type burst struct{ NopControl }
	rt.Start(func(pe *PE) Handler {
		return &burstHandler{results: results, seen: &seen, epochs: epochs}
	})
	_ = burst{}
	for _, pe := range rt.pes {
		p := pe
		rt.send(0, p.index, envelope{kind: kindApp, payload: "go"}, 1)
	}
	waitOrFail(t, rt, 5*time.Second)
	close(results)
	count := 0
	want := int64(pes * (pes - 1) / 2)
	for v := range results {
		count++
		if v != want {
			t.Errorf("epoch sum = %d, want %d", v, want)
		}
	}
	if count != epochs {
		t.Errorf("resolved %d epochs, want %d", count, epochs)
	}
}

type burstHandler struct {
	NopControl
	results chan int64
	seen    *atomic.Int64
	epochs  int64
}

func (h *burstHandler) Deliver(pe *PE, msg any) {
	for e := int64(0); e < h.epochs; e++ {
		pe.Contribute(e, int64(pe.Index()))
	}
}

func (h *burstHandler) Idle(pe *PE) bool { return false }

func (h *burstHandler) OnReduction(pe *PE, epoch int64, value any) {
	h.results <- value.(int64)
	if h.seen.Add(1) == h.epochs {
		pe.Exit()
	}
}

func TestBroadcastReachesEveryPE(t *testing.T) {
	const pes = 13
	var got atomic.Int64
	cfg := zeroCfg(pes)
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start(func(pe *PE) Handler { return &bcastHandler{got: &got, pes: pes} })
	rt.pes[0].mbox.push(envelope{kind: kindBroadcast, epoch: 7, payload: "hello"})
	waitOrFail(t, rt, 5*time.Second)
	if got.Load() != pes {
		t.Errorf("broadcast reached %d PEs, want %d", got.Load(), pes)
	}
}

type bcastHandler struct {
	NopControl
	got *atomic.Int64
	pes int64
}

func (h *bcastHandler) Deliver(pe *PE, msg any) {}
func (h *bcastHandler) Idle(pe *PE) bool        { return false }
func (h *bcastHandler) OnBroadcast(pe *PE, epoch int64, payload any) {
	if epoch != 7 || payload != "hello" {
		panic("wrong broadcast content")
	}
	if h.got.Add(1) == h.pes {
		pe.Exit()
	}
}

func TestBroadcastPanicsOffRoot(t *testing.T) {
	rt, err := New(zeroCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	pe1 := rt.pes[1]
	defer func() {
		rt.RequestExit()
		if recover() == nil {
			t.Error("Broadcast from PE 1 did not panic")
		}
	}()
	pe1.Broadcast(0, nil)
}

func TestContributeWithoutCombinePanics(t *testing.T) {
	rt, err := New(zeroCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		rt.RequestExit()
		if recover() == nil {
			t.Error("Contribute without Combine did not panic")
		}
	}()
	rt.pes[0].Contribute(0, 1)
}

// quiesceApp floods some messages then goes idle; the runtime detector must
// fire exactly once at PE 0.
type quiesceApp struct {
	NopControl
	fired *atomic.Int64
}

func (h *quiesceApp) Deliver(pe *PE, msg any) {
	if _, ok := msg.(Quiescence); ok {
		h.fired.Add(1)
		pe.Exit()
		return
	}
	// Forward a few times then stop.
	if n := msg.(int); n > 0 {
		pe.Send((pe.Index()+1)%pe.NumPEs(), n-1, 1)
	}
}

func (h *quiesceApp) Idle(pe *PE) bool { return false }

func TestRuntimeQuiescenceDetection(t *testing.T) {
	var fired atomic.Int64
	cfg := zeroCfg(4)
	cfg.QuiescencePoll = 500 * time.Microsecond
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start(func(pe *PE) Handler { return &quiesceApp{fired: &fired} })
	for i := 0; i < 4; i++ {
		rt.send(0, i, envelope{kind: kindApp, payload: 20}, 1)
	}
	waitOrFail(t, rt, 5*time.Second)
	if fired.Load() != 1 {
		t.Errorf("quiescence fired %d times, want 1", fired.Load())
	}
}

func TestQuiescenceNotPremature(t *testing.T) {
	// A long message chain with injected latency: QD must not fire while
	// messages are still bouncing through the delay queue.
	var hops atomic.Int64
	var fired atomic.Int64
	cfg := Config{
		Topo:           netsim.SingleNode(2),
		Latency:        netsim.LatencyModel{IntraProcess: 300 * time.Microsecond},
		QuiescencePoll: 100 * time.Microsecond,
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start(func(pe *PE) Handler { return &chainApp{hops: &hops, fired: &fired, want: 10} })
	rt.send(0, 1, envelope{kind: kindApp, payload: 10}, 1)
	waitOrFail(t, rt, 10*time.Second)
	if hops.Load() != 10 {
		t.Errorf("chain stopped at %d hops, want 10 — QD fired early", hops.Load())
	}
}

type chainApp struct {
	NopControl
	hops  *atomic.Int64
	fired *atomic.Int64
	want  int64
}

func (h *chainApp) Deliver(pe *PE, msg any) {
	if _, ok := msg.(Quiescence); ok {
		if h.hops.Load() != h.want {
			panic("quiescence before chain finished")
		}
		pe.Exit()
		return
	}
	n := msg.(int)
	h.hops.Add(1)
	if n > 1 {
		pe.Send(1-pe.Index(), n-1, 1)
	}
}

func (h *chainApp) Idle(pe *PE) bool { return false }

func TestDeliveredCounter(t *testing.T) {
	var hops atomic.Int64
	rt, err := New(zeroCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	rt.Start(func(pe *PE) Handler { return &pingPong{hops: &hops, limit: 40} })
	rt.send(0, 0, envelope{kind: kindApp, payload: "t"}, 1)
	waitOrFail(t, rt, 5*time.Second)
	total := rt.pes[0].Delivered() + rt.pes[1].Delivered()
	if total != 40 {
		t.Errorf("total delivered = %d, want 40", total)
	}
}

func TestTreeShape(t *testing.T) {
	// Parent/children must be mutually consistent for every size.
	for n := 1; n <= 40; n++ {
		for i := 1; i < n; i++ {
			p := treeParent(i)
			c1, c2, _ := treeChildren(p, n)
			if i != c1 && i != c2 {
				t.Fatalf("n=%d: %d not a child of its parent %d", n, i, p)
			}
		}
		// Count edges: a tree over n nodes has n-1.
		edges := 0
		for i := 0; i < n; i++ {
			_, _, k := treeChildren(i, n)
			edges += k
		}
		if edges != n-1 {
			t.Fatalf("n=%d: %d tree edges, want %d", n, edges, n-1)
		}
	}
}

func TestRequestExitIdempotent(t *testing.T) {
	rt, err := New(zeroCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	rt.Start(func(pe *PE) Handler { return &pingPong{hops: new(atomic.Int64), limit: 1} })
	rt.RequestExit()
	rt.RequestExit()
	waitOrFail(t, rt, 2*time.Second)
}

func TestTraceIntegration(t *testing.T) {
	var hops atomic.Int64
	cfg := zeroCfg(2)
	rec := trace.New(2, 1024)
	cfg.Trace = rec
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start(func(pe *PE) Handler { return &pingPong{hops: &hops, limit: 50} })
	rt.send(0, 0, envelope{kind: kindApp, payload: "t"}, 1)
	waitOrFail(t, rt, 5*time.Second)
	total := int64(0)
	for pe := 0; pe < 2; pe++ {
		total += rec.Counts(pe)[trace.KindDeliver]
	}
	if total != 50 {
		t.Errorf("traced %d deliveries, want 50", total)
	}
	// The ring blocks between hops: block/wake events must appear.
	sums := rec.Summarize()
	blocks := sums[0].ByKind[trace.KindBlock] + sums[1].ByKind[trace.KindBlock]
	if blocks == 0 {
		t.Error("no block events traced")
	}
}

func BenchmarkSendDeliverZeroLatency(b *testing.B) {
	var hops atomic.Int64
	rt, err := New(zeroCfg(2))
	if err != nil {
		b.Fatal(err)
	}
	rt.Start(func(pe *PE) Handler { return &pingPong{hops: &hops, limit: int64(b.N)} })
	b.ResetTimer()
	rt.send(0, 0, envelope{kind: kindApp, payload: "t"}, 1)
	rt.Wait()
}

// TestNewRejectsSimKnobsOnCustomFabric pins the backstop every direct
// caller of New gets: a knob that only the simulated network can honor is
// an error on a custom fabric, never silently ignored.
func TestNewRejectsSimKnobsOnCustomFabric(t *testing.T) {
	called := false
	custom := func(func(dst int, payload any)) (fabric.Fabric, error) {
		called = true
		return nil, errors.New("fabric built for a rejected config")
	}
	for knob, set := range map[string]func(*Config){
		"Latency": func(c *Config) { c.Latency = netsim.DefaultLatency() },
		"Jitter":  func(c *Config) { c.Jitter = func(_, _, _ int, base time.Duration) time.Duration { return base } },
		"Fault":   func(c *Config) { c.Fault.Drop = func(src, dst, size int) bool { return false } },
	} {
		cfg := Config{Topo: netsim.SingleNode(2), NewFabric: custom}
		set(&cfg)
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), knob) {
			t.Errorf("%s on a custom fabric: New error = %v, want one naming the knob", knob, err)
		}
	}
	if called {
		t.Error("NewFabric ran for a config that should have been rejected first")
	}
}

// fifoSink checks, on the receiving PE, that every source's messages arrive
// in that source's send order, and exits once all have.
type fifoSink struct {
	NopControl
	next  map[int]int // source id -> next expected sequence number
	want  int         // total messages expected
	got   int
	fails *atomic.Int64
}

type fifoMsg struct{ src, seq int }

func (h *fifoSink) Deliver(pe *PE, msg any) {
	switch m := msg.(type) {
	case string: // "go": burst from this PE's own goroutine
		for i := 0; i < h.want/2; i++ {
			pe.Send(1, fifoMsg{src: pe.Index(), seq: i}, 1)
		}
	case fifoMsg:
		if m.seq != h.next[m.src] {
			h.fails.Add(1)
		}
		h.next[m.src] = m.seq + 1
		if h.got++; h.got == h.want {
			pe.Exit()
		}
	}
}

func (h *fifoSink) Idle(pe *PE) bool { return false }

// TestSendKeepsPairOrderFromAnyGoroutine drives the one send function the
// two ways it is reached — from a PE's handler and from outside the PE
// array (Inject) — into the same destination at once, in bursts of
// thousands, and requires per-source order, exactly-once delivery and a
// balanced ledger. (TestMailboxConcurrentProducersFIFO pins the backlog
// depth; this pins the runtime's routing on top of it.)
func TestSendKeepsPairOrderFromAnyGoroutine(t *testing.T) {
	const per = 4000
	var fails atomic.Int64
	rt, err := New(zeroCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	rt.Start(func(pe *PE) Handler {
		return &fifoSink{next: map[int]int{}, want: 2 * per, fails: &fails}
	})
	rt.Inject(0, "go")
	for i := 0; i < per; i++ {
		rt.Inject(1, fifoMsg{src: -1, seq: i})
	}
	waitOrFail(t, rt, 10*time.Second)
	if n := fails.Load(); n != 0 {
		t.Errorf("%d messages arrived out of their source's order", n)
	}
	// 2*per messages to PE 1 plus the "go" token, each delivered once.
	if a := rt.Audit(); a.Delivered != 2*per+1 || a.Unaccounted() != 0 {
		t.Errorf("delivered %d (want %d), unaccounted %d: %+v", a.Delivered, 2*per+1, a.Unaccounted(), a)
	}
}
