package bench

import (
	goruntime "runtime"
	"sync/atomic"
	"time"

	"acic/internal/collect"
	"acic/internal/machine"
	"acic/internal/netsim"
	"acic/internal/runtime"
)

// Fig. 3 reproduces the paper's standalone reduction-overhead study
// (§IV-D): over a fixed window every PE repeatedly executes 10µs work
// methods; the run is repeated with and without a concurrent
// reduction/broadcast cycle, and the loss in executed methods is normalized
// by the number of reductions that occurred. The paper measures a
// 0.0015-0.0035% work loss per reduction per second on Frontier; the
// simulated machine should land in the same "negligible" regime.

// Fig3Point is one parallelism level's measurement.
type Fig3Point struct {
	PEs                 int
	MethodsOff          int64 // work methods executed without reductions
	MethodsOn           int64 // with the concurrent cycle
	Reductions          int64
	ReductionsPerSec    float64
	LossPerReductionPct float64
}

// workHandler busy-spins 10µs per idle invocation, mimicking the paper's
// synthetic work methods, and optionally participates in a continuous
// reduction cycle.
type workHandler struct {
	methodDuration time.Duration
	methods        int64

	withReductions bool
	cycleDelay     time.Duration
	reductions     int64        // root only
	stopped        *atomic.Bool // set when the window closes; shared by all PEs

	// Handlers are small heap objects allocated back-to-back at Start, so
	// without padding two PEs' method counters can land on one cache line
	// and skew the very contention this benchmark measures.
	_ [64]byte
}

type fig3Cycle struct{ epoch int64 }

func (h *workHandler) Deliver(pe *runtime.PE, msg any) {
	switch m := msg.(type) {
	case fig3Cycle:
		pe.Broadcast(m.epoch, nil)
	}
}

// Idle busy-spins for one method duration to occupy the PE.
//
//acic:allow-wallclock the benchmark measures real method occupancy, so the spin must read the wall clock
func (h *workHandler) Idle(pe *runtime.PE) bool {
	deadline := time.Now().Add(h.methodDuration)
	for time.Now().Before(deadline) {
		// Busy spin: the method occupies the PE exactly as real update
		// processing would.
	}
	h.methods++
	// The paper's testbed gives every PE its own core; on a host with
	// fewer cores than PEs the Go scheduler must be handed the boundary
	// between methods explicitly, or a runnable spinner monopolizes its
	// core for a full preemption quantum and the reduction messages crawl.
	goruntime.Gosched()
	return true
}

func (h *workHandler) OnBroadcast(pe *runtime.PE, epoch int64, payload any) {
	pe.Contribute(epoch, int64(1))
}

func (h *workHandler) OnReduction(pe *runtime.PE, epoch int64, value any) {
	if h.stopped.Load() {
		return
	}
	h.reductions++
	rt := pe.Runtime()
	next := epoch + 1
	if h.cycleDelay > 0 {
		time.AfterFunc(h.cycleDelay, func() { rt.Inject(0, fig3Cycle{epoch: next}) })
		return
	}
	rt.Inject(0, fig3Cycle{epoch: next})
}

// fig3Run executes one window and returns total methods and reductions.
func (c Config) fig3Run(pes int, window time.Duration, withReductions bool, cycleDelay time.Duration) (methods, reductions int64, err error) {
	var stopped atomic.Bool
	run, err := machine.Run(
		machine.Config{Config: runtime.Config{
			Topo:    netsim.SingleNode(pes),
			Latency: c.Latency,
			Combine: func(a, b any) any { return a.(int64) + b.(int64) },
		}},
		func(pe *runtime.PE) *workHandler {
			return &workHandler{methodDuration: 10 * time.Microsecond, withReductions: withReductions, cycleDelay: cycleDelay, stopped: &stopped}
		},
		func(rt *runtime.Runtime) {
			if withReductions {
				rt.Inject(0, fig3Cycle{epoch: 0})
			}
			time.AfterFunc(window, func() {
				stopped.Store(true)
				rt.RequestExit()
			})
		})
	if err != nil {
		return 0, 0, err
	}
	for _, h := range run.Handlers {
		methods += h.methods
	}
	return methods, run.Handlers[0].reductions, nil
}

// Fig3ReductionOverhead measures the per-reduction work loss across PE
// counts. window is the measurement duration per configuration (the paper
// uses 5 seconds; tests use much less).
func (c Config) Fig3ReductionOverhead(peCounts []int, window time.Duration) ([]Fig3Point, error) {
	cycleDelay := 500 * time.Microsecond // ~2000 reductions/s target pace
	var points []Fig3Point
	for _, pes := range peCounts {
		off, _, err := c.fig3Run(pes, window, false, cycleDelay)
		if err != nil {
			return nil, err
		}
		on, reds, err := c.fig3Run(pes, window, true, cycleDelay)
		if err != nil {
			return nil, err
		}
		pt := Fig3Point{PEs: pes, MethodsOff: off, MethodsOn: on, Reductions: reds}
		pt.ReductionsPerSec = float64(reds) / window.Seconds()
		if off > 0 && reds > 0 {
			lossPct := 100 * float64(off-on) / float64(off)
			if lossPct < 0 {
				lossPct = 0 // measurement noise can favor the reduction run
			}
			pt.LossPerReductionPct = lossPct / (pt.ReductionsPerSec * window.Seconds())
		}
		points = append(points, pt)
	}
	return points, nil
}

// Fig3Table renders the overhead study.
func Fig3Table(points []Fig3Point) *collect.Table {
	t := collect.NewTable("Fig 3: reduction overhead (work-method loss per reduction)",
		"PEs", "methods(off)", "methods(on)", "reductions/s", "loss%/reduction")
	for _, p := range points {
		t.AddRow(p.PEs, p.MethodsOff, p.MethodsOn, p.ReductionsPerSec, p.LossPerReductionPct)
	}
	return t
}
