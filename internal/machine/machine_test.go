package machine

import (
	"strings"
	"sync"
	"testing"
	"time"

	"acic/internal/fabric"
	"acic/internal/netsim"
	"acic/internal/runtime"
	"acic/internal/simclock"
	"acic/internal/sockfab"
	"acic/internal/wire"
)

// probe is the smallest handler that terminates: it exits its runtime on
// the first message and remembers which PE it was built for.
type probe struct {
	runtime.NopControl
	pe int
}

func (p *probe) Deliver(pe *runtime.PE, msg any) { pe.Exit() }
func (p *probe) Idle(pe *runtime.PE) bool        { return false }

func newProbe(pe *runtime.PE) *probe { return &probe{pe: pe.Index()} }

// stopLowest ends the run from the lowest hosted PE.
func stopLowest(rt *runtime.Runtime) { rt.Inject(rt.HostedSpan().Lo, struct{}{}) }

// TestRunDefaultsAndHarvest pins what every caller relies on, over both
// single-process fabrics: the zero topology is SingleNode(4), handlers come
// back indexed by PE, Elapsed is read off the configured clock around
// seed → Wait, and the ledger closes.
func TestRunDefaultsAndHarvest(t *testing.T) {
	for name, cfg := range map[string]Config{
		"sim":  {},
		"mesh": {Codec: wire.NewCodec()},
	} {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			clk := simclock.NewFake(time.Unix(0, 0))
			cfg.Clock = clk
			res, err := Run(cfg, newProbe, func(rt *runtime.Runtime) {
				if got := rt.Topology(); got != netsim.SingleNode(4) {
					t.Errorf("topology = %+v, want SingleNode(4)", got)
				}
				clk.Advance(5 * time.Millisecond)
				stopLowest(rt)
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Handlers) != 4 {
				t.Fatalf("got %d handlers, want 4", len(res.Handlers))
			}
			for i, h := range res.Handlers {
				if h == nil || h.pe != i {
					t.Errorf("Handlers[%d] = %+v, want the handler built for PE %d", i, h, i)
				}
			}
			if res.Elapsed != 5*time.Millisecond {
				t.Errorf("Elapsed = %v, want the 5ms the fake clock advanced", res.Elapsed)
			}
			if un := res.Audit.Unaccounted(); un != 0 || res.Audit.NetQueue != 0 {
				t.Errorf("ledger not closed: %d unaccounted, %d queued", un, res.Audit.NetQueue)
			}
		})
	}
}

// TestRunRejectsBadConfig covers the errors that must surface before any
// PE starts. A rejected worker span never touches its node, so an unbuilt
// one stands in.
func TestRunRejectsBadConfig(t *testing.T) {
	jitter := func(src, dst, size int, base time.Duration) time.Duration { return base }
	drop := netsim.FaultPlan{Drop: func(src, dst, size int) bool { return false }}
	sim := func(rc runtime.Config) Config { return Config{Config: rc} }
	tcp := func(rc runtime.Config) Config { return Config{Config: rc, Codec: wire.NewCodec()} }
	worker := func(rc runtime.Config) Config { return Config{Config: rc, Node: new(sockfab.Node)} }
	cases := map[string]struct {
		cfg  Config
		want string
	}{
		"invalid topology":       {sim(runtime.Config{Topo: netsim.Topology{Nodes: 1, ProcsPerNode: -1, PEsPerProc: 2}}), ""},
		"caller's own fabric":    {sim(runtime.Config{NewFabric: func(func(int, any)) (fabric.Fabric, error) { return nil, nil }}), "NewFabric"},
		"span past the topology": {worker(runtime.Config{Span: runtime.Span{Lo: 2, Hi: 9}}), "span [2, 9)"},
		"inverted span":          {worker(runtime.Config{Span: runtime.Span{Lo: 3, Hi: 1}}), "span [3, 1)"},
		"span without a node":    {tcp(runtime.Config{Span: runtime.Span{Lo: 0, Hi: 2}}), "Span [0, 2)"},
		"latency over tcp":       {tcp(runtime.Config{Latency: netsim.DefaultLatency()}), "Latency"},
		"jitter over tcp":        {tcp(runtime.Config{Jitter: jitter}), "Jitter"},
		"fault over tcp":         {tcp(runtime.Config{Fault: drop}), "Fault"},
		"latency on a worker":    {worker(runtime.Config{Span: runtime.Span{Lo: 0, Hi: 2}, Latency: netsim.DefaultLatency()}), "Latency"},
	}
	for name, tc := range cases {
		tc := tc
		t.Run(name, func(t *testing.T) {
			_, err := Run(tc.cfg, newProbe, func(*runtime.Runtime) { t.Error("seed ran on a rejected config") })
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Run error = %v, want one naming %q", err, tc.want)
			}
		})
	}
}

// TestRunWorkerSpans runs a two-process machine as two workers, each on its
// own sockfab node: a worker builds handlers only for its span and leaves
// the rest of the PE-indexed slice nil.
func TestRunWorkerSpans(t *testing.T) {
	topo := netsim.Topology{Nodes: 1, ProcsPerNode: 2, PEsPerProc: 2}
	nodes := make([]*sockfab.Node, topo.TotalProcs())
	addrs := make([]string, len(nodes))
	for p := range nodes {
		n, err := sockfab.NewNode(sockfab.NodeConfig{
			Proc: p, NumProcs: len(nodes), NumPEs: topo.TotalPEs(),
			Owner: topo.ProcessOf, Codec: wire.NewCodec(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if addrs[p], err = n.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		nodes[p] = n
	}

	results := make([]*Result[*probe], len(nodes))
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for p, n := range nodes {
		wg.Add(1)
		go func(p int, n *sockfab.Node) {
			defer wg.Done()
			if errs[p] = n.Connect(addrs); errs[p] != nil {
				return
			}
			cfg := Config{Config: runtime.Config{Topo: topo}, Node: n}
			cfg.Span.Lo, cfg.Span.Hi = topo.PEsOfProcess(p)
			results[p], errs[p] = Run(cfg, newProbe, stopLowest)
		}(p, n)
	}
	wg.Wait()

	for p, res := range results {
		if errs[p] != nil {
			t.Fatalf("worker %d: %v", p, errs[p])
		}
		lo, hi := topo.PEsOfProcess(p)
		for i, h := range res.Handlers {
			switch hosted := i >= lo && i < hi; {
			case hosted && (h == nil || h.pe != i):
				t.Errorf("worker %d: Handlers[%d] = %+v, want the handler built for PE %d", p, i, h, i)
			case !hosted && h != nil:
				t.Errorf("worker %d: Handlers[%d] set outside its span [%d, %d)", p, i, lo, hi)
			}
		}
		if un := res.Audit.Unaccounted(); un != 0 {
			t.Errorf("worker %d: ledger not closed: %d unaccounted", p, un)
		}
	}
}
