// Package machine builds, drives and tears down one run of the
// message-driven machine: the paper's single substrate of PEs, a message
// fabric and a reduction tree (§II, §II-D) on which ACIC and every
// comparator run unchanged.
//
// It is the one place that turns a configuration into a running
// runtime.Runtime. Config.Validate owns the topology default and every
// check that needs no machine; Run picks the fabric (the simulated network,
// an in-process loopback TCP mesh, or one launched worker's node), starts
// one handler per hosted PE and keeps them indexed by PE, times the
// seed → Wait interval on the wall clock, and harvests the network
// counters and the conservation ledger once the fabric has drained.
// Algorithms supply only what differs between them: their handler, their
// seed messages, and how they read results out of the handler states.
package machine

import (
	"fmt"
	"time"

	"acic/internal/fabric"
	"acic/internal/netsim"
	"acic/internal/runtime"
	"acic/internal/simclock"
	"acic/internal/sockfab"
	"acic/internal/wire"
)

// Config describes one machine: a runtime.Config whose fabric the builder
// picks, plus what only a whole run needs. The zero value is a valid
// four-PE single-node simulated machine with zero latency.
type Config struct {
	// Config is passed to runtime.New with NewFabric filled in from Codec
	// or Node; a caller leaves NewFabric nil. A zero Topo means
	// netsim.SingleNode(4). Span is meaningful only with Node.
	runtime.Config

	// Codec, when non-nil, replaces the simulated network with real
	// sockets: one sockfab node per topology process, all in this address
	// space, connected over loopback TCP. It must cover every payload the
	// handlers send.
	Codec *wire.Codec
	// Node, when non-nil, makes this one worker of a multi-process launch:
	// the already-connected node is the fabric, and the machine hosts only
	// the PEs in Span (the node's topology process).
	Node *sockfab.Node
}

// Validate applies the topology default in place, reports every
// configuration error that can be found without building the machine, and
// returns the topology the machine will have. Run calls it; a caller that
// sizes its own state from the topology, or must fail before binding a
// listener, calls it first.
func (c *Config) Validate() (netsim.Topology, error) {
	if c.Topo == (netsim.Topology{}) {
		c.Topo = netsim.SingleNode(4)
	}
	if err := c.Topo.Validate(); err != nil {
		return c.Topo, err
	}
	if c.NewFabric != nil {
		return c.Topo, fmt.Errorf("machine: the builder installs the fabric; set Codec or Node, not NewFabric")
	}
	if c.Node == nil && c.Span != (runtime.Span{}) {
		return c.Topo, fmt.Errorf("machine: Span [%d, %d) needs the worker Node that carries the other PEs' traffic", c.Span.Lo, c.Span.Hi)
	}
	rc := c.runtimeConfig()
	return c.Topo, rc.Validate()
}

// runtimeConfig is the embedded runtime.Config with the fabric for the
// configured transport installed (none for the simulated network).
func (c *Config) runtimeConfig() runtime.Config {
	rc := c.Config
	switch {
	case c.Node != nil:
		rc.NewFabric = func(deliver func(dst int, payload any)) (fabric.Fabric, error) {
			c.Node.Start(deliver)
			return c.Node, nil
		}
	case c.Codec != nil:
		rc.NewFabric = func(deliver func(dst int, payload any)) (fabric.Fabric, error) {
			return sockfab.NewMesh(sockfab.MeshConfig{
				NumProcs: c.Topo.TotalProcs(),
				NumPEs:   c.Topo.TotalPEs(),
				Owner:    c.Topo.ProcessOf,
				Codec:    c.Codec,
			}, deliver)
		}
	}
	return rc
}

// Result is what a finished run leaves behind.
type Result[H runtime.Handler] struct {
	// Handlers holds the handler of every hosted PE, indexed by global PE
	// id; entries outside the hosted span are H's zero value.
	Handlers []H
	// Elapsed is the seed → termination interval on the wall clock.
	Elapsed time.Duration
	// Network is the simulated network's counters (zero over TCP) and
	// Audit the conservation ledger, both read after the fabric drained.
	Network netsim.Stats
	Audit   runtime.Audit
}

// Run builds the machine cfg describes, installs newHandler's handler on
// every hosted PE, calls seed to inject the initial messages, blocks until
// a handler exits the run, and tears the fabric down.
func Run[H runtime.Handler](cfg Config, newHandler func(pe *runtime.PE) H, seed func(rt *runtime.Runtime)) (*Result[H], error) {
	if _, err := cfg.Validate(); err != nil {
		return nil, err
	}
	rt, err := runtime.New(cfg.runtimeConfig())
	if err != nil {
		return nil, err
	}
	res := &Result[H]{Handlers: make([]H, cfg.Topo.TotalPEs())}
	rt.Start(func(pe *runtime.PE) runtime.Handler {
		h := newHandler(pe)
		res.Handlers[pe.Index()] = h
		return h
	})
	clk := simclock.Wall{}
	start := clk.Now()
	seed(rt)
	rt.Wait()
	res.Elapsed = clk.Since(start)
	res.Network = rt.NetworkStats()
	res.Audit = rt.Audit()
	return res, nil
}
