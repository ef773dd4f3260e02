package sockfab

import (
	"fmt"
	"sync"

	"acic/internal/fabric"
	"acic/internal/wire"
)

// MeshConfig describes an in-process mesh: every proc's Node lives in
// this process, connected to the others over loopback TCP. This is how a
// single Runtime (hosting all PEs) exercises the real serialization and
// socket path — messages between PEs whose procs differ cross a genuine
// TCP connection and come back through the codec.
type MeshConfig struct {
	NumProcs int
	NumPEs   int
	Owner    func(pe int) int
	Codec    *wire.Codec
}

// Mesh is a fabric.Fabric routing through NumProcs loopback-connected
// Nodes. Sends enter at the source PE's node; deliveries happen on the
// destination PE's node dispatcher, so per-destination serial delivery
// holds mesh-wide.
type Mesh struct {
	nodes []*Node //acic:allow-unpadded pointer slice: each Node is its own heap allocation, sharing nothing but the pointer array, which is read-only after NewMesh
	owner func(pe int) int

	closeOnce sync.Once
}

var (
	_ fabric.Fabric   = (*Mesh)(nil)
	_ fabric.Boundary = (*Mesh)(nil)
)

// NewMesh builds, connects, and starts the full mesh. deliver is shared:
// whichever node hosts the destination invokes it.
func NewMesh(cfg MeshConfig, deliver func(dst int, payload any)) (*Mesh, error) {
	if cfg.NumProcs <= 0 {
		return nil, fmt.Errorf("sockfab: mesh needs at least one proc")
	}
	m := &Mesh{nodes: make([]*Node, cfg.NumProcs), owner: cfg.Owner} //acic:allow-unpadded pointer slice, see the field's note
	addrs := make([]string, cfg.NumProcs)
	for p := 0; p < cfg.NumProcs; p++ {
		n, err := NewNode(NodeConfig{
			Proc: p, NumProcs: cfg.NumProcs, NumPEs: cfg.NumPEs,
			Owner: cfg.Owner, Codec: cfg.Codec,
		})
		if err != nil {
			return nil, err
		}
		addr, err := n.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		m.nodes[p] = n
		addrs[p] = addr
	}
	// Connect blocks until the peer mesh is complete, so all nodes must
	// connect concurrently.
	errs := make([]error, cfg.NumProcs)
	var wg sync.WaitGroup
	for p, n := range m.nodes {
		wg.Add(1)
		go func(p int, n *Node) {
			defer wg.Done()
			errs[p] = n.Connect(addrs)
		}(p, n)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, n := range m.nodes {
		n.Start(deliver)
	}
	return m, nil
}

// Send enters the mesh at src's node.
func (m *Mesh) Send(src, dst int, payload any, size int) fabric.SendResult {
	return m.nodes[m.owner(src)].Send(src, dst, payload, size)
}

// QueueLen sums the nodes' in-flight counts.
func (m *Mesh) QueueLen() int {
	total := 0
	for _, n := range m.nodes {
		total += n.QueueLen()
	}
	return total
}

// BoundaryCounts sums the per-node counters. After a drained Close the
// two sums are equal — every frame that left one node arrived at another.
func (m *Mesh) BoundaryCounts() (out, in int64) {
	for _, n := range m.nodes {
		o, i := n.BoundaryCounts()
		out += o
		in += i
	}
	return out, in
}

// Close shuts the whole mesh down: beginClose everywhere first (so every
// node flushes and half-closes while its peers still read), then
// finishClose everywhere. Idempotent.
func (m *Mesh) Close() {
	m.closeOnce.Do(func() {
		for _, n := range m.nodes {
			n.beginClose()
		}
		for _, n := range m.nodes {
			n.finishClose()
		}
	})
}
