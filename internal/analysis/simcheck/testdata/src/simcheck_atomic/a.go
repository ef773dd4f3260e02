// Package simcheck_atomic is a simcheck fixture for the atomic rule: every
// call to a sync/atomic package-level function is flagged, in any package;
// typed atomics and plain fields are clean.
package simcheck_atomic

import "sync/atomic"

type counters struct {
	sent      uint64
	delivered atomic.Uint64
	name      string
}

func (c *counters) inc() {
	atomic.AddUint64(&c.sent, 1) // want "call to sync/atomic.AddUint64: keep shared counters in a typed atomic"
}

func (c *counters) read() uint64 {
	return atomic.LoadUint64(&c.sent) // want "call to sync/atomic.LoadUint64"
}

// plainRead is no longer a finding of its own: with the function form
// banned, a field is either a typed atomic or never atomic at all.
func (c *counters) plainRead() uint64 {
	return c.sent
}

// delivered is a typed atomic: its methods are the only access, clean.
func (c *counters) incDelivered() { c.delivered.Add(1) }

func (c *counters) readDelivered() uint64 { return c.delivered.Load() }

// name is never atomic: plain access is free.
func (c *counters) nameRead() string { return c.name }

func newCounters() *counters { return &counters{sent: 0, name: "pe"} }
