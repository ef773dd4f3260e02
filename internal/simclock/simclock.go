// Package simclock abstracts the wall-clock reads that the run drivers use
// to time a full execution. Every algorithm driver (core, deltastep,
// distctrl, cc) measures Elapsed the same way: stamp a start time before
// injecting the seed messages, subtract after Wait returns.
// Routing those reads through a Clock keeps the simulation packages free of
// direct time.Now/time.Since calls — the simcheck analyzer forbids them — and
// lets tests substitute a Fake clock for deterministic Elapsed values.
package simclock

import (
	"sync"
	"time"
)

// Clock supplies the two wall-clock operations the drivers need.
type Clock interface {
	Now() time.Time
	Since(t time.Time) time.Duration
}

// Wall reads the real wall clock. It is the default used when an Options
// struct leaves Clock nil, and the single sanctioned boundary through which
// simulation code may observe real time.
type Wall struct{}

// Now returns the current wall-clock time. (simclock is deliberately
// outside simcheck's deterministic set: Wall is the one sanctioned boundary.)
func (Wall) Now() time.Time { return time.Now() }

// Since returns the wall-clock duration since t.
func (Wall) Since(t time.Time) time.Duration { return time.Since(t) }

// Default returns clk, or Wall if clk is nil. Run drivers call this on
// Options.Clock so that zero-value Options keep their wall-clock behaviour.
func Default(clk Clock) Clock {
	if clk == nil {
		return Wall{}
	}
	return clk
}

// Fake is a manually advanced clock for tests. The zero value is ready to
// use and starts at the zero time.
type Fake struct {
	mu  sync.Mutex
	now time.Time
}

// NewFake returns a Fake clock positioned at start.
func NewFake(start time.Time) *Fake {
	return &Fake{now: start}
}

// Now returns the fake clock's current time.
func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// Since returns the difference between the fake clock's current time and t.
func (f *Fake) Since(t time.Time) time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now.Sub(t)
}

// Advance moves the fake clock forward by d.
func (f *Fake) Advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.now = f.now.Add(d)
}
