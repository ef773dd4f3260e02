// Package simcheck_clock is a simcheck fixture for the deterministic
// packages: wall-clock and rand offenses alongside blessed and clean code.
package simcheck_clock

import (
	"math/rand" // want "import of math/rand in deterministic package"
	"time"
)

func bad() time.Duration {
	start := time.Now()          // want "call to time.Now in deterministic package"
	time.Sleep(time.Millisecond) // want "call to time.Sleep in deterministic package"
	_ = rand.Int()
	return time.Since(start) // want "call to time.Since in deterministic package"
}

// blessedFunc is reporting code whose whole body is exempted by a
// doc-comment directive.
//
//acic:allow-wallclock fixture: wall time is the measurement itself
func blessedFunc() time.Time {
	return time.Now()
}

func blessedLine() time.Time {
	return time.Now() //acic:allow-wallclock fixture: measurement boundary
}

func blessedAbove() time.Time {
	//acic:allow-wallclock fixture: directive on the line above
	return time.Now()
}

// spawn is clean here: this fixture is deterministic but not listed as
// runtime-managed, so the goroutine rule does not apply.
func spawn(f func()) {
	go f()
}

func fine(d time.Duration) time.Duration {
	return d * 2
}
