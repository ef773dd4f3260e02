// Package simcheck_atomicdep is the dependency half of the cross-package
// atomic fixture: its function-style atomic access is flagged where it is
// written, with no facts involved.
package simcheck_atomicdep

import "sync/atomic"

// Shared mimics a conservation counter pair shared across PEs.
type Shared struct {
	Sent uint64
	Recv atomic.Uint64
}

// Bump advances the counter through the banned function form.
func Bump(s *Shared) {
	atomic.AddUint64(&s.Sent, 1) // want "call to sync/atomic.AddUint64"
}

// BumpRecv advances the typed counter: clean.
func BumpRecv(s *Shared) {
	s.Recv.Add(1)
}
