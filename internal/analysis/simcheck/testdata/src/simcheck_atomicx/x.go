// Package simcheck_atomicx is the dependent half of the cross-package
// atomic fixture: an atomic call on an imported field is flagged at the
// call, and reading the imported typed counter is clean.
package simcheck_atomicx

import (
	"sync/atomic"

	"simcheck_atomicdep"
)

// quiescentAtomic uses the function form on the imported field.
func quiescentAtomic(s *simcheck_atomicdep.Shared) bool {
	return atomic.LoadUint64(&s.Sent) == 0 // want "call to sync/atomic.LoadUint64"
}

// quiescentTyped reads the typed counter through its method: clean.
func quiescentTyped(s *simcheck_atomicdep.Shared) bool {
	return s.Recv.Load() == 0
}
