// Package releasecheck_borrowx is the dependent half of the cross-package
// borrowed-local fixture: whether handing a chunk to an imported helper
// discharges the obligation is decided by the helper's exported sink
// summary, not assumed.
package releasecheck_borrowx

import (
	"arena"
	"releasecheck_borrowdep"
)

type state struct {
	ar *arena.Arena[releasecheck_borrowdep.Update]
}

// viaInspect hands the chunk to a known non-sink: the obligation bounces
// back and this function leaks it.
func (st *state) viaInspect() {
	chunk := st.ar.Get(0)
	releasecheck_borrowdep.Inspect(chunk)
} // want "arena chunk \"chunk\" may not be released on this path"

// viaRecycle hands the chunk to a known sink: ownership transfers, clean.
func (st *state) viaRecycle() {
	chunk := st.ar.Get(0)
	releasecheck_borrowdep.Recycle(st.ar, chunk)
}
