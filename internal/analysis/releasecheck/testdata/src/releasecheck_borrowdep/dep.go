// Package releasecheck_borrowdep is the dependency half of the
// cross-package borrowed-local fixture: its slice-parameter sink summaries
// are exported as ownership facts for the dependent package.
package releasecheck_borrowdep

import "arena"

type Update struct{ V int }

// Inspect iterates without releasing: a non-sink, so callers handing it a
// chunk keep the obligation.
func Inspect(chunk []Update) {
	for range chunk {
	}
}

// Recycle releases the chunk it is given: a sink.
func Recycle(ar *arena.Arena[Update], chunk []Update) {
	ar.PutShared(chunk)
}
