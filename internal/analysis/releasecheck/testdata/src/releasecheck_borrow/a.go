// Package releasecheck_borrow is the borrowed-local fixture: chunk/buffer
// borrowers that leak on some path or touch a chunk after releasing it are
// flagged; borrowers that release, transfer, defer, or store are clean.
package releasecheck_borrow

import (
	"arena"
	"tram"
)

type update struct{ v int }

type state struct {
	ar      *arena.Arena[update]
	tm      *tram.Manager[update]
	fwdBufs [][]update
}

// getGood borrows and returns the chunk: clean.
func (st *state) getGood() {
	chunk := st.ar.Get(0)
	chunk = append(chunk, update{1})
	st.ar.Put(0, chunk)
}

// getLeak borrows and drops the chunk.
func (st *state) getLeak() {
	chunk := st.ar.Get(0)
	_ = len(chunk)
} // want "arena chunk \"chunk\" may not be released on this path"

// getEarlyReturn leaks only on the early-return path.
func (st *state) getEarlyReturn(n int) {
	chunk := st.ar.Get(0)
	if n == 0 {
		return // want "arena chunk \"chunk\" may not be released on this path"
	}
	st.ar.Put(0, chunk)
}

// getDefer releases through a defer: clean.
func (st *state) getDefer() {
	chunk := st.ar.Get(0)
	defer st.ar.PutShared(chunk)
	chunk = append(chunk, update{2})
}

// borrowDemux mirrors the runtime demux pattern: the buffer borrowed
// inside the if-arm is discharged later in the loop body by storing the
// appended slice into the held-buffer table. Clean.
func (st *state) borrowDemux(items []update, owners []int) {
	for i, u := range items {
		owner := owners[i]
		buf := st.fwdBufs[owner]
		if buf == nil {
			buf = st.tm.Borrow(0)
		}
		st.fwdBufs[owner] = append(buf, u)
	}
}

// borrowLoopLeak borrows inside the loop and drops the buffer before the
// iteration ends.
func (st *state) borrowLoopLeak(n int) {
	for i := 0; i < n; i++ {
		buf := st.tm.Borrow(0)
		_ = cap(buf)
	} // want "tram buffer \"buf\" may not be released on this path"
}

// useAfterPut touches the chunk after it went back to the freelist.
func (st *state) useAfterPut() int {
	chunk := st.ar.Get(0)
	chunk = append(chunk, update{3})
	st.ar.Put(0, chunk)
	return chunk[0].v // want "arena chunk \"chunk\" used after it was released"
}

// rebindAfterPut re-borrows into the same variable after the release:
// clean.
func (st *state) rebindAfterPut() {
	chunk := st.ar.Get(0)
	st.ar.Put(0, chunk)
	chunk = st.ar.Get(1)
	st.ar.Put(1, chunk)
}

// retainBlessed is a deliberate long-lived hold, exempted by directive.
//
//acic:allow-unreleased fixture: chunk is parked in package state for replay
func (st *state) retainBlessed() {
	chunk := st.ar.Get(0)
	_ = len(chunk)
}
