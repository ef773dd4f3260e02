// Package lockorder_send is the send-under-lock fixture: sends under held
// locks (function-local ones included) must be flagged; sends after
// release, under a directive, or lock-free are clean.
package lockorder_send

import (
	"sync"

	"netsim"
	"tram"
)

type state struct {
	mu  sync.Mutex
	rw  sync.RWMutex
	net *netsim.Network
	tm  *tram.Manager[int]
	n   int
}

func (s *state) badExplicit() {
	s.mu.Lock()
	s.net.Send(0, 1, nil, 0) // want "call to Send while holding s.mu"
	s.mu.Unlock()
}

func (s *state) badDeferred() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
	s.tm.Insert(0, 1, s.n) // want "call to Insert while holding s.mu"
}

func (s *state) badReadLock() {
	s.rw.RLock()
	defer s.rw.RUnlock()
	s.tm.FlushSet(0) // want "call to FlushSet while holding s.rw"
}

func (s *state) goodAfterUnlock() {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
	s.net.Send(0, 1, nil, 0)
}

func (s *state) goodNoLock() {
	s.net.Send(0, 1, nil, 0)
}

func (s *state) goodClosureOwnContext() {
	s.mu.Lock()
	defer s.mu.Unlock()
	// The closure runs at an unknown time; the enclosing lock is not
	// assumed held inside it.
	_ = func() {
		s.net.Send(0, 1, nil, 0)
	}
}

func (s *state) blessed() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.net.Send(0, 1, nil, 0) //acic:allow-lock-order fixture: provably deadlock-free
}

// badLocal holds a function-local mutex: it orders nothing, but the send
// under it is still a finding.
func (s *state) badLocal() {
	var mu sync.Mutex
	mu.Lock()
	s.tm.Insert(0, 1, 2) // want "call to Insert while holding mu"
	mu.Unlock()
}

// badNestedClosure sends from a closure nested in a closure, under a lock
// the inner closure takes itself.
func (s *state) badNestedClosure() {
	_ = func() {
		_ = func() {
			s.mu.Lock()
			s.net.Send(0, 1, nil, 0) // want "call to Send while holding s.mu"
			s.mu.Unlock()
		}
	}
}
