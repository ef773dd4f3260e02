// Package sharedpad_a is a sharedpad fixture: mutex/atomic-bearing structs
// used as slice or array elements need a blank cache-line pad; padded
// shards, non-sharded uses, and plain-data elements are clean.
package sharedpad_a

import (
	"sync"
	"sync/atomic"
)

// lane is a contended shard with no pad.
type lane struct {
	mu sync.Mutex
	q  []int
}

type fabric struct {
	lanes []lane // want "sharded element type lane has mutex/atomic fields but no cache-line pad"
}

// cell is a contended shard with the conventional 56-byte pad: clean.
type cell struct {
	n atomic.Int64
	_ [7]uint64
}

type counters struct {
	cells []cell
}

// row uses a byte pad and a fixed-size array: clean.
type row struct {
	mu sync.Mutex
	v  int64
	_  [64]byte
}

var rows [16]row

// pairMu holds its mutex by pointer: the shard's own words still contend.
type pairMu struct {
	mu *sync.Mutex
	rr int
}

func makePairs(n int) []pairMu { // want "sharded element type pairMu has mutex/atomic fields but no cache-line pad"
	return make([]pairMu, n)
}

// node is contended and unpadded but sharded only by pointer: each node is
// its own allocation, so neighbors cannot share a cache line. Clean.
type node struct {
	mu sync.Mutex
	n  int
}

var nodes []*node

// plain has no contended fields: element use is free.
type plain struct {
	a, b int
}

var table []plain

// single is contended but never sharded (no slice/array use): clean.
type single struct {
	mu sync.Mutex
	n  int
}

var one single

// underPad has a blank pad that is too small to cover a cache line.
type underPad struct {
	n atomic.Uint64
	_ [8]byte
}

var shards []underPad // want "sharded element type underPad has mutex/atomic fields but no cache-line pad"

// cold is an exempted cold shard.
type cold struct {
	mu sync.Mutex
	n  int
}

//acic:allow-unpadded fixture: written once at startup, never contended
var coldShards []cold
