//go:build race

package core

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop Puts at random, so an allocation count over a pooled path (the
// runtime's envelopes, the codec's readers) measures the detector there.
const raceEnabled = true
