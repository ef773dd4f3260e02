// Package tram is a lockorder fixture standing in for the real aggregation
// manager.
package tram

// Batch mimics a flushed buffer.
type Batch[T any] struct {
	DestPE int
	Items  []T
}

// Manager mimics the buffering policy.
type Manager[T any] struct{}

// Insert mimics the buffering insert (a send-path API).
func (m *Manager[T]) Insert(src, dst int, item T) *Batch[T] { return nil }

// FlushSet mimics the explicit flush (a send-path API).
func (m *Manager[T]) FlushSet(src int) []Batch[T] { return nil }
