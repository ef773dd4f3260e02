// Package tram is a releasecheck fixture standing in for the real
// aggregation manager: the analyzer matches Batch/Manager by (package last
// element, type name).
package tram

// Batch mimics a flushed buffer.
type Batch[T any] struct {
	SrcPE  int
	DestPE int
	Items  []T
}

// Manager mimics the buffering policy with its pool.
type Manager[T any] struct{}

// Borrow mimics handing out one empty full-capacity buffer.
func (m *Manager[T]) Borrow(srcPE int) []T { return nil }

// Release mimics returning a batch's backing array to the pool.
func (m *Manager[T]) Release(items []T) {}

// ReleaseTo mimics returning a backing array to pe's freelist.
func (m *Manager[T]) ReleaseTo(pe int, items []T) {}
