// Package arena is a releasecheck fixture standing in for the real chunk
// arena: the analyzer matches Arena.Get/Put/PutShared by (package last
// element, receiver type, method name).
package arena

// Arena mimics the per-owner chunk freelists.
type Arena[T any] struct{}

// Get mimics borrowing one empty chunk from owner's freelist.
func (a *Arena[T]) Get(owner int) []T { return nil }

// Put mimics returning a chunk to owner's freelist.
func (a *Arena[T]) Put(owner int, c []T) {}

// PutShared mimics returning a chunk to the shared spill freelist.
func (a *Arena[T]) PutShared(c []T) {}
