// Package pq provides the priority-queue data structures used by the SSSP
// algorithms in this repository.
//
// ACIC keeps one min-priority queue of accepted updates per PE (§II-C of the
// paper): only updates that improved a vertex distance enter the queue, and
// when the PE goes idle the lowest-distance update is popped and, if still
// current, relaxed. The sequential Dijkstra oracle additionally needs a
// decrease-key operation, provided by IndexedHeap. BucketQueue offers the
// same decrease-key contract for monotone keys, ordered to a bucket width
// instead of exactly; the query engine's miss kernel runs on it.
//
// All three order items by a float64 key (the tentative distance) with ties
// broken arbitrarily. None is safe for concurrent use; in the
// message-driven runtime each PE owns its queues exclusively.
package pq

// Item is a keyed element stored in a BinaryHeap.
type Item struct {
	Key   float64 // priority; smaller pops first
	Value int64   // caller payload (vertex id, update id, ...)
}

// BinaryHeap is a classic array-backed binary min-heap.
type BinaryHeap struct {
	items []Item
}

// NewBinaryHeap returns an empty heap with the given initial capacity.
func NewBinaryHeap(capacity int) *BinaryHeap {
	return &BinaryHeap{items: make([]Item, 0, capacity)}
}

// Len reports the number of stored items.
func (h *BinaryHeap) Len() int { return len(h.items) }

// Reset empties the heap, keeping its backing array for reuse.
func (h *BinaryHeap) Reset() { h.items = h.items[:0] }

// Push inserts an item.
func (h *BinaryHeap) Push(it Item) {
	h.items = append(h.items, it)
	h.siftUp(len(h.items) - 1)
}

// Peek returns the minimum item without removing it.
func (h *BinaryHeap) Peek() Item {
	if len(h.items) == 0 {
		panic("pq: Peek on empty BinaryHeap")
	}
	return h.items[0]
}

// Pop removes and returns the minimum item.
func (h *BinaryHeap) Pop() Item {
	if len(h.items) == 0 {
		panic("pq: Pop on empty BinaryHeap")
	}
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	if last > 0 {
		h.siftDown(0)
	}
	return top
}

func (h *BinaryHeap) siftUp(i int) {
	it := h.items[i]
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].Key <= it.Key {
			break
		}
		h.items[i] = h.items[parent]
		i = parent
	}
	h.items[i] = it
}

func (h *BinaryHeap) siftDown(i int) {
	n := len(h.items)
	it := h.items[i]
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		least := left
		if right := left + 1; right < n && h.items[right].Key < h.items[left].Key {
			least = right
		}
		if it.Key <= h.items[least].Key {
			break
		}
		h.items[i] = h.items[least]
		i = least
	}
	h.items[i] = it
}
