package pq

// IndexedHeap is a binary min-heap over the integer ids [0, n) supporting
// DecreaseKey, as required by the sequential Dijkstra oracle. Each id may be
// present at most once.
type IndexedHeap struct {
	keys []float64 // keys[id] is the current key of id (valid while in heap)
	heap []int32   // heap of ids
	pos  []int32   // pos[id] = index in heap, or -1 if absent
}

// NewIndexedHeap returns an empty heap able to hold ids in [0, n).
func NewIndexedHeap(n int) *IndexedHeap {
	h := &IndexedHeap{
		keys: make([]float64, n),
		heap: make([]int32, 0, n),
		pos:  make([]int32, n),
	}
	for i := range h.pos {
		h.pos[i] = -1
	}
	return h
}

// Len reports the number of stored ids.
func (h *IndexedHeap) Len() int { return len(h.heap) }

// Contains reports whether id is currently in the heap.
func (h *IndexedHeap) Contains(id int) bool { return h.pos[id] >= 0 }

// Key returns the current key of id. Only meaningful if Contains(id).
func (h *IndexedHeap) Key(id int) float64 { return h.keys[id] }

// Push inserts id with the given key. It panics if id is already present.
func (h *IndexedHeap) Push(id int, key float64) {
	if h.pos[id] >= 0 {
		panic("pq: Push of id already in IndexedHeap")
	}
	h.keys[id] = key
	h.heap = append(h.heap, int32(id))
	h.pos[id] = int32(len(h.heap) - 1)
	h.siftUp(len(h.heap) - 1)
}

// PushOrDecrease inserts id, or lowers its key if already present with a
// larger key. It returns true if the heap changed.
func (h *IndexedHeap) PushOrDecrease(id int, key float64) bool {
	if h.pos[id] < 0 {
		h.Push(id, key)
		return true
	}
	if key >= h.keys[id] {
		return false
	}
	h.DecreaseKey(id, key)
	return true
}

// DecreaseKey lowers the key of id. It panics if id is absent or the new key
// is larger than the current one.
func (h *IndexedHeap) DecreaseKey(id int, key float64) {
	i := h.pos[id]
	if i < 0 {
		panic("pq: DecreaseKey of id not in IndexedHeap")
	}
	if key > h.keys[id] {
		panic("pq: DecreaseKey increases key")
	}
	h.keys[id] = key
	h.siftUp(int(i))
}

// PopMin removes and returns the id with the smallest key, plus that key.
// It panics if the heap is empty.
func (h *IndexedHeap) PopMin() (id int, key float64) {
	if len(h.heap) == 0 {
		panic("pq: PopMin on empty IndexedHeap")
	}
	top := h.heap[0]
	h.pos[top] = -1
	last := len(h.heap) - 1
	if last > 0 {
		h.heap[0] = h.heap[last]
		h.pos[h.heap[0]] = 0
	}
	h.heap = h.heap[:last]
	if last > 1 {
		h.siftDown(0)
	}
	return int(top), h.keys[top]
}

func (h *IndexedHeap) less(i, j int) bool {
	return h.keys[h.heap[i]] < h.keys[h.heap[j]]
}

func (h *IndexedHeap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.pos[h.heap[i]] = int32(i)
	h.pos[h.heap[j]] = int32(j)
}

func (h *IndexedHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *IndexedHeap) siftDown(i int) {
	n := len(h.heap)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		least := left
		if right := left + 1; right < n && h.less(right, left) {
			least = right
		}
		if !h.less(least, i) {
			break
		}
		h.swap(i, least)
		i = least
	}
}
