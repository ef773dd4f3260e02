package engine

import (
	"container/list"
	"errors"
	"math"
	"sync"
)

// errEntryFailed is the internal signal that a cache entry's computation
// errored; callers recompute or surface the recorded error.
var errEntryFailed = errors.New("engine: cached computation failed")

// cacheKey identifies one distance vector: which graph epoch it was
// computed against and from which source.
type cacheKey struct {
	epoch  uint64
	source int32
}

// cacheEntry is one (possibly in-flight) computed vector. ready is closed
// when res/err are final; waiters hold the entry pointer, so an entry
// evicted mid-flight still completes for everyone already waiting on it.
// sum summarizes res.dist and is set with it, by complete or put.
type cacheEntry struct {
	key   cacheKey
	ready chan struct{}
	res   solution
	sum   summary
	err   error
	elem  *list.Element
}

// summary is what /sssp reports of a vector instead of dumping it: the
// finite distances, counted and summed in vertex order (a float sum taken
// in another order need not be bit-identical). A sum past the largest
// float64 is reported as math.MaxFloat64: JSON has no +Inf, and an /sssp
// reply must stay encodable on a graph with weights near that limit.
type summary struct {
	reachable int
	checksum  float64
}

func summarize(dist []float64) (s summary) {
	for _, d := range dist {
		if !math.IsInf(d, 1) {
			s.reachable++
			s.checksum += d
		}
	}
	s.checksum = math.Min(s.checksum, math.MaxFloat64)
	return s
}

// lruCache is a mutex-guarded LRU of cacheEntry with single-flight
// insertion: getOrCreate returns (entry, leader) where exactly one caller
// per key is the leader responsible for computing and completing it.
type lruCache struct {
	capacity int

	mu    sync.Mutex
	items map[cacheKey]*cacheEntry
	order *list.List // front = most recent
}

func newLRUCache(capacity int) *lruCache {
	return &lruCache{
		capacity: capacity,
		items:    make(map[cacheKey]*cacheEntry, capacity),
		order:    list.New(),
	}
}

// get returns the entry under key (possibly still in flight), refreshing
// its recency.
func (c *lruCache) get(key cacheKey) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ent, ok := c.items[key]
	if ok {
		c.order.MoveToFront(ent.elem)
	}
	return ent, ok
}

// getOrCreate returns the entry under key, creating an in-flight one (and
// evicting the least recent beyond capacity) when absent. The second result
// is true iff this caller created the entry and must complete or fail it.
func (c *lruCache) getOrCreate(key cacheKey) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ent, ok := c.items[key]; ok {
		c.order.MoveToFront(ent.elem)
		return ent, false
	}
	ent := &cacheEntry{key: key, ready: make(chan struct{})}
	ent.elem = c.order.PushFront(ent)
	c.items[key] = ent
	for c.order.Len() > c.capacity {
		oldest := c.order.Back()
		evicted := oldest.Value.(*cacheEntry)
		c.order.Remove(oldest)
		delete(c.items, evicted.key)
	}
	return ent, true
}

// complete publishes res on ent and wakes every waiter.
func (c *lruCache) complete(ent *cacheEntry, res solution) {
	ent.res, ent.sum = res, summarize(res.dist)
	close(ent.ready)
}

// fail records err on ent, wakes waiters, and removes the entry so the next
// query for the key recomputes instead of re-serving the failure.
func (c *lruCache) fail(ent *cacheEntry, err error) {
	ent.err = err
	close(ent.ready)
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.items[ent.key]; ok && cur == ent {
		c.order.Remove(ent.elem)
		delete(c.items, ent.key)
	}
}

// put inserts an already-completed result and its summary under key — the
// path by which Mutate re-homes repaired vectors at the new epoch. A key
// already present (a query raced ahead, computing it fresh) is left alone.
func (c *lruCache) put(key cacheKey, res solution, sum summary) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.items[key]; ok {
		return
	}
	ent := &cacheEntry{key: key, ready: make(chan struct{}), res: res, sum: sum}
	close(ent.ready)
	ent.elem = c.order.PushFront(ent)
	c.items[key] = ent
	for c.order.Len() > c.capacity {
		oldest := c.order.Back()
		evicted := oldest.Value.(*cacheEntry)
		c.order.Remove(oldest)
		delete(c.items, evicted.key)
	}
}

// remove drops ent if it is still the resident entry for its key (a
// replacement under the same key is left alone). Waiters holding the entry
// pointer still read its completed result.
func (c *lruCache) remove(ent *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.items[ent.key]; ok && cur == ent {
		c.order.Remove(ent.elem)
		delete(c.items, ent.key)
	}
}

// purgeStale drops every entry whose epoch differs from epoch — Mutate's
// eviction, which unlike purge leaves current-epoch entries (including
// in-flight leaders that raced ahead of the purge) intact.
func (c *lruCache) purgeStale(epoch uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, ent := range c.items {
		if key.epoch != epoch {
			c.order.Remove(ent.elem)
			delete(c.items, key)
		}
	}
}

// completed snapshots the completed, non-failed entries at epoch — the
// resident vectors Mutate repairs across a batch — least recent first, so
// that putting them back in this order keeps their relative recency.
func (c *lruCache) completed(epoch uint64) []*cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*cacheEntry
	for el := c.order.Back(); el != nil; el = el.Prev() {
		ent := el.Value.(*cacheEntry)
		if ent.key.epoch != epoch {
			continue
		}
		select {
		case <-ent.ready:
			if ent.err == nil {
				out = append(out, ent)
			}
		default: // still in flight; it will be purged, not repaired
		}
	}
	return out
}

// purge drops every entry (in-flight leaders still complete their entries;
// waiters holding pointers are unaffected).
func (c *lruCache) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.items = make(map[cacheKey]*cacheEntry, c.capacity)
	c.order.Init()
}

// len returns the current entry count.
func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
