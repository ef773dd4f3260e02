package pq

// Differential tests of BinaryHeap against IndexedHeap, the sequential
// oracle's queue. Keys are drawn from a small set of non-negative integers:
// maximally tie-prone, which is where heap bugs hide (ties may pop in any
// order, so only the key sequence is compared, never the payloads).

import (
	"sort"
	"testing"

	"acic/internal/xrand"
)

// TestQueuesPopIdenticalKeySequences interleaves random pushes and pops and
// requires both implementations to emit the same key sequence.
func TestQueuesPopIdenticalKeySequences(t *testing.T) {
	r := xrand.New(0xD1FF)
	const ops = 400
	for trial := 0; trial < 50; trial++ {
		q := NewBinaryHeap(16)
		ref := NewIndexedHeap(ops) // one id per op, so no id is pushed twice
		maxKey := 1 + r.Intn(16)   // small key alphabet: force ties
		for op := 0; op < ops; op++ {
			if q.Len() != ref.Len() {
				t.Fatalf("trial %d op %d: Len = %d, reference %d", trial, op, q.Len(), ref.Len())
			}
			if q.Len() > 0 && r.Intn(3) == 0 {
				pk := q.Peek().Key
				if pk != q.Pop().Key {
					t.Fatalf("trial %d: Peek disagrees with Pop", trial)
				}
				if _, want := ref.PopMin(); pk != want {
					t.Fatalf("trial %d op %d: popped key %g, reference popped %g", trial, op, pk, want)
				}
				continue
			}
			key := float64(r.Intn(maxKey))
			q.Push(Item{Key: key, Value: int64(op)})
			ref.Push(op, key)
		}
		// Drain: the tail must come out in the reference's ascending order.
		for ref.Len() > 0 {
			_, want := ref.PopMin()
			if k := q.Pop().Key; k != want {
				t.Fatalf("trial %d drain: popped %g, reference %g", trial, k, want)
			}
		}
		if q.Len() != 0 {
			t.Fatalf("trial %d: not empty after drain", trial)
		}
	}
}

// TestLazyQueuesMatchIndexedHeapOracle replays a Dijkstra-style
// decrease-key workload. The IndexedHeap supports DecreaseKey natively; the
// BinaryHeap emulates it the way the ACIC core does — push the improved key
// as a fresh item and skip stale entries on pop. It must settle each id
// exactly once, at its best key, in ascending key order.
func TestLazyQueuesMatchIndexedHeapOracle(t *testing.T) {
	r := xrand.New(0xD1FF2)
	for trial := 0; trial < 30; trial++ {
		n := 20 + r.Intn(100)
		oracle := NewIndexedHeap(n)
		q := NewBinaryHeap(16)
		best := make(map[int64]float64)

		relaxes := 5 * n
		for i := 0; i < relaxes; i++ {
			id := r.Intn(n)
			key := float64(r.Intn(32))
			if oracle.PushOrDecrease(id, key) {
				// Improved (or new): the lazy queue gets a duplicate entry.
				best[int64(id)] = key
				q.Push(Item{Key: key, Value: int64(id)})
			}
		}

		// The oracle's settle order: ascending keys, each id once.
		type settled struct {
			id  int
			key float64
		}
		var want []settled
		for oracle.Len() > 0 {
			id, key := oracle.PopMin()
			want = append(want, settled{id, key})
			if key != best[int64(id)] {
				t.Fatalf("trial %d: oracle settled id %d at %g, best %g", trial, id, key, best[int64(id)])
			}
		}

		done := make(map[int64]bool)
		var got []settled
		for q.Len() > 0 {
			it := q.Pop()
			if done[it.Value] || it.Key != best[it.Value] {
				continue // stale duplicate, superseded by a later improvement
			}
			done[it.Value] = true
			got = append(got, settled{int(it.Value), it.Key})
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: settled %d ids, oracle settled %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i].key != want[i].key {
				t.Fatalf("trial %d: settle %d popped key %g, oracle %g", trial, i, got[i].key, want[i].key)
			}
		}
		// Same ids settled, each at its best key (order-free check: ties
		// between distinct ids may settle in any order).
		ids := make([]int, len(got))
		wids := make([]int, len(want))
		for i := range got {
			ids[i], wids[i] = got[i].id, want[i].id
		}
		sort.Ints(ids)
		sort.Ints(wids)
		for i := range ids {
			if ids[i] != wids[i] {
				t.Fatalf("trial %d: settled id set differs from oracle", trial)
			}
		}
	}
}
