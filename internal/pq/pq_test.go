package pq

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"acic/internal/xrand"
)

// queueFactories names the lazy (non-indexed) queues the generic tests run
// over.
var queueFactories = map[string]func() *BinaryHeap{
	"binary": func() *BinaryHeap { return NewBinaryHeap(0) },
}

func TestQueuesSortedDrain(t *testing.T) {
	for name, mk := range queueFactories {
		t.Run(name, func(t *testing.T) {
			q := mk()
			r := xrand.New(1)
			const n = 2000
			keys := make([]float64, n)
			for i := range keys {
				keys[i] = r.Float64() * 1000
				q.Push(Item{Key: keys[i], Value: int64(i)})
			}
			if q.Len() != n {
				t.Fatalf("Len = %d, want %d", q.Len(), n)
			}
			sort.Float64s(keys)
			for i := 0; i < n; i++ {
				it := q.Pop()
				if it.Key != keys[i] {
					t.Fatalf("pop %d: key %v, want %v", i, it.Key, keys[i])
				}
			}
			if q.Len() != 0 {
				t.Fatalf("Len after drain = %d", q.Len())
			}
		})
	}
}

func TestQueuesPeekMatchesPop(t *testing.T) {
	for name, mk := range queueFactories {
		t.Run(name, func(t *testing.T) {
			q := mk()
			r := xrand.New(2)
			for i := 0; i < 500; i++ {
				q.Push(Item{Key: r.Float64(), Value: int64(i)})
			}
			for q.Len() > 0 {
				p := q.Peek()
				got := q.Pop()
				if p != got {
					t.Fatalf("Peek %v != Pop %v", p, got)
				}
			}
		})
	}
}

func TestQueuesInterleavedOps(t *testing.T) {
	for name, mk := range queueFactories {
		t.Run(name, func(t *testing.T) {
			q := mk()
			r := xrand.New(3)
			var model []float64
			for step := 0; step < 5000; step++ {
				if q.Len() == 0 || r.Float64() < 0.55 {
					k := r.Float64() * 100
					q.Push(Item{Key: k})
					model = append(model, k)
				} else {
					it := q.Pop()
					// The popped key must be the model minimum.
					minIdx := 0
					for i, k := range model {
						if k < model[minIdx] {
							minIdx = i
						}
					}
					if it.Key != model[minIdx] {
						t.Fatalf("step %d: popped %v, model min %v", step, it.Key, model[minIdx])
					}
					model[minIdx] = model[len(model)-1]
					model = model[:len(model)-1]
				}
			}
		})
	}
}

func TestQueuesPanicOnEmpty(t *testing.T) {
	for name, mk := range queueFactories {
		t.Run(name+"/pop", func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("Pop on empty queue did not panic")
				}
			}()
			mk().Pop()
		})
		t.Run(name+"/peek", func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("Peek on empty queue did not panic")
				}
			}()
			mk().Peek()
		})
	}
}

func TestQueuesDuplicateKeys(t *testing.T) {
	for name, mk := range queueFactories {
		t.Run(name, func(t *testing.T) {
			q := mk()
			for i := 0; i < 100; i++ {
				q.Push(Item{Key: 5, Value: int64(i)})
			}
			q.Push(Item{Key: 1, Value: -1})
			if got := q.Pop(); got.Value != -1 {
				t.Fatalf("minimum not popped first: %+v", got)
			}
			seen := make(map[int64]bool)
			for q.Len() > 0 {
				it := q.Pop()
				if it.Key != 5 {
					t.Fatalf("unexpected key %v", it.Key)
				}
				if seen[it.Value] {
					t.Fatalf("value %d popped twice", it.Value)
				}
				seen[it.Value] = true
			}
			if len(seen) != 100 {
				t.Fatalf("popped %d items, want 100", len(seen))
			}
		})
	}
}

// Property: for any input multiset, draining a queue yields non-decreasing
// keys and exactly the input multiset.
func TestQuickQueueHeapProperty(t *testing.T) {
	for name, mk := range queueFactories {
		t.Run(name, func(t *testing.T) {
			f := func(keys []float64) bool {
				q := mk()
				in := make([]float64, 0, len(keys))
				for _, k := range keys {
					if math.IsNaN(k) {
						continue // NaN keys are unordered; ACIC never produces them
					}
					q.Push(Item{Key: k})
					in = append(in, k)
				}
				out := make([]float64, 0, len(in))
				prev := math.Inf(-1)
				for q.Len() > 0 {
					it := q.Pop()
					if it.Key < prev {
						return false
					}
					prev = it.Key
					out = append(out, it.Key)
				}
				sort.Float64s(in)
				if len(in) != len(out) {
					return false
				}
				for i := range in {
					if in[i] != out[i] {
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestIndexedHeapBasic(t *testing.T) {
	h := NewIndexedHeap(10)
	h.Push(3, 30)
	h.Push(1, 10)
	h.Push(7, 70)
	if h.Len() != 3 {
		t.Fatalf("Len = %d", h.Len())
	}
	if !h.Contains(3) || h.Contains(0) {
		t.Fatal("Contains wrong")
	}
	id, key := h.PopMin()
	if id != 1 || key != 10 {
		t.Fatalf("PopMin = (%d,%v)", id, key)
	}
	if h.Contains(1) {
		t.Fatal("popped id still Contains")
	}
}

func TestIndexedHeapDecreaseKey(t *testing.T) {
	h := NewIndexedHeap(5)
	for i := 0; i < 5; i++ {
		h.Push(i, float64(10+i))
	}
	h.DecreaseKey(4, 1)
	id, key := h.PopMin()
	if id != 4 || key != 1 {
		t.Fatalf("after DecreaseKey, PopMin = (%d,%v)", id, key)
	}
}

func TestIndexedHeapPushOrDecrease(t *testing.T) {
	h := NewIndexedHeap(3)
	if !h.PushOrDecrease(0, 5) {
		t.Fatal("first PushOrDecrease returned false")
	}
	if h.PushOrDecrease(0, 9) {
		t.Fatal("PushOrDecrease with larger key returned true")
	}
	if !h.PushOrDecrease(0, 2) {
		t.Fatal("PushOrDecrease with smaller key returned false")
	}
	if _, key := h.PopMin(); key != 2 {
		t.Fatalf("key = %v, want 2", key)
	}
}

func TestIndexedHeapPanics(t *testing.T) {
	t.Run("double push", func(t *testing.T) {
		h := NewIndexedHeap(2)
		h.Push(0, 1)
		defer func() {
			if recover() == nil {
				t.Error("double Push did not panic")
			}
		}()
		h.Push(0, 2)
	})
	t.Run("increase key", func(t *testing.T) {
		h := NewIndexedHeap(2)
		h.Push(0, 1)
		defer func() {
			if recover() == nil {
				t.Error("increasing DecreaseKey did not panic")
			}
		}()
		h.DecreaseKey(0, 5)
	})
	t.Run("pop empty", func(t *testing.T) {
		h := NewIndexedHeap(2)
		defer func() {
			if recover() == nil {
				t.Error("PopMin on empty did not panic")
			}
		}()
		h.PopMin()
	})
}

func TestIndexedHeapRandomizedAgainstSort(t *testing.T) {
	r := xrand.New(4)
	const n = 1000
	h := NewIndexedHeap(n)
	keys := make([]float64, n)
	for i := 0; i < n; i++ {
		keys[i] = r.Float64() * 100
		h.Push(i, keys[i])
	}
	// Randomly decrease some keys.
	for i := 0; i < 300; i++ {
		id := r.Intn(n)
		if h.Contains(id) {
			nk := h.Key(id) * r.Float64()
			h.DecreaseKey(id, nk)
			keys[id] = nk
		}
	}
	prev := math.Inf(-1)
	popped := 0
	for h.Len() > 0 {
		id, key := h.PopMin()
		if key < prev {
			t.Fatalf("keys not non-decreasing: %v after %v", key, prev)
		}
		if key != keys[id] {
			t.Fatalf("id %d popped with key %v, want %v", id, key, keys[id])
		}
		prev = key
		popped++
	}
	if popped != n {
		t.Fatalf("popped %d, want %d", popped, n)
	}
}

func benchQueue(b *testing.B, mk func() *BinaryHeap) {
	r := xrand.New(7)
	q := mk()
	// Push/pop in a pattern resembling the ACIC pq: mostly pushes with
	// bursts of pops.
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(Item{Key: r.Float64() * 1000, Value: int64(i)})
		if i%4 == 3 {
			q.Pop()
			q.Pop()
		}
	}
}

func BenchmarkBinaryHeap(b *testing.B) { benchQueue(b, queueFactories["binary"]) }
