package core

import (
	"testing"

	"acic/internal/histogram"
)

// BenchmarkWireEncodeBatch measures serializing one full tram batch into a
// reused frame buffer. The encode hook returns the items and the header to
// the pools; every iteration takes both back as the next send would, so
// the steady state allocates nothing — the ceiling scripts/bench.sh gates.
func BenchmarkWireEncodeBatch(b *testing.B) {
	c, sh := newWireHarness(b)
	items := fullBatch(sh)
	n := len(items)
	buf := make([]byte, 0, 8+16*n)
	b.SetBytes(int64(16 * n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := sh.pools.getBatch()
		m.items = items
		var err error
		buf, err = c.EncodeFrame(buf[:0], m)
		if err != nil {
			b.Fatal(err)
		}
		// The hook released the buffer; the same array (stale items and
		// all) is the next one the shared shard hands out.
		items = sh.tm.BorrowShared()[:n]
	}
}

// BenchmarkWireDecodeBatch measures materializing a batch from its frame.
// The decoded buffer and header come from the pools and go straight back,
// as receiveBatch would after unpacking: 0 allocs/op.
func BenchmarkWireDecodeBatch(b *testing.B) {
	c, sh := newWireHarness(b)
	m := sh.pools.getBatch()
	m.items = fullBatch(sh)
	frame, err := c.EncodeFrame(nil, m)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, _, err := c.DecodeFrame(frame)
		if err != nil {
			b.Fatal(err)
		}
		dec := v.(*batchMsg)
		sh.tm.Release(dec.items)
		sh.pools.putBatch(dec)
	}
}

// fullBatch borrows a buffer and fills it to the tram capacity.
func fullBatch(sh *sharedState) []Update {
	items := sh.tm.Borrow(0)
	for i := 0; cap(items) > len(items); i++ {
		items = append(items, Update{Vertex: int32(i), Pred: int32(i - 1), Dist: float64(i)})
	}
	return items
}

// BenchmarkWireDecodeReduce measures decoding a reduction contribution
// with every second of the histogram's buckets nonzero: 256 of 512, so its
// ns/op scales with the bucket count and bytes/s is the figure to compare.
// The value lands in a pooled *reduceVal (pointer boxing is free) and is
// recycled every iteration, so the steady state allocates nothing — the
// second ceiling scripts/bench.sh gates.
func BenchmarkWireDecodeReduce(b *testing.B) {
	c, sh := newWireHarness(b)
	rv := sh.pools.getReduceVal(sh.bucketWidth)
	rv.hist.Reset()
	for i := 0; i < histogram.DefaultBuckets; i += 2 {
		rv.hist.AddCreated(float64(i) * sh.bucketWidth)
	}
	frame, err := c.EncodeFrame(nil, rv)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, _, err := c.DecodeFrame(frame)
		if err != nil {
			b.Fatal(err)
		}
		sh.pools.putReduceVal(v.(*reduceVal))
	}
}
