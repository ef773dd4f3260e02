package core

import (
	"errors"
	"testing"

	"acic/internal/arena"
	"acic/internal/histogram"
	"acic/internal/netsim"
	"acic/internal/tram"
	"acic/internal/wire"
)

// newWireHarness builds the minimal sharedState the core codecs hang off:
// a tram manager (batch buffers) and a contribution pool.
func newWireHarness(t testing.TB) (*wire.Codec, *sharedState) {
	t.Helper()
	topo := netsim.Topology{Nodes: 1, ProcsPerNode: 2, PEsPerProc: 2}
	ar := arena.New[Update](topo.TotalPEs(), 64)
	tm, err := tram.NewWithArena[Update](topo, tram.WP, 64, nil, ar)
	if err != nil {
		t.Fatal(err)
	}
	sh := &sharedState{
		tm:          tm,
		pools:       &runPools{ar: ar},
		bucketWidth: 0.5,
	}
	c := wire.NewCodec()
	registerCoreWire(c, sh)
	return c, sh
}

func roundTrip(t *testing.T, c *wire.Codec, v any) any {
	t.Helper()
	frame, err := c.EncodeFrame(nil, v)
	if err != nil {
		t.Fatalf("encode %T: %v", v, err)
	}
	got, n, err := c.DecodeFrame(frame)
	if err != nil {
		t.Fatalf("decode %T: %v", v, err)
	}
	if n != len(frame) {
		t.Fatalf("decode consumed %d of %d bytes", n, len(frame))
	}
	return got
}

func TestSeedAndStartWireRoundTrip(t *testing.T) {
	c, _ := newWireHarness(t)
	if got := roundTrip(t, c, seedMsg{source: 1234}).(seedMsg); got.source != 1234 {
		t.Errorf("seed round trip: %+v", got)
	}
	if _, ok := roundTrip(t, c, startMsg{}).(startMsg); !ok {
		t.Error("start round trip lost its type")
	}
}

func TestCtrlWireRoundTrip(t *testing.T) {
	c, _ := newWireHarness(t)
	for _, want := range []ctrlMsg{
		{thresholds: histogram.Thresholds{Tram: 7, PQ: 3}, terminate: true},
		{thresholds: histogram.Thresholds{Tram: histogram.DefaultBuckets - 1, PQ: 0}},
	} {
		got := roundTrip(t, c, &want).(*ctrlMsg)
		// The decoded copy comes from the run's pools, for OnBroadcast to
		// hand back; the root's own payload is not the pool's.
		if want.pooled = true; *got != want {
			t.Errorf("ctrl round trip: got %+v, want %+v", *got, want)
		}
	}
}

// TestCtrlWireDecodeRecycles: a broadcast decoded and handed back, as
// OnBroadcast does, costs no allocation once the pool is warm, and the
// encoder leaves the root's payload where it was.
func TestCtrlWireDecodeRecycles(t *testing.T) {
	c, sh := newWireHarness(t)
	root := &ctrlMsg{thresholds: histogram.Thresholds{Tram: 9, PQ: 4}}
	frame, err := c.EncodeFrame(nil, root)
	if err != nil {
		t.Fatal(err)
	}
	if root.pooled || root.thresholds.PQ != 4 {
		t.Fatalf("encoding changed the root's payload: %+v", *root)
	}
	cycle := func() {
		v, _, err := c.DecodeFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		sh.pools.putCtrl(v.(*ctrlMsg))
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("decode + hand back: %.1f allocs, want 0", n)
	}
}

// TestCtrlWireFrameLength pins the broadcast's size: the 6-byte frame
// preamble, two int32 thresholds and one flags byte.
func TestCtrlWireFrameLength(t *testing.T) {
	c, _ := newWireHarness(t)
	for _, m := range []*ctrlMsg{{}, {thresholds: histogram.Thresholds{Tram: 511, PQ: 20}, terminate: true}} {
		frame, err := c.EncodeFrame(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		if len(frame) != 6+4+4+1 {
			t.Errorf("ctrl frame %+v is %d bytes, want 15", *m, len(frame))
		}
	}
}

// TestCtrlWireRejectsRetiredFinalizedBit: 0x02 once flagged an all-final
// termination; terminate (0x01) is the only flag a ctrl frame may carry.
func TestCtrlWireRejectsRetiredFinalizedBit(t *testing.T) {
	c, _ := newWireHarness(t)
	frame, err := c.EncodeFrame(nil, &ctrlMsg{})
	if err != nil {
		t.Fatal(err)
	}
	for _, flags := range []byte{0x02, 0x03} {
		frame[len(frame)-1] = flags // flags byte is last on the wire
		if _, _, err := c.DecodeFrame(frame); !errors.Is(err, wire.ErrMalformed) {
			t.Errorf("flags 0x%02x decoded: %v", flags, err)
		}
	}
}

func TestCtrlWireRejectsUnknownFlags(t *testing.T) {
	c, _ := newWireHarness(t)
	frame, err := c.EncodeFrame(nil, &ctrlMsg{})
	if err != nil {
		t.Fatal(err)
	}
	frame[len(frame)-1] = 0x80 // flags byte is last on the wire
	if _, _, err := c.DecodeFrame(frame); !errors.Is(err, wire.ErrMalformed) {
		t.Errorf("bad flags decoded: %v", err)
	}
}

func TestBatchWireRoundTripRecyclesBuffers(t *testing.T) {
	c, sh := newWireHarness(t)
	items := sh.tm.Borrow(0)
	for i := 0; i < 5; i++ {
		items = append(items, Update{Vertex: int32(i), Pred: int32(i - 1), Dist: float64(i) * 1.5})
	}
	sent := sh.pools.getBatch()
	sent.items = items
	// Encoding consumes the batch (afterEncode returns the buffer and the
	// header to the pools), exactly as handing it to a local PE would.
	frame, err := c.EncodeFrame(nil, sent)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := c.DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	dec := got.(*batchMsg)
	if dec != sent {
		t.Error("decode allocated a header instead of reusing the one the encoder returned")
	}
	if len(dec.items) != 5 {
		t.Fatalf("decoded %d items, want 5", len(dec.items))
	}
	for i, u := range dec.items {
		if u.Vertex != int32(i) || u.Pred != int32(i-1) || u.Dist != float64(i)*1.5 {
			t.Errorf("item %d: %+v", i, u)
		}
	}
	// The receiving PE releases the decoded buffer and header; after that
	// the pool ledger balances: one Borrow + one BorrowShared (decode)
	// against one Release (encode hook) + one ReleaseTo (here).
	sh.tm.ReleaseTo(1, dec.items)
	sh.pools.putBatch(dec)
	ts := sh.tm.Stats()
	if ts.PoolGets != ts.PoolPuts {
		t.Errorf("pool imbalance after round trip: %d gets, %d puts", ts.PoolGets, ts.PoolPuts)
	}
	if n := len(sh.pools.batches.free); n != 1 {
		t.Errorf("%d headers in the pool after the round trip, want the one", n)
	}
}

func TestBatchWireRejectsOversizedCount(t *testing.T) {
	c, sh := newWireHarness(t)
	// A count above the tram capacity can never be produced by a correct
	// sender; reject before allocating.
	body := wire.AppendU32(nil, uint32(sh.tm.Capacity()+1))
	frame := buildFrame(wire.TagBatch, body)
	if _, _, err := c.DecodeFrame(frame); !errors.Is(err, wire.ErrMalformed) {
		t.Errorf("oversized batch count decoded: %v", err)
	}
	// A plausible count with a body too short to hold it must also fail
	// before the allocation, not during the reads.
	body = wire.AppendU32(nil, 50)
	frame = buildFrame(wire.TagBatch, body)
	if _, _, err := c.DecodeFrame(frame); !errors.Is(err, wire.ErrMalformed) {
		t.Errorf("short batch body decoded: %v", err)
	}
}

func TestReduceValWireRoundTrip(t *testing.T) {
	c, sh := newWireHarness(t)
	rv := sh.pools.getReduceVal(sh.bucketWidth)
	rv.hist.Reset()
	rv.hist.AddCreated(0.6) // bucket 1
	rv.hist.AddCreated(7.9) // bucket 15
	rv.hist.AddProcessed(0.6)
	rv.holds = holdStats{tramHeldBefore: 1, tramDrained: 2, tramHeldAfter: 3, pqHeldBefore: 4, pqDrained: 5, pqHeldAfter: 6, pqReheld: 7}

	// The encode hook recycles rv into the pool and the decode draws from
	// it, so got may be the very same object — that round trip through the
	// freelist is the point of the pooling.
	got := roundTrip(t, c, rv).(*reduceVal)
	if got.hist.Created != 2 || got.hist.Processed != 1 {
		t.Errorf("counters: created %d processed %d", got.hist.Created, got.hist.Processed)
	}
	// Bucket 1 netted out (created then processed); bucket 15 is still
	// active and is the only nonzero entry the sparse encoding carries.
	if got.hist.Bucket(1) != 0 || got.hist.Bucket(15) != 1 {
		t.Errorf("buckets did not survive: %d %d", got.hist.Bucket(1), got.hist.Bucket(15))
	}
	if got.holds != rv.holds {
		// rv was recycled by the encode hook but its fields are still
		// readable here; the pool does not clear them.
		t.Errorf("holds: %+v", got.holds)
	}
	sh.pools.putReduceVal(got)
}

// TestReduceValWireFrameLength pins a contribution's size: the 6-byte
// frame preamble, the histogram's shape (count and width), its two
// counters, the nonzero-bucket count, 12 bytes per nonzero bucket, and
// seven int64 hold counts.
func TestReduceValWireFrameLength(t *testing.T) {
	c, sh := newWireHarness(t)
	for _, dists := range [][]float64{nil, {0.2, 7.9}, {0.2, 0.3, 1.4, 1e9}} {
		rv := sh.pools.getReduceVal(sh.bucketWidth)
		rv.hist.Reset()
		for _, d := range dists {
			rv.hist.AddCreated(d)
		}
		rv.holds = holdStats{tramHeldBefore: 1, pqHeldAfter: 2, pqReheld: 3}
		nnz := 0
		for i := 0; i < histogram.DefaultBuckets; i++ {
			if rv.hist.Bucket(i) != 0 {
				nnz++
			}
		}
		frame, err := c.EncodeFrame(nil, rv)
		if err != nil {
			t.Fatal(err)
		}
		if want := 6 + 4 + 8 + 8 + 8 + 4 + 12*nnz + 7*8; len(frame) != want {
			t.Errorf("%d nonzero buckets: frame is %d bytes, want %d", nnz, len(frame), want)
		}
	}
}

// TestReduceValWireNarrowIntoWide encodes a contribution whose histogram
// touched only its low buckets and decodes it into a pooled value that
// last carried a wider one: every bucket must come back equal, none of
// the wider value's counts may survive, and the frame must be the same
// bytes the sparse format has always had.
func TestReduceValWireNarrowIntoWide(t *testing.T) {
	c, sh := newWireHarness(t)
	narrow := sh.pools.getReduceVal(sh.bucketWidth)
	narrow.hist.Reset()
	narrow.hist.AddCreated(0.2) // bucket 0
	narrow.hist.AddCreated(1.4) // bucket 2
	narrow.hist.AddCreated(1.4)
	narrow.hist.AddProcessed(0.7) // bucket 1, negative
	narrow.holds = holdStats{tramHeldBefore: 3, tramDrained: 1, tramHeldAfter: 2}
	if top := narrow.hist.Top(); top != 3 {
		t.Fatalf("narrow histogram top %d, want 3", top)
	}
	want := narrow.hist.Snapshot()
	wantHolds := narrow.holds

	body := wire.AppendU32(nil, histogram.DefaultBuckets)
	body = wire.AppendF64(body, sh.bucketWidth)
	body = wire.AppendI64(body, 3) // created
	body = wire.AppendI64(body, 1) // processed
	body = wire.AppendU32(body, 3) // nnz
	for _, kv := range [][2]int64{{0, 1}, {1, -1}, {2, 2}} {
		body = wire.AppendU32(body, uint32(kv[0]))
		body = wire.AppendI64(body, kv[1])
	}
	for _, h := range []int64{3, 1, 2, 0, 0, 0, 0} {
		body = wire.AppendI64(body, h)
	}
	frame, err := c.EncodeFrame(nil, narrow)
	if err != nil {
		t.Fatal(err)
	}
	if exp := buildFrame(wire.TagReduceVal, body); string(frame) != string(exp) {
		t.Fatalf("frame changed:\n got %x\nwant %x", frame, exp)
	}

	// The encode hook pooled narrow; swap it for a value whose histogram
	// reaches the last bucket, so the decode draws that one.
	sh.pools.getReduceVal(sh.bucketWidth)
	wide := &reduceVal{hist: histogram.New(histogram.DefaultBuckets, sh.bucketWidth)}
	for i := 0; i < histogram.DefaultBuckets; i++ {
		wide.hist.SetBucket(i, int64(100+i))
	}
	sh.pools.putReduceVal(wide)

	v, _, err := c.DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	got := v.(*reduceVal)
	if got != wide {
		t.Fatal("decode did not draw the wide pooled value")
	}
	for i := 0; i < histogram.DefaultBuckets; i++ {
		if got.hist.Bucket(i) != want.Bucket(i) {
			t.Errorf("bucket %d: %d, want %d", i, got.hist.Bucket(i), want.Bucket(i))
		}
	}
	if got.hist.Created != 3 || got.hist.Processed != 1 || got.holds != wantHolds {
		t.Errorf("counters: created %d processed %d holds %+v",
			got.hist.Created, got.hist.Processed, got.holds)
	}
	if got.hist.Sum() != want.Sum() || got.hist.HighestNonEmpty() != 2 {
		t.Errorf("scans: sum %d highest %d, want %d and 2", got.hist.Sum(), got.hist.HighestNonEmpty(), want.Sum())
	}
	sh.pools.putReduceVal(got)
}

func TestReduceValWireRejectsShapeMismatch(t *testing.T) {
	c, sh := newWireHarness(t)

	// Wrong bucket count.
	body := wire.AppendU32(nil, histogram.DefaultBuckets+1)
	body = wire.AppendF64(body, sh.bucketWidth)
	frame := buildFrame(wire.TagReduceVal, body)
	if _, _, err := c.DecodeFrame(frame); !errors.Is(err, wire.ErrMalformed) {
		t.Errorf("wrong bucket count decoded: %v", err)
	}

	// Right shape, bucket index out of range.
	body = wire.AppendU32(nil, histogram.DefaultBuckets)
	body = wire.AppendF64(body, sh.bucketWidth)
	body = wire.AppendI64(body, 0) // created
	body = wire.AppendI64(body, 0) // processed
	body = wire.AppendU32(body, 1) // nnz
	body = wire.AppendU32(body, histogram.DefaultBuckets)
	body = wire.AppendI64(body, 9)
	frame = buildFrame(wire.TagReduceVal, body)
	if _, _, err := c.DecodeFrame(frame); !errors.Is(err, wire.ErrMalformed) {
		t.Errorf("out-of-range bucket index decoded: %v", err)
	}

	// nnz larger than the remaining body.
	body = wire.AppendU32(nil, histogram.DefaultBuckets)
	body = wire.AppendF64(body, sh.bucketWidth)
	body = wire.AppendI64(body, 0)
	body = wire.AppendI64(body, 0)
	body = wire.AppendU32(body, 16)
	frame = buildFrame(wire.TagReduceVal, body)
	if _, _, err := c.DecodeFrame(frame); !errors.Is(err, wire.ErrMalformed) {
		t.Errorf("overlong nnz decoded: %v", err)
	}
}

// buildFrame wraps a raw tagged body in the frame preamble, for feeding
// hand-built (malformed) bodies to DecodeFrame.
func buildFrame(tag byte, body []byte) []byte {
	frame := make([]byte, 0, 6+len(body))
	frame = wire.AppendU32(frame, uint32(2+len(body)))
	frame = wire.AppendU8(frame, wire.Version)
	frame = wire.AppendU8(frame, tag)
	return append(frame, body...)
}
