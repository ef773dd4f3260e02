package core

import (
	"fmt"

	"acic/internal/wire"

	"acic/internal/histogram"
)

// registerCoreWire binds ACIC's message payloads to their wire tags on c.
// The registrations are tied to one run's sharedState because both bulk
// payloads round-trip through the run's pools rather than the heap:
//
//   - *batchMsg items decode into a buffer from the tram pool's shared
//     shard (BorrowShared) under a pooled header (getBatch) and,
//     symmetrically, an encoded batch returns its buffer there (Release)
//     and its header (putBatch) via the afterEncode hook — encoding a
//     batch for the socket consumes it, exactly as local delivery would.
//   - *reduceVal contributions decode into pooled values (getReduceVal)
//     and are recycled on encode (putReduceVal).
//   - *ctrlMsg broadcasts decode into pooled values (getCtrl) marked
//     pooled, which the receiving PE's OnBroadcast hands back. Encoding
//     leaves the root's own payload alone: it is the root's, not the pool's.
//
// Each process therefore keeps its own pool ledger balanced: the sender
// pairs its Borrow with the encode-side Release, the receiver pairs its
// decode-side BorrowShared with receiveBatch's ReleaseTo.
func registerCoreWire(c *wire.Codec, sh *sharedState) {
	c.Register(wire.TagSeed, seedMsg{},
		func(c *wire.Codec, buf []byte, v any) ([]byte, error) {
			return wire.AppendI32(buf, v.(seedMsg).source), nil
		},
		func(c *wire.Codec, r *wire.Reader) (any, error) {
			return seedMsg{source: r.I32()}, nil
		},
		nil)

	c.Register(wire.TagStart, startMsg{},
		func(c *wire.Codec, buf []byte, v any) ([]byte, error) {
			return buf, nil
		},
		func(c *wire.Codec, r *wire.Reader) (any, error) {
			return startMsg{}, nil
		},
		nil)

	c.Register(wire.TagBatch, (*batchMsg)(nil),
		func(c *wire.Codec, buf []byte, v any) ([]byte, error) {
			items := v.(*batchMsg).items
			buf = wire.AppendU32(buf, uint32(len(items)))
			for _, u := range items {
				buf = wire.AppendI32(buf, u.Vertex)
				buf = wire.AppendI32(buf, u.Pred)
				buf = wire.AppendF64(buf, u.Dist)
			}
			return buf, nil
		},
		func(c *wire.Codec, r *wire.Reader) (any, error) {
			n := int(r.U32())
			// Each update is 16 bytes on the wire; checking the count
			// against both the tram capacity and the remaining body
			// bounds the allocation before it happens.
			if n > sh.tm.Capacity() || n*16 > r.Remaining() {
				return nil, fmt.Errorf("%w: batch count %d", wire.ErrMalformed, n)
			}
			items := sh.tm.BorrowShared()
			for i := 0; i < n; i++ {
				items = append(items, Update{
					Vertex: r.I32(),
					Pred:   r.I32(),
					Dist:   r.F64(),
				})
			}
			m := sh.pools.getBatch()
			m.items = items
			return m, nil
		},
		func(v any) {
			m := v.(*batchMsg)
			sh.tm.Release(m.items)
			sh.pools.putBatch(m)
		})

	c.Register(wire.TagCtrl, (*ctrlMsg)(nil),
		func(c *wire.Codec, buf []byte, v any) ([]byte, error) {
			m := v.(*ctrlMsg)
			buf = wire.AppendI32(buf, int32(m.thresholds.Tram))
			buf = wire.AppendI32(buf, int32(m.thresholds.PQ))
			var flags byte
			if m.terminate {
				flags |= 1
			}
			return wire.AppendU8(buf, flags), nil
		},
		func(c *wire.Codec, r *wire.Reader) (any, error) {
			th := histogram.Thresholds{Tram: int(r.I32()), PQ: int(r.I32())}
			flags := r.U8()
			if flags&^byte(1) != 0 {
				return nil, fmt.Errorf("%w: ctrl flags 0x%02x", wire.ErrMalformed, flags)
			}
			if err := r.Err(); err != nil {
				return nil, err
			}
			m := sh.pools.getCtrl()
			*m = ctrlMsg{thresholds: th, terminate: flags&1 != 0, pooled: true}
			return m, nil
		},
		nil)

	c.Register(wire.TagReduceVal, (*reduceVal)(nil),
		func(c *wire.Codec, buf []byte, v any) ([]byte, error) {
			rv := v.(*reduceVal)
			h := rv.hist
			buf = wire.AppendU32(buf, uint32(h.NumBuckets()))
			buf = wire.AppendF64(buf, h.Width())
			buf = wire.AppendI64(buf, h.Created)
			buf = wire.AppendI64(buf, h.Processed)
			// Sparse bucket encoding: RMAT histograms are overwhelmingly
			// empty, so (index, count) pairs beat a dense array. One walk
			// over the touched prefix writes them behind a count that is
			// patched once the walk knows it.
			at := len(buf)
			buf = wire.AppendU32(buf, 0)
			var nnz uint32
			for i := 0; i < h.Top(); i++ {
				if v := h.Bucket(i); v != 0 {
					buf = wire.AppendU32(buf, uint32(i))
					buf = wire.AppendI64(buf, v)
					nnz++
				}
			}
			wire.PutU32(buf[at:], nnz)
			buf = wire.AppendI64(buf, rv.holds.tramHeldBefore)
			buf = wire.AppendI64(buf, rv.holds.tramDrained)
			buf = wire.AppendI64(buf, rv.holds.tramHeldAfter)
			buf = wire.AppendI64(buf, rv.holds.pqHeldBefore)
			buf = wire.AppendI64(buf, rv.holds.pqDrained)
			buf = wire.AppendI64(buf, rv.holds.pqHeldAfter)
			return wire.AppendI64(buf, rv.holds.pqReheld), nil
		},
		func(c *wire.Codec, r *wire.Reader) (any, error) {
			bucketCount := int(r.U32())
			width := r.F64()
			// A contribution of a different histogram shape cannot be
			// merged with local ones: that is a mis-wired mesh, not a
			// recoverable condition.
			if bucketCount != histogram.DefaultBuckets || width != sh.bucketWidth {
				return nil, fmt.Errorf("%w: histogram shape %d×%g, want %d×%g",
					wire.ErrMalformed, bucketCount, width, histogram.DefaultBuckets, sh.bucketWidth)
			}
			rv := sh.pools.getReduceVal(sh.bucketWidth)
			rv.hist.Reset()
			rv.hist.Created = r.I64()
			rv.hist.Processed = r.I64()
			nnz := int(r.U32())
			if nnz > bucketCount || nnz*12 > r.Remaining() {
				sh.pools.putReduceVal(rv)
				return nil, fmt.Errorf("%w: %d nonzero buckets", wire.ErrMalformed, nnz)
			}
			for i := 0; i < nnz; i++ {
				idx := int(r.U32())
				val := r.I64()
				if idx >= bucketCount {
					sh.pools.putReduceVal(rv)
					return nil, fmt.Errorf("%w: bucket index %d of %d", wire.ErrMalformed, idx, bucketCount)
				}
				rv.hist.SetBucket(idx, val)
			}
			rv.holds = holdStats{
				tramHeldBefore: r.I64(),
				tramDrained:    r.I64(),
				tramHeldAfter:  r.I64(),
				pqHeldBefore:   r.I64(),
				pqDrained:      r.I64(),
				pqHeldAfter:    r.I64(),
				pqReheld:       r.I64(),
			}
			if r.Err() != nil {
				sh.pools.putReduceVal(rv)
				return nil, r.Err()
			}
			return rv, nil
		},
		func(v any) { sh.pools.putReduceVal(v.(*reduceVal)) })
}
