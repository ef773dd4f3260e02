package runtime

import (
	"errors"
	"testing"

	"acic/internal/wire"
)

type wirePayload struct{ x int32 }

func envCodec() *wire.Codec {
	c := wire.NewCodec()
	RegisterWire(c)
	c.Register(0x80, wirePayload{},
		func(c *wire.Codec, buf []byte, v any) ([]byte, error) {
			return wire.AppendI32(buf, v.(wirePayload).x), nil
		},
		func(c *wire.Codec, r *wire.Reader) (any, error) {
			return wirePayload{x: r.I32()}, nil
		},
		nil)
	return c
}

func TestEnvelopeWireRoundTrip(t *testing.T) {
	c := envCodec()
	frame, err := c.EncodeFrame(nil, getEnvelope(envelope{epoch: 12, kind: kindBroadcast, payload: wirePayload{x: -3}}))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := c.DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	env := got.(*envelope)
	if env.epoch != 12 || env.kind != kindBroadcast || env.payload.(wirePayload).x != -3 {
		t.Fatalf("round trip: %+v", env)
	}
	putEnvelope(env)
}

func TestEnvelopeWireRejectsBadKind(t *testing.T) {
	c := envCodec()
	frame, err := c.EncodeFrame(nil, getEnvelope(envelope{kind: kindApp, payload: wirePayload{}}))
	if err != nil {
		t.Fatal(err)
	}
	// kind byte sits after [hdr 6][epoch 8].
	frame[14] = uint8(kindQuiesce) + 1
	if _, _, err := c.DecodeFrame(frame); !errors.Is(err, wire.ErrMalformed) {
		t.Errorf("err = %v, want ErrMalformed", err)
	}
}

// TestEnvelopeWireReturnsEveryEnvelope follows the pool through one
// process boundary: every envelope a send takes is returned by its encode,
// and every envelope a decode takes is returned by its delivery.
// putEnvelope zeroes what it pools, so a returned envelope reads as the
// zero value; one still holding its message was never handed back.
func TestEnvelopeWireReturnsEveryEnvelope(t *testing.T) {
	c := envCodec()
	rt := &Runtime{pes: []*PE{{mbox: newMailbox()}}}
	const msgs = 16
	var frames [][]byte
	for i := 0; i < msgs; i++ {
		sent := getEnvelope(envelope{epoch: int64(i), kind: kindApp, payload: wirePayload{x: int32(i)}})
		frame, err := c.EncodeFrame(nil, sent)
		if err != nil {
			t.Fatal(err)
		}
		if *sent != (envelope{}) {
			t.Fatalf("message %d: encode did not return the sent envelope: %+v", i, *sent)
		}
		frames = append(frames, frame)
	}
	for i, frame := range frames {
		v, _, err := c.DecodeFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		got := v.(*envelope)
		rt.deliverLocal(0, got)
		if *got != (envelope{}) {
			t.Fatalf("message %d: delivery did not return the decoded envelope: %+v", i, *got)
		}
		env, ok := rt.pes[0].mbox.tryPop()
		if !ok || env.epoch != int64(i) || env.payload.(wirePayload).x != int32(i) {
			t.Fatalf("message %d: mailbox holds %+v (ok %v)", i, env, ok)
		}
	}
}
