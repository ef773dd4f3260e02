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
	want := envelope{epoch: 12, kind: kindBroadcast, payload: wirePayload{x: -3}}
	frame, err := c.EncodeFrame(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := c.DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	env := got.(envelope)
	if env.epoch != 12 || env.kind != kindBroadcast || env.payload.(wirePayload).x != -3 {
		t.Fatalf("round trip: %+v", env)
	}
}

func TestEnvelopeWireRejectsBadKind(t *testing.T) {
	c := envCodec()
	frame, err := c.EncodeFrame(nil, envelope{kind: kindApp, payload: wirePayload{}})
	if err != nil {
		t.Fatal(err)
	}
	// kind byte sits after [hdr 6][epoch 8].
	frame[14] = uint8(kindQuiesce) + 1
	if _, _, err := c.DecodeFrame(frame); !errors.Is(err, wire.ErrMalformed) {
		t.Errorf("err = %v, want ErrMalformed", err)
	}
}
