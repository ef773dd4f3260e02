package runtime

import (
	"fmt"

	"acic/internal/wire"
)

// RegisterWire installs the envelope codec on c. The envelope is the
// outermost application value a fabric carries between processes: its
// payload is itself a registered wire value, encoded nested. It follows
// both pool contracts of the codec: decoding draws the *envelope from the
// process's pool (the delivery returns it), and encoding consumes it —
// the afterEncode hook puts it back once its bytes are in the buffer.
func RegisterWire(c *wire.Codec) {
	c.Register(wire.TagEnvelope, (*envelope)(nil),
		func(c *wire.Codec, buf []byte, v any) ([]byte, error) {
			env := v.(*envelope)
			buf = wire.AppendI64(buf, env.epoch)
			buf = wire.AppendU8(buf, uint8(env.kind))
			return c.AppendValue(buf, env.payload)
		},
		func(c *wire.Codec, r *wire.Reader) (any, error) {
			epoch := r.I64()
			k := r.U8()
			if err := r.Err(); err != nil {
				return nil, err
			}
			if k > uint8(kindQuiesce) {
				return nil, fmt.Errorf("%w: envelope kind %d", wire.ErrMalformed, k)
			}
			payload, err := c.ReadValue(r)
			if err != nil {
				return nil, err
			}
			return getEnvelope(envelope{epoch: epoch, kind: envKind(k), payload: payload}), nil
		},
		func(v any) { putEnvelope(v.(*envelope)) })
}
