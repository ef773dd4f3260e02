package runtime

import (
	"fmt"

	"acic/internal/wire"
)

// RegisterWire installs the envelope codec on c. The envelope is the
// outermost application value a fabric carries between processes: its
// payload is itself a registered wire value, encoded nested.
func RegisterWire(c *wire.Codec) {
	c.Register(wire.TagEnvelope, envelope{},
		func(c *wire.Codec, buf []byte, v any) ([]byte, error) {
			env := v.(envelope)
			buf = wire.AppendI64(buf, env.epoch)
			buf = wire.AppendU8(buf, uint8(env.kind))
			return c.AppendValue(buf, env.payload)
		},
		func(c *wire.Codec, r *wire.Reader) (any, error) {
			var env envelope
			env.epoch = r.I64()
			k := r.U8()
			if err := r.Err(); err != nil {
				return nil, err
			}
			if k > uint8(kindQuiesce) {
				return nil, fmt.Errorf("%w: envelope kind %d", wire.ErrMalformed, k)
			}
			env.kind = envKind(k)
			payload, err := c.ReadValue(r)
			if err != nil {
				return nil, err
			}
			env.payload = payload
			return env, nil
		},
		nil)
}
