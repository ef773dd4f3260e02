// Package wire is the frame codec for fabrics that cross an OS-process
// boundary (internal/sockfab). In-process fabrics hand `any` payloads
// between goroutines by reference; a TCP fabric must turn them into bytes
// and back, and this package owns that translation.
//
// Frame format (all integers big-endian):
//
//	[u32 length][u8 version][u8 tag][body]
//
// length counts everything after the length word (version + tag + body),
// so it is at least 2 and at most 2+MaxBody. version pins the format
// (Version); a skewed peer is rejected with ErrVersion rather than
// misparsed. tag names the registered message type; the body layout is
// the type's own affair, written and read by the EncodeFunc/DecodeFunc
// registered for the tag.
//
// A Codec is an instantiated registry, not global state: each transport
// endpoint builds one and the packages whose types cross the wire hang
// their codecs on it (runtime.RegisterWire and the core driver's
// batch/reduction codecs with their pool hooks). Values can nest — a
// runtime envelope's payload is itself a tagged value — via
// AppendValue/ReadValue.
//
// Decoding is defensive by construction: every length is validated
// against the bytes actually present before any allocation is sized from
// it, so a truncated, bit-flipped, or hostile frame errors (ErrTruncated,
// ErrOversized, ErrUnknownTag, ...) without panicking or over-allocating.
// FuzzFrameDecode holds that line.
//
// Encode buffers come from whatever []byte the caller appends into;
// sockfab's writers and readers each keep one for their lifetime, so
// steady-state encode/decode does not allocate per message. Types that
// carry pooled resources (a tram batch's backing array, a pooled
// reduction value, a runtime envelope) register an afterEncode hook:
// encoding a value onto the wire consumes it, and the hook returns the
// resource to its pool on the spot — the serialized copy is now the only
// live one.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"sync"
)

// Version is the wire-format version stamped into every frame.
const Version = 1

// MaxBody caps a frame's body size. A length prefix above the cap is
// rejected before any buffer is sized from it, so a corrupt or hostile
// 4-GiB length cannot make a reader over-allocate.
const MaxBody = 1 << 20

// headerLen is the fixed preamble: length word + version + tag.
const headerLen = 6

// Decode/encode failure modes. Transports match on these to tell a
// protocol error (kill the conn) from an incomplete read (wait for more).
var (
	ErrTruncated  = errors.New("wire: truncated frame")
	ErrOversized  = errors.New("wire: length prefix exceeds MaxBody")
	ErrVersion    = errors.New("wire: version mismatch")
	ErrUnknownTag = errors.New("wire: unknown frame tag")
	ErrTrailing   = errors.New("wire: trailing bytes after body")
	ErrMalformed  = errors.New("wire: malformed body")
)

// Well-known tags. Tags are allocated centrally here so independently
// registered packages cannot collide: 0x0x runtime, 0x1x core driver.
const (
	TagEnvelope  byte = 0x01
	TagSeed      byte = 0x10
	TagStart     byte = 0x11
	TagBatch     byte = 0x12
	TagCtrl      byte = 0x13
	TagReduceVal byte = 0x14
)

// EncodeFunc appends v's body to buf and returns the extended slice.
type EncodeFunc func(c *Codec, buf []byte, v any) ([]byte, error)

// DecodeFunc reads one body from r and returns the decoded value. It must
// consume exactly the body (the codec rejects leftovers with ErrTrailing)
// and must validate every count against r.Remaining() before allocating.
type DecodeFunc func(c *Codec, r *Reader) (any, error)

type entry struct {
	name        string
	enc         EncodeFunc
	dec         DecodeFunc
	afterEncode func(v any)
}

// Codec maps registered Go types to wire tags and back. Build one per
// transport endpoint, register the crossing types, then share it freely:
// registration is construction-time, encode/decode are read-only and safe
// for concurrent use.
type Codec struct {
	byTag  [256]*entry
	tagOf  map[reflect.Type]byte
	frames int
}

// NewCodec returns an empty registry.
func NewCodec() *Codec {
	return &Codec{tagOf: make(map[reflect.Type]byte)}
}

// Register binds tag to prototype's dynamic type with its body codec.
// afterEncode, when non-nil, runs after every successful encode of a
// value of this type — the hook for types whose encoding consumes a
// pooled resource. Register panics on a duplicate tag or type: both are
// wiring bugs, not runtime conditions.
func (c *Codec) Register(tag byte, prototype any, enc EncodeFunc, dec DecodeFunc, afterEncode func(v any)) {
	t := reflect.TypeOf(prototype)
	if c.byTag[tag] != nil {
		panic(fmt.Sprintf("wire: tag 0x%02x registered twice (%s and %s)", tag, c.byTag[tag].name, t))
	}
	if _, dup := c.tagOf[t]; dup {
		panic(fmt.Sprintf("wire: type %s registered twice", t))
	}
	c.byTag[tag] = &entry{name: t.String(), enc: enc, dec: dec, afterEncode: afterEncode}
	c.tagOf[t] = tag
	c.frames++
}

// AppendValue appends v as a tagged value ([tag][body]) — the nesting
// unit. EncodeFrame wraps exactly one of these in the frame preamble.
func (c *Codec) AppendValue(buf []byte, v any) ([]byte, error) {
	tag, ok := c.tagOf[reflect.TypeOf(v)]
	if !ok {
		return buf, fmt.Errorf("%w: no tag for %T", ErrUnknownTag, v)
	}
	e := c.byTag[tag]
	buf = append(buf, tag)
	buf, err := e.enc(c, buf, v)
	if err != nil {
		return buf, err
	}
	if e.afterEncode != nil {
		e.afterEncode(v)
	}
	return buf, nil
}

// ReadValue reads one tagged value from r.
func (c *Codec) ReadValue(r *Reader) (any, error) {
	tag := r.U8()
	if r.Err() != nil {
		return nil, ErrTruncated
	}
	e := c.byTag[tag]
	if e == nil {
		return nil, fmt.Errorf("%w: 0x%02x", ErrUnknownTag, tag)
	}
	return e.dec(c, r)
}

// EncodeFrame appends one complete frame carrying v to buf.
func (c *Codec) EncodeFrame(buf []byte, v any) ([]byte, error) {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, Version)
	buf, err := c.AppendValue(buf, v)
	if err != nil {
		return buf[:start], err
	}
	body := len(buf) - start - 4
	if body-2 > MaxBody {
		return buf[:start], fmt.Errorf("%w: encoded body is %d bytes", ErrOversized, body-2)
	}
	binary.BigEndian.PutUint32(buf[start:], uint32(body))
	return buf, nil
}

// readerPool recycles the Reader that DecodeFrame threads through the
// registered decode funcs. The indirect call makes the Reader escape, so
// without the pool every decoded frame would pay one heap allocation —
// exactly the per-message cost the transport hot path must not have.
// Decode funcs copy what they keep (the codec contract), so a Reader is
// never referenced after DecodeFrame returns.
var readerPool = sync.Pool{New: func() any { return new(Reader) }}

// DecodeFrame parses one frame from the front of data, returning the
// decoded value and the number of bytes consumed. Incomplete frames
// return ErrTruncated (a streaming caller may read more and retry);
// everything else is a protocol error.
func (c *Codec) DecodeFrame(data []byte) (v any, consumed int, err error) {
	if len(data) < 4 {
		return nil, 0, ErrTruncated
	}
	length := binary.BigEndian.Uint32(data)
	if length < 2 {
		return nil, 0, fmt.Errorf("%w: length %d below preamble", ErrMalformed, length)
	}
	if length > MaxBody+2 {
		return nil, 0, fmt.Errorf("%w: length prefix %d", ErrOversized, length)
	}
	if uint32(len(data)-4) < length {
		return nil, 0, ErrTruncated
	}
	frame := data[4 : 4+length]
	if frame[0] != Version {
		return nil, 0, fmt.Errorf("%w: got %d, want %d", ErrVersion, frame[0], Version)
	}
	r := readerPool.Get().(*Reader)
	*r = Reader{b: frame[1:]}
	defer func() {
		*r = Reader{} // do not retain the caller's buffer in the pool
		readerPool.Put(r)
	}()
	v, err = c.ReadValue(r)
	if err != nil {
		return nil, 0, err
	}
	if err := r.Err(); err != nil {
		return nil, 0, err
	}
	if r.Remaining() != 0 {
		return nil, 0, fmt.Errorf("%w: %d bytes", ErrTrailing, r.Remaining())
	}
	return v, 4 + int(length), nil
}

// ReadFrame reads exactly one frame (preamble + body) from r into buf,
// reusing buf's capacity, and returns the filled slice. io.EOF comes back
// untouched when the stream ends cleanly between frames; a stream ending
// mid-frame is ErrTruncated. The length prefix is validated against
// MaxBody before any buffer is grown from it.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	buf = append(buf[:0], 0, 0, 0, 0)
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			return buf[:0], io.EOF
		}
		return buf[:0], ErrTruncated
	}
	length := binary.BigEndian.Uint32(buf)
	if length < 2 {
		return buf[:0], fmt.Errorf("%w: length %d below preamble", ErrMalformed, length)
	}
	if length > MaxBody+2 {
		return buf[:0], fmt.Errorf("%w: length prefix %d", ErrOversized, length)
	}
	buf = append(buf, make([]byte, length)...)
	if _, err := io.ReadFull(r, buf[4:]); err != nil {
		return buf[:0], ErrTruncated
	}
	return buf, nil
}

// --- primitive append helpers (big-endian) ---

// AppendU8 appends one byte.
func AppendU8(buf []byte, v byte) []byte { return append(buf, v) }

// AppendU32 appends v big-endian.
func AppendU32(buf []byte, v uint32) []byte {
	return append(buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// PutU32 overwrites buf[:4] with v big-endian: it patches a field an
// encoder reserved with AppendU32 before it knew the value.
func PutU32(buf []byte, v uint32) { binary.BigEndian.PutUint32(buf, v) }

// AppendU64 appends v big-endian.
func AppendU64(buf []byte, v uint64) []byte {
	return append(buf, byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// AppendI32 appends v big-endian (two's complement).
func AppendI32(buf []byte, v int32) []byte { return AppendU32(buf, uint32(v)) }

// AppendI64 appends v big-endian (two's complement).
func AppendI64(buf []byte, v int64) []byte { return AppendU64(buf, uint64(v)) }

// AppendF64 appends v's exact IEEE-754 bits, so histogram widths and
// distances round-trip bit-identically (histogram.Merge panics on a
// width mismatch; "almost equal" is not equal).
func AppendF64(buf []byte, v float64) []byte { return AppendU64(buf, math.Float64bits(v)) }

// Reader is a bounds-checked, sticky-error cursor over a frame body.
// After the first short read every accessor returns zero and Err() is
// non-nil, so decoders can read a fixed layout without per-field checks —
// but they MUST check Err() (or use the codec entry points, which do)
// before trusting any value, and must validate element counts against
// Remaining() before allocating.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the sticky error, nil before any overrun.
func (r *Reader) Err() error { return r.err }

// Remaining returns how many unread bytes are left.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.Remaining() < n {
		r.err = ErrTruncated
		return nil
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}

// U8 reads one byte.
func (r *Reader) U8() byte {
	s := r.take(1)
	if s == nil {
		return 0
	}
	return s[0]
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	s := r.take(4)
	if s == nil {
		return 0
	}
	return binary.BigEndian.Uint32(s)
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	s := r.take(8)
	if s == nil {
		return 0
	}
	return binary.BigEndian.Uint64(s)
}

// I32 reads a big-endian int32.
func (r *Reader) I32() int32 { return int32(r.U32()) }

// I64 reads a big-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads IEEE-754 bits.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }
