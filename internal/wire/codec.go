package wire

import (
	"encoding/binary"
	"errors"
	"math"
	"sync"
)

// Encoder builds RPC payloads. All components in this repository encode
// their request and response bodies with it instead of reflection-based
// serialisation (encoding/gob) because payloads on the hot path carry file
// and chunk bytes, where copying and reflection dominate.
//
// The format is positional: the reader must consume fields in the exact
// order the writer produced them, exactly like a Thrift struct with
// sequential field IDs.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder with capacity pre-sized for n bytes. The
// encoder is GC-owned: its payload may escape freely. Hot paths whose
// payload lifetime ends with the RPC should use AcquireEncoder/Release
// instead.
func NewEncoder(n int) *Encoder {
	return &Encoder{buf: make([]byte, 0, n)}
}

var encoderPool = sync.Pool{New: func() any { return new(Encoder) }}

// AcquireEncoder returns a pooled encoder with capacity for at least n
// bytes, growing its recycled buffer geometrically when it is too small.
// The caller must invoke Release when the encoded payload is no longer
// referenced — for a request payload, after the Call returns, since
// WriteFrame copies it out synchronously. A handler's response is written
// after the handler has returned, so it cannot come from an encoder the
// handler releases: a few bytes go in Reply.Head, anything larger is
// built with NewEncoder or lent (Reply.Lend).
func AcquireEncoder(n int) *Encoder {
	e := encoderPool.Get().(*Encoder)
	if cap(e.buf) < n {
		e.buf = make([]byte, 0, nextSize(cap(e.buf), n))
	} else {
		e.buf = e.buf[:0]
	}
	return e
}

// Release recycles the encoder's buffer. The encoder and any slice
// previously returned by Bytes are invalid after Release.
func (e *Encoder) Release() {
	if cap(e.buf) <= maxRetainBody {
		encoderPool.Put(e)
	}
}

// Bytes returns the accumulated payload. The slice aliases the encoder's
// internal buffer; callers hand it to WriteFrame and drop the encoder (or
// Release it once the payload is dead, if it came from AcquireEncoder).
func (e *Encoder) Bytes() []byte { return e.buf }

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// Uint32 appends a fixed 4-byte big-endian integer.
func (e *Encoder) Uint32(v uint32) {
	e.buf = binary.BigEndian.AppendUint32(e.buf, v)
}

// Uint64 appends a fixed 8-byte big-endian integer.
func (e *Encoder) Uint64(v uint64) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, v)
}

// Int64 appends a signed 8-byte integer.
func (e *Encoder) Int64(v int64) { e.Uint64(uint64(v)) }

// Float64 appends an IEEE-754 double.
func (e *Encoder) Float64(v float64) { e.Uint64(math.Float64bits(v)) }

// Bytes32 appends a 4-byte length prefix followed by b.
func (e *Encoder) Bytes32(b []byte) {
	e.Uint32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Uint32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// StringSlice appends a count followed by each string.
func (e *Encoder) StringSlice(ss []string) {
	e.Uint32(uint32(len(ss)))
	for _, s := range ss {
		e.String(s)
	}
}

// ErrShortPayload is returned by Decoder methods when the payload ends
// before the requested field.
var ErrShortPayload = errors.New("wire: payload shorter than declared fields")

// Decoder consumes payloads produced by Encoder. Decoder methods never
// panic on malformed input; after the first failure Err reports it and all
// subsequent reads return zero values, so call sites can decode a full
// struct and check Err once.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps payload b.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Err reports the first decoding error, if any.
func (d *Decoder) Err() error { return d.err }

// remaining reports how many bytes have not been consumed.
func (d *Decoder) remaining() int { return len(d.buf) - d.off }

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.buf) {
		d.err = ErrShortPayload
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// Bool reads a one-byte boolean.
func (d *Decoder) Bool() bool {
	b := d.take(1)
	return b != nil && b[0] != 0
}

// Uint32 reads a 4-byte big-endian integer.
func (d *Decoder) Uint32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// Uint64 reads an 8-byte big-endian integer.
func (d *Decoder) Uint64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// Int64 reads a signed 8-byte integer.
func (d *Decoder) Int64() int64 { return int64(d.Uint64()) }

// Float64 reads an IEEE-754 double.
func (d *Decoder) Float64() float64 { return math.Float64frombits(d.Uint64()) }

// Bytes32 reads a 4-byte length prefix and returns that many bytes. The
// returned slice aliases the payload; callers that retain it beyond the
// RPC handler must copy.
func (d *Decoder) Bytes32() []byte {
	n := int(d.Uint32())
	return d.take(n)
}

// String reads a length-prefixed string.
func (d *Decoder) String() string { return string(d.Bytes32()) }

// StringSlice reads a count-prefixed string slice.
func (d *Decoder) StringSlice() []string {
	n := int(d.Uint32())
	if d.err != nil || n < 0 || n > d.remaining() {
		// Each string needs at least a 4-byte length, so n can never
		// legitimately exceed the remaining bytes.
		if d.err == nil {
			d.err = ErrShortPayload
		}
		return nil
	}
	ss := make([]string, 0, n)
	for range n {
		ss = append(ss, d.String())
	}
	return ss
}
