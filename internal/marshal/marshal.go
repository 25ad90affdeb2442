// Package marshal implements syscall argument serialization across the
// user/kernel boundary, with the paper's §3 marshalling obligation: "we
// can prove that values correctly round-trip through serialization and
// deserialization so that syscall arguments are consistent between
// user-space and kernel-space".
//
// Wire format: fixed-width little-endian scalars (matching the
// simulated x86-64 ABI), length-prefixed byte strings. The first six
// scalar words of a call travel in the simulated registers (the
// SyscallFrame); overflow and variable-length payloads travel through a
// user buffer whose mapping obligation is discharged by the syscall
// layer (internal/sys).
//
// The round-trip lemmas are registered as round-trip VCs and also run
// as testing/quick properties.
package marshal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"unsafe"
)

// Errors.
var (
	// ErrShortBuffer reports a decode past the end of input.
	ErrShortBuffer = errors.New("marshal: short buffer")
	// ErrTooLong reports a byte string exceeding MaxBytes.
	ErrTooLong = errors.New("marshal: byte string too long")
	// ErrTrailing reports leftover bytes after a complete decode.
	ErrTrailing = errors.New("marshal: trailing bytes")
)

// MaxBytes bounds a single length-prefixed byte string (16 MiB), so a
// corrupt length cannot make the kernel allocate unboundedly.
const MaxBytes = 16 << 20

// Encoder appends wire-format values to a buffer.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder, optionally reusing buf's storage.
func NewEncoder(buf []byte) *Encoder { return &Encoder{buf: buf[:0]} }

// AppendTo returns an encoder that appends after buf's contents, for
// encoding a record into the tail of a buffer that already holds others.
func AppendTo(buf []byte) *Encoder { return &Encoder{buf: buf} }

// Bytes returns the encoded buffer.
func (e *Encoder) Bytes() []byte { return e.buf }

// U8 appends a byte.
func (e *Encoder) U8(v uint8) *Encoder { e.buf = append(e.buf, v); return e }

// U16 appends a little-endian uint16.
func (e *Encoder) U16(v uint16) *Encoder {
	e.buf = binary.LittleEndian.AppendUint16(e.buf, v)
	return e
}

// U32 appends a little-endian uint32.
func (e *Encoder) U32(v uint32) *Encoder {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
	return e
}

// U64 appends a little-endian uint64.
func (e *Encoder) U64(v uint64) *Encoder {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
	return e
}

// I64 appends a little-endian int64 (two's complement).
func (e *Encoder) I64(v int64) *Encoder { return e.U64(uint64(v)) }

// Bool appends a boolean as one byte (0 or 1).
func (e *Encoder) Bool(v bool) *Encoder {
	if v {
		return e.U8(1)
	}
	return e.U8(0)
}

// Bytes appends a length-prefixed byte string.
func (e *Encoder) BytesField(p []byte) *Encoder {
	if len(p) > MaxBytes {
		// Encode an in-band error marker is worse than failing loudly;
		// encoders are kernel/user library code, so clamp is wrong too.
		// Record as max+1 so decode fails deterministically.
		e.U32(math.MaxUint32)
		return e
	}
	e.U32(uint32(len(p)))
	e.buf = append(e.buf, p...)
	return e
}

// BytesFieldBuf appends a length-prefixed byte string of n bytes and
// returns those bytes for the caller to fill — BytesField for a value
// not held as one slice. The caller must write all of them (they are not
// zeroed), before the next append. Past MaxBytes it returns nil and, as
// BytesField does, records a length that fails to decode.
func (e *Encoder) BytesFieldBuf(n int) []byte {
	if n > MaxBytes {
		e.U32(math.MaxUint32)
		return nil
	}
	e.U32(uint32(n))
	e.buf = slices.Grow(e.buf, n)[:len(e.buf)+n]
	return e.buf[len(e.buf)-n:]
}

// String appends a length-prefixed UTF-8 string.
func (e *Encoder) String(s string) *Encoder { return e.BytesField([]byte(s)) }

// Decoder consumes wire-format values from a buffer.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder reads from buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Err returns the first decode error.
func (d *Decoder) Err() error { return d.err }

// Fail records err as the decode error unless one is recorded already,
// so a format's own validity rule (an undefined field bit, say) fails a
// decode exactly as a short buffer does: every later read returns zero
// and Finish reports the first error.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Remaining returns the number of unconsumed bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Finish verifies the buffer was consumed exactly.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("%w: %d bytes", ErrTrailing, len(d.buf)-d.off)
	}
	return nil
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.buf) {
		d.err = fmt.Errorf("%w: need %d at offset %d of %d", ErrShortBuffer, n, d.off, len(d.buf))
		return nil
	}
	p := d.buf[d.off : d.off+n]
	d.off += n
	return p
}

// U8 reads a byte.
func (d *Decoder) U8() uint8 {
	p := d.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

// U16 reads a little-endian uint16.
func (d *Decoder) U16() uint16 {
	p := d.take(2)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(p)
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	p := d.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	p := d.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

// I64 reads a little-endian int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Bool reads a boolean; any nonzero byte is true.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// BytesField reads a length-prefixed byte string (copied out).
func (d *Decoder) BytesField() []byte {
	n := d.U32()
	if d.err != nil {
		return nil
	}
	if n > MaxBytes {
		d.err = fmt.Errorf("%w: %d", ErrTooLong, n)
		return nil
	}
	p := d.take(int(n))
	if p == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, p)
	return out
}

// BytesFieldRef reads a length-prefixed byte string without copying:
// the result aliases the decoder's buffer, so it is valid only as long as
// the buffer is left as it is. The syscall codec reads a request's bytes
// this way: a request is lent to the kernel for its call, and whatever
// the kernel keeps past the call it copies (see internal/sys).
func (d *Decoder) BytesFieldRef() []byte {
	n := d.U32()
	if d.err != nil {
		return nil
	}
	if n > MaxBytes {
		d.err = fmt.Errorf("%w: %d", ErrTooLong, n)
		return nil
	}
	p := d.take(int(n))
	if p == nil {
		return nil
	}
	return p
}

// String reads a length-prefixed string. The conversion is the one copy:
// the string never aliases the payload, so a decoder whose buffer is
// reused (a journal's chunk, a reply) may keep it.
func (d *Decoder) String() string { return string(d.BytesFieldRef()) }

// StringRef is String by reference, as BytesFieldRef is BytesField: the
// string aliases the decoder's buffer, and is valid only as long as the
// buffer is left as it is — a string keeps nothing stable by itself, so
// a holder that outlives the buffer must clone it (strings.Clone).
func (d *Decoder) StringRef() string {
	p := d.BytesFieldRef()
	return unsafe.String(unsafe.SliceData(p), len(p))
}
