package cdr

import (
	"encoding/binary"
	"fmt"
	"math"
)

// ByteOrder selects the endianness of an encoded CDR stream. CDR carries the
// sender's native order in-band (the byte-order flag of the enclosing GIOP
// header or encapsulation), so heterogeneous peers interoperate without
// agreeing on a canonical order.
type ByteOrder int

// Byte orders, matching the GIOP flag encoding (0 = big endian,
// 1 = little endian).
const (
	BigEndian    ByteOrder = 0
	LittleEndian ByteOrder = 1
)

// String returns "big" or "little".
func (o ByteOrder) String() string {
	if o == LittleEndian {
		return "little"
	}
	return "big"
}

func (o ByteOrder) byteOrder() binary.ByteOrder {
	if o == LittleEndian {
		return binary.LittleEndian
	}
	return binary.BigEndian
}

func (o ByteOrder) appender() binary.AppendByteOrder {
	if o == LittleEndian {
		return binary.LittleEndian
	}
	return binary.BigEndian
}

// Encoder marshals values into a CDR stream with a fixed byte order and
// CDR alignment rules. The zero value encodes big-endian from offset 0.
type Encoder struct {
	buf   []byte
	base  int // stream offset 0 lives at buf[base]
	order ByteOrder
}

// NewEncoder returns an Encoder producing the given byte order.
func NewEncoder(order ByteOrder) *Encoder {
	return &Encoder{order: order}
}

// NewEncoderOver returns an Encoder that appends its stream to buf,
// treating the current end of buf as stream offset 0: alignment is
// computed relative to that base, so the encoded bytes are identical to a
// standalone encode wherever the sub-stream lands. This is the zero-copy
// nesting primitive — frame headers or enclosing streams already in buf
// stay in place and the nested stream encodes directly after them.
func NewEncoderOver(order ByteOrder, buf []byte) *Encoder {
	return &Encoder{buf: buf, base: len(buf), order: order}
}

// Order returns the encoder's byte order.
func (e *Encoder) Order() ByteOrder { return e.order }

// Bytes returns the whole backing buffer: any prefix the encoder was
// created over, followed by the encoded stream. The returned slice aliases
// the encoder's buffer; callers must not retain it across further writes.
func (e *Encoder) Bytes() []byte { return e.buf }

// Stream returns just the encoded stream (excluding any NewEncoderOver
// prefix), aliasing the encoder's buffer like Bytes.
func (e *Encoder) Stream() []byte { return e.buf[e.base:] }

// Len returns the number of stream bytes encoded so far.
func (e *Encoder) Len() int { return len(e.buf) - e.base }

// align inserts padding so the next write lands on a multiple of n bytes
// from the start of the stream, as CDR requires.
func (e *Encoder) align(n int) {
	if n <= 1 {
		return
	}
	for (len(e.buf)-e.base)%n != 0 {
		e.buf = append(e.buf, 0)
	}
}

// ULongPatch is a reservation made by ReserveULong, to be filled by
// PatchULong once the value (typically a length) is known.
type ULongPatch struct {
	off   int
	order ByteOrder
}

// ReserveULong aligns and reserves the space of one unsigned long,
// returning a patch handle. Reserve-and-patch is how length-prefixed
// framing encodes in one pass without buffering the body separately.
func (e *Encoder) ReserveULong() ULongPatch {
	e.align(4)
	off := len(e.buf)
	e.buf = append(e.buf, 0, 0, 0, 0)
	return ULongPatch{off: off, order: e.order}
}

// PatchULong fills a reserved unsigned long in place.
func (e *Encoder) PatchULong(p ULongPatch, v uint32) {
	p.order.byteOrder().PutUint32(e.buf[p.off:p.off+4], v)
}

// ReserveRaw appends n zero bytes (no alignment) and returns the absolute
// offset of the reserved region in Bytes(). Callers fill the region in
// place — e.g. a seal header written after the sealed length is known.
func (e *Encoder) ReserveRaw(n int) int {
	off := len(e.buf)
	e.buf = append(e.buf, make([]byte, n)...) // recognised extend-with-zeros pattern: no temp allocation
	return off
}

// AppendVia hands the encoder's buffer to fn, which appends raw bytes (for
// example a nested frame with its own encoder, built over the same buffer
// via NewEncoderOver) and returns the extended slice; the encoder resumes
// over the result. No alignment is applied — the nested frame defines its
// own layout from the current position.
func (e *Encoder) AppendVia(fn func(dst []byte) []byte) {
	e.buf = fn(e.buf)
}

// WriteOctet appends a single byte.
func (e *Encoder) WriteOctet(v byte) { e.buf = append(e.buf, v) }

// WriteBoolean appends a CDR boolean (one octet, 0 or 1).
func (e *Encoder) WriteBoolean(v bool) {
	if v {
		e.WriteOctet(1)
	} else {
		e.WriteOctet(0)
	}
}

// WriteShort appends a 16-bit signed integer.
func (e *Encoder) WriteShort(v int16) { e.WriteUShort(uint16(v)) }

// WriteUShort appends a 16-bit unsigned integer.
func (e *Encoder) WriteUShort(v uint16) {
	e.align(2)
	e.buf = e.order.appender().AppendUint16(e.buf, v)
}

// WriteLong appends a 32-bit signed integer.
func (e *Encoder) WriteLong(v int32) { e.WriteULong(uint32(v)) }

// WriteULong appends a 32-bit unsigned integer.
func (e *Encoder) WriteULong(v uint32) {
	e.align(4)
	e.buf = e.order.appender().AppendUint32(e.buf, v)
}

// WriteLongLong appends a 64-bit signed integer.
func (e *Encoder) WriteLongLong(v int64) { e.WriteULongLong(uint64(v)) }

// WriteULongLong appends a 64-bit unsigned integer.
func (e *Encoder) WriteULongLong(v uint64) {
	e.align(8)
	e.buf = e.order.appender().AppendUint64(e.buf, v)
}

// WriteFloat appends a 32-bit IEEE 754 float.
func (e *Encoder) WriteFloat(v float32) { e.WriteULong(math.Float32bits(v)) }

// WriteDouble appends a 64-bit IEEE 754 float.
func (e *Encoder) WriteDouble(v float64) { e.WriteULongLong(math.Float64bits(v)) }

// WriteString appends a CDR string: ulong length including the NUL
// terminator, then the bytes, then NUL.
func (e *Encoder) WriteString(v string) {
	e.WriteULong(uint32(len(v) + 1))
	e.buf = append(e.buf, v...)
	e.buf = append(e.buf, 0)
}

// WriteOctets appends a CDR sequence<octet>: ulong length then raw bytes.
func (e *Encoder) WriteOctets(v []byte) {
	e.WriteULong(uint32(len(v)))
	e.buf = append(e.buf, v...)
}

// Decoder unmarshals a CDR stream produced by an Encoder of any byte order.
type Decoder struct {
	buf   []byte
	pos   int
	order ByteOrder
}

// NewDecoder returns a Decoder over buf interpreting multi-byte values in
// the given order.
func NewDecoder(buf []byte, order ByteOrder) *Decoder {
	return &Decoder{buf: buf, order: order}
}

// Order returns the decoder's byte order.
func (d *Decoder) Order() ByteOrder { return d.order }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.pos }

// errTruncated builds a descriptive short-buffer error.
func (d *Decoder) errTruncated(what string, need int) error {
	return fmt.Errorf("cdr: truncated %s at offset %d: need %d bytes, have %d",
		what, d.pos, need, len(d.buf)-d.pos)
}

func (d *Decoder) align(n int) error {
	if n <= 1 {
		return nil
	}
	for d.pos%n != 0 {
		if d.pos >= len(d.buf) {
			return d.errTruncated("padding", 1)
		}
		d.pos++
	}
	return nil
}

func (d *Decoder) take(what string, n int) ([]byte, error) {
	if len(d.buf)-d.pos < n {
		return nil, d.errTruncated(what, n)
	}
	b := d.buf[d.pos : d.pos+n]
	d.pos += n
	return b, nil
}

// ReadOctet reads a single byte.
func (d *Decoder) ReadOctet() (byte, error) {
	b, err := d.take("octet", 1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

// ReadBoolean reads a CDR boolean.
func (d *Decoder) ReadBoolean() (bool, error) {
	b, err := d.ReadOctet()
	if err != nil {
		return false, err
	}
	return b != 0, nil
}

// ReadUShort reads a 16-bit unsigned integer.
func (d *Decoder) ReadUShort() (uint16, error) {
	if err := d.align(2); err != nil {
		return 0, err
	}
	b, err := d.take("ushort", 2)
	if err != nil {
		return 0, err
	}
	return d.order.byteOrder().Uint16(b), nil
}

// ReadShort reads a 16-bit signed integer.
func (d *Decoder) ReadShort() (int16, error) {
	v, err := d.ReadUShort()
	return int16(v), err
}

// ReadULong reads a 32-bit unsigned integer.
func (d *Decoder) ReadULong() (uint32, error) {
	if err := d.align(4); err != nil {
		return 0, err
	}
	b, err := d.take("ulong", 4)
	if err != nil {
		return 0, err
	}
	return d.order.byteOrder().Uint32(b), nil
}

// ReadLong reads a 32-bit signed integer.
func (d *Decoder) ReadLong() (int32, error) {
	v, err := d.ReadULong()
	return int32(v), err
}

// ReadULongLong reads a 64-bit unsigned integer.
func (d *Decoder) ReadULongLong() (uint64, error) {
	if err := d.align(8); err != nil {
		return 0, err
	}
	b, err := d.take("ulonglong", 8)
	if err != nil {
		return 0, err
	}
	return d.order.byteOrder().Uint64(b), nil
}

// ReadLongLong reads a 64-bit signed integer.
func (d *Decoder) ReadLongLong() (int64, error) {
	v, err := d.ReadULongLong()
	return int64(v), err
}

// ReadFloat reads a 32-bit IEEE 754 float.
func (d *Decoder) ReadFloat() (float32, error) {
	v, err := d.ReadULong()
	return math.Float32frombits(v), err
}

// ReadDouble reads a 64-bit IEEE 754 float.
func (d *Decoder) ReadDouble() (float64, error) {
	v, err := d.ReadULongLong()
	return math.Float64frombits(v), err
}

// ReadString reads a CDR string.
func (d *Decoder) ReadString() (string, error) {
	n, err := d.ReadULong()
	if err != nil {
		return "", err
	}
	if n == 0 {
		return "", fmt.Errorf("cdr: invalid string length 0 (must include NUL)")
	}
	b, err := d.take("string", int(n))
	if err != nil {
		return "", err
	}
	if b[n-1] != 0 {
		return "", fmt.Errorf("cdr: string missing NUL terminator")
	}
	return string(b[:n-1]), nil
}

// ReadOctets reads a CDR sequence<octet>. The returned slice aliases the
// decoder's buffer, its capacity cut to its length so that appending to it
// never writes the bytes after it; an empty sequence reads as nil.
func (d *Decoder) ReadOctets() ([]byte, error) {
	n, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	if int(n) > d.Remaining() {
		return nil, d.errTruncated("octet sequence", int(n))
	}
	if n == 0 {
		return nil, nil
	}
	b := d.buf[d.pos : d.pos+int(n) : d.pos+int(n)]
	d.pos += int(n)
	return b, nil
}
