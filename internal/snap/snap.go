// Package snap is the little-endian binary codec underneath the
// microarchitectural snapshot format: an append-only Writer, an
// error-latching Reader, and the FNV-1a checksum shared with the trace
// store's on-disk format. Every simulator package that owns warm state
// serializes itself with these primitives so the snapshot byte layout
// is a pure function of the state — no reflection, no maps, no
// per-build variation.
package snap

import (
	"errors"
	"fmt"
)

// ErrShort reports a read past the end of the buffer.
var ErrShort = errors.New("snap: truncated input")

// Writer accumulates a snapshot image. The zero value is ready to use.
type Writer struct {
	Buf []byte
}

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.Buf = append(w.Buf, v) }

// Bool appends a bool as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U16 appends a little-endian uint16.
func (w *Writer) U16(v uint16) {
	w.Buf = append(w.Buf, byte(v), byte(v>>8))
}

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) {
	w.Buf = append(w.Buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) {
	w.Buf = append(w.Buf,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// I32 appends an int32 (two's complement).
func (w *Writer) I32(v int32) { w.U32(uint32(v)) }

// I64 appends an int64 (two's complement).
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int appends an int as 64 bits so the layout does not depend on the
// platform word size.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// String appends a length-prefixed string (uint16 length).
func (w *Writer) String(s string) {
	if len(s) > 1<<16-1 {
		s = s[:1<<16-1]
	}
	w.U16(uint16(len(s)))
	w.Buf = append(w.Buf, s...)
}

// Raw appends bytes verbatim (no length prefix).
func (w *Writer) Raw(b []byte) { w.Buf = append(w.Buf, b...) }

// Reader decodes a snapshot image. The first decode past the end
// latches ErrShort and every subsequent read returns zero values, so
// codecs can decode straight-line and check Err once.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps b for decoding.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the latched decode error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of undecoded bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Fail latches err (first caller wins) so codecs can surface their own
// structural-mismatch errors through the same channel.
func (r *Reader) Fail(err error) {
	if r.err == nil && err != nil {
		r.err = err
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.buf)-r.off < n {
		r.err = ErrShort
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 decodes one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool decodes a one-byte bool.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// U16 decodes a little-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return uint16(b[0]) | uint16(b[1])<<8
}

// U32 decodes a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// U64 decodes a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// I32 decodes an int32.
func (r *Reader) I32() int32 { return int32(r.U32()) }

// I64 decodes an int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int decodes an int stored as 64 bits.
func (r *Reader) Int() int { return int(r.I64()) }

// String decodes a length-prefixed string.
func (r *Reader) String() string {
	n := int(r.U16())
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// Expect decodes a uint64 and fails the reader unless it equals want.
// It is the structural guard every codec opens with: a snapshot built
// from a different geometry fails loudly instead of half-restoring.
func (r *Reader) Expect(want uint64, what string) {
	got := r.U64()
	if r.err == nil && got != want {
		r.err = fmt.Errorf("snap: %s mismatch: snapshot has %d, live state has %d", what, got, want)
	}
}

// Fnv1a returns the 64-bit FNV-1a hash of b — the integrity checksum
// that trails snapshot images and warm-snapshot files.
func Fnv1a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}
