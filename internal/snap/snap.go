// Package snap implements the tiny binary codec used by warm-state
// checkpoints: little-endian, in memory, with no reflection and no I/O.
//
// A Codec runs in one of two directions. An encoder appends to a buffer;
// a decoder reads a stream with a sticky error. Every primitive takes a
// pointer: encoding reads the value through it, decoding writes the value
// through it. So each snapshot type states its fields once, in one Snap
// method that both writes and restores them, and the byte layout of a
// checkpoint is exactly the sequence of those calls — deterministic by
// construction, and the two directions cannot drift apart. Decode-side
// checks (table geometry, index ranges, implausible lengths) sit in the
// same method; the values they test are always valid when encoding.
//
// After the first decode error every primitive is a no-op that leaves its
// target unchanged, so a caller can code a whole structure and check Err
// once; code that indexes by a decoded value checks it first.
//
// Snapshot coding is cold-path code: it runs once per warm-up group, never
// inside the cycle loop, so allocation here is fine.
package snap

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Codec is one direction of a snapshot stream: an encoder (NewEncoder) or
// a decoder (NewDecoder).
type Codec struct {
	buf []byte
	off int // read position when decoding
	dec bool
	err error
}

// NewEncoder returns a codec that appends what its primitives read.
func NewEncoder() *Codec { return &Codec{} }

// NewDecoder returns a codec that reads data into its primitives' targets.
func NewDecoder(data []byte) *Codec { return &Codec{buf: data, dec: true} }

// Decoding reports whether c restores state rather than writing it.
func (c *Codec) Decoding() bool { return c.dec }

// Bytes returns the encoded stream. The slice aliases the encoder's
// buffer; callers must not code anything afterwards.
func (c *Codec) Bytes() []byte { return c.buf }

// Err returns the first error, or nil.
func (c *Codec) Err() error { return c.err }

// Rest returns the number of unread bytes of a decoder's stream.
func (c *Codec) Rest() int {
	if !c.dec {
		return 0
	}
	return len(c.buf) - c.off
}

// Fail records an error (a semantic validation failure) so the
// sticky-error contract covers it too. The first error wins.
func (c *Codec) Fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

// next returns the next n bytes of a decoder's stream, or nil after an
// error.
func (c *Codec) next(n int) []byte {
	if c.err != nil {
		return nil
	}
	if len(c.buf)-c.off < n {
		c.err = fmt.Errorf("snap: truncated stream: need %d bytes at offset %d, have %d", n, c.off, len(c.buf)-c.off)
		return nil
	}
	b := c.buf[c.off : c.off+n]
	c.off += n
	return b
}

// U64 codes a uint64 in eight bytes.
func (c *Codec) U64(p *uint64) {
	if !c.dec {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, *p)
	} else if b := c.next(8); b != nil {
		*p = binary.LittleEndian.Uint64(b)
	}
}

// U32 codes a uint32 in four bytes.
func (c *Codec) U32(p *uint32) {
	if !c.dec {
		c.buf = binary.LittleEndian.AppendUint32(c.buf, *p)
	} else if b := c.next(4); b != nil {
		*p = binary.LittleEndian.Uint32(b)
	}
}

// U16 codes a uint16 in two bytes.
func (c *Codec) U16(p *uint16) {
	if !c.dec {
		c.buf = binary.LittleEndian.AppendUint16(c.buf, *p)
	} else if b := c.next(2); b != nil {
		*p = binary.LittleEndian.Uint16(b)
	}
}

// U8 codes one byte.
func (c *Codec) U8(p *uint8) {
	if !c.dec {
		c.buf = append(c.buf, *p)
	} else if b := c.next(1); b != nil {
		*p = b[0]
	}
}

// Int codes an int as a sign-extended uint64.
func (c *Codec) Int(p *int) {
	v := uint64(*p)
	c.U64(&v)
	*p = int(v)
}

// Bool codes a bool as one byte; any nonzero byte decodes as true.
func (c *Codec) Bool(p *bool) {
	var v uint8
	if *p {
		v = 1
	}
	c.U8(&v)
	*p = v != 0
}

// U8 codes a value of any byte-sized named type (kinds, classes,
// counters) in one byte.
func U8[T ~uint8](c *Codec, p *T) {
	v := uint8(*p)
	c.U8(&v)
	*p = T(v)
}

// U64 codes a value of any uint64-based named type (addresses) in eight
// bytes.
func U64[T ~uint64](c *Codec, p *T) {
	v := uint64(*p)
	c.U64(&v)
	*p = T(v)
}

// length codes a length prefix. Decoding rejects a length the rest of the
// stream cannot plausibly hold, so a corrupt stream fails fast instead of
// allocating an absurd buffer.
func (c *Codec) length(p *int) {
	v := uint64(*p)
	c.U64(&v)
	if c.err != nil {
		return
	}
	if c.dec && v > uint64(c.Rest())+1<<20 {
		c.Fail("snap: implausible length %d at offset %d (stream has %d bytes left)", v, c.off, c.Rest())
		return
	}
	*p = int(v)
}

// Table codes the length prefix of a table whose size the receiver's
// geometry fixes: decoding fails unless the stream holds exactly n
// entries. what names the table in the error. Table reports whether the
// caller may go on to code the n entries.
func (c *Codec) Table(n int, what string) bool {
	m := n
	c.Int(&m)
	if c.err == nil && m != n {
		c.Fail("%s size %d, snapshot has %d", what, n, m)
	}
	return c.err == nil
}

// Slice codes a length-prefixed slice with elem coding each element.
// Decoding resizes *s to the stream's length, reusing its capacity, and
// zeroes the elements before elem fills them.
func Slice[T any](c *Codec, s *[]T, elem func(*Codec, *T)) {
	n := len(*s)
	c.length(&n)
	if c.err != nil {
		return
	}
	if c.dec {
		*s = slices.Grow((*s)[:0], n)[:n]
		clear(*s)
	}
	for i := range *s {
		elem(c, &(*s)[i])
	}
}

// Map codes a map as a length-prefixed list of (key, value) pairs in
// ascending key order, so the bytes do not depend on Go's map iteration
// order. Keys take eight bytes; val codes each value. Decoding clears m
// and fills it from the stream; m must not be nil.
func Map[K ~int | ~uint64, V any](c *Codec, m map[K]V, val func(*Codec, *V)) {
	var keys []K
	if !c.dec {
		keys = SortedKeys(m)
	}
	n := len(keys)
	c.length(&n)
	if c.err != nil {
		return
	}
	if c.dec {
		clear(m)
	}
	for i := 0; i < n && c.err == nil; i++ {
		var k K
		var v V
		if !c.dec {
			k = keys[i]
			v = m[k]
		}
		kv := uint64(k)
		c.U64(&kv)
		k = K(kv)
		val(c, &v)
		if c.dec && c.err == nil {
			m[k] = v
		}
	}
}

// SortedKeys returns m's keys in ascending order.
func SortedKeys[K ~int | ~uint64, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	//smtfetch:commutative keys are collected and sorted before use
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
