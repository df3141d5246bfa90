package flatwire

import (
	"math"
	"math/bits"
)

// This file implements the flat layout's f64 value-block coding:
// lossless XOR-with-previous compression of IEEE 754 bit patterns.
//
// TF·IDF value blocks repeat heavily — every occurrence of a term with the
// same in-document frequency scores identically, and normalized vectors
// share exponent ranges — so XORing each value's bits with its
// predecessor's yields words that are exactly zero (equal values) or carry
// long zero-byte prefixes and suffixes. Each value is stored as:
//
//	0x88                                     the XOR word is zero
//	(L<<4 | T) byte, then 8−L−T raw bytes    otherwise
//
// where L and T count the XOR word's leading and trailing zero BYTES
// (each 0..7 — a nonzero word has at most 7 zero bytes, so L+T <= 7 and
// the control byte's high nibble never reaches 8, keeping 0x88
// unambiguous). The meaningful middle bytes are stored little-endian, in
// ascending byte position T..7−L.
//
// Every block is preceded by a one-byte form marker: ValueBlockXor selects
// the stream above; ValueBlockRaw stores the raw fixed-width bits instead,
// chosen by the encoder whenever XOR coding would not shrink the block —
// so a value block never grows by more than the marker byte. Decoding
// reconstructs the exact bit patterns either way.
//
// Decoding is canonical: the decoder accepts exactly the bytes the encoder
// writes for the values it reconstructs. A block in the form the encoder
// would not have picked, a control byte whose L or T undercounts the zero
// bytes (a stored edge byte of zero), or a zero XOR word written as a
// control byte is malformed. So an accepted block re-encodes to the same
// bytes, the property the decoders' fuzz targets check.

// Value-block form markers (the byte before every f64 value block).
const (
	// ValueBlockRaw marks a raw fixed-width block behind the marker.
	ValueBlockRaw byte = 0
	// ValueBlockXor marks an XOR-with-previous coded block.
	ValueBlockXor byte = 1
	// xorZeroMarker encodes a zero XOR word (value equals its
	// predecessor) in one byte. Unreachable as a control byte: a nonzero
	// word has L <= 7, so the high nibble never reaches 8.
	xorZeroMarker byte = 0x88
)

// xorF64Size returns the XOR-coded size of vs in bytes (marker excluded).
func xorF64Size(vs []float64) int {
	size := 0
	prev := uint64(0)
	for _, v := range vs {
		x := math.Float64bits(v) ^ prev
		prev ^= x
		if x == 0 {
			size++
			continue
		}
		size += 9 - bits.LeadingZeros64(x)/8 - bits.TrailingZeros64(x)/8
	}
	return size
}

// AppendF64sXor appends len(vs) values as an XOR value block: a form
// marker, then either the XOR stream or — when XOR coding would not
// shrink the block — the raw fixed-width bits. No length prefix: the
// codec's layout carries counts. Bit patterns round-trip exactly.
func AppendF64sXor(b []byte, vs []float64) []byte {
	if xorF64Size(vs) >= 8*len(vs) {
		b = append(b, ValueBlockRaw)
		return AppendF64s(b, vs)
	}
	b = append(b, ValueBlockXor)
	prev := uint64(0)
	for _, v := range vs {
		bitsV := math.Float64bits(v)
		x := bitsV ^ prev
		prev = bitsV
		if x == 0 {
			b = append(b, xorZeroMarker)
			continue
		}
		l := bits.LeadingZeros64(x) / 8
		t := bits.TrailingZeros64(x) / 8
		b = append(b, byte(l<<4|t))
		for i := t; i < 8-l; i++ {
			b = append(b, byte(x>>(8*uint(i))))
		}
	}
	return b
}

// F64sXorInto consumes one XOR value block of len(dst) values,
// reconstructing the exact bit patterns and adding the block's raw and
// coded sizes to the reader's value counters. Truncated streams,
// malformed control bytes and non-canonical blocks fail the reader, never
// panic.
func (r *Reader) F64sXorInto(dst []float64) {
	start := r.off
	switch form := r.U8(); form {
	case ValueBlockRaw:
		r.F64sInto(dst)
		if r.err == nil && xorF64Size(dst) < 8*len(dst) {
			r.fail("raw value block of %d values would XOR-code smaller", len(dst))
		}
	case ValueBlockXor:
		prev := uint64(0)
		for i := range dst {
			c := r.U8()
			if r.err != nil {
				return
			}
			if c != xorZeroMarker {
				l, t := int(c>>4), int(c&0x0f)
				if l+t > 7 {
					r.fail("xor control byte %#x: %d+%d zero bytes", c, l, t)
					return
				}
				s := r.take(8 - l - t)
				if s == nil {
					return
				}
				if s[0] == 0 || s[len(s)-1] == 0 {
					r.fail("xor control byte %#x undercounts zero bytes", c)
					return
				}
				var x uint64
				for bi, by := range s {
					x |= uint64(by) << (8 * uint(t+bi))
				}
				prev ^= x
			}
			dst[i] = math.Float64frombits(prev)
		}
		if r.off-start-1 >= 8*len(dst) {
			r.fail("xor value block of %d values does not shrink", len(dst))
		}
	default:
		if r.err == nil {
			r.fail("unknown value-block form %d", form)
		}
		return
	}
	if r.err == nil {
		r.valRaw += int64(8 * len(dst))
		r.valCoded += int64(r.off - start)
	}
}

// F64sXor consumes one XOR value block of n values into a fresh
// slice (nil when n is 0 and the block is well-formed).
func (r *Reader) F64sXor(n int) []float64 {
	if n == 0 {
		// Still consume the form marker (and validate it) so the layout
		// stays aligned.
		var none [0]float64
		r.F64sXorInto(none[:])
		return nil
	}
	dst := make([]float64, n)
	r.F64sXorInto(dst)
	if r.err != nil {
		return nil
	}
	return dst
}
