// Package canary implements DieFast's random canaries (paper §3.3).
//
// Unlike traditional debugging allocators that use a fixed pattern such as
// 0xDEADBEEF, DieFast chooses a random 32-bit value at startup so that any
// fixed program data value collides with the canary with probability at
// most 1/2^31. The canary's last bit is always set: if a program reads a
// canary through a dangling pointer and dereferences it, the misaligned
// address traps immediately (see mem.Align).
//
// Canaries fill *freed* space. Combined with DieHard's headerless layout
// and E(M-1) freed objects between live ones, freed space acts as implicit
// fence-posts at zero space overhead.
//
// The 4-byte pattern repeats from the start of the buffer, so every 8-byte
// little-endian word at an offset that is a multiple of 8 reads Word64.
// Fill, Verify and CorruptRanges therefore work a word at a time and look
// at single bytes only in a word that differs and in the buffer's tail.
package canary

import (
	"encoding/binary"
	"math/bits"

	"exterminator/internal/xrand"
)

// Canary is the process-wide random 32-bit canary value.
type Canary uint32

// New draws a random canary with the low bit set.
func New(rng *xrand.RNG) Canary {
	return Canary(rng.Uint32() | 1)
}

// Byte returns the canary byte expected at offset off of a canary-filled
// buffer (the 4-byte little-endian pattern repeats from the buffer start).
func (c Canary) Byte(off int) byte {
	return byte(uint32(c) >> (8 * uint(off&3)))
}

// Fill overwrites buf with the repeating canary pattern.
func (c Canary) Fill(buf []byte) {
	w := c.Word64()
	i := 0
	for ; i+8 <= len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], w)
	}
	for ; i < len(buf); i++ {
		buf[i] = c.Byte(i)
	}
}

// Verify reports whether buf contains an intact canary fill.
func (c Canary) Verify(buf []byte) bool {
	return c.mismatch(buf, 0) == len(buf)
}

// mismatch returns the offset of the first byte at or after i that
// differs from the canary pattern, or len(buf) when none does.
func (c Canary) mismatch(buf []byte, i int) int {
	for ; i < len(buf) && i&7 != 0; i++ {
		if buf[i] != c.Byte(i) {
			return i
		}
	}
	w := c.Word64()
	for ; i+8 <= len(buf); i += 8 {
		if x := binary.LittleEndian.Uint64(buf[i:]) ^ w; x != 0 {
			// The lowest differing byte of a little-endian word is the
			// first one in memory.
			return i + bits.TrailingZeros64(x)/8
		}
	}
	for ; i < len(buf); i++ {
		if buf[i] != c.Byte(i) {
			return i
		}
	}
	return len(buf)
}

// Range is a contiguous corrupted byte range [Start, End) within a
// canary-filled buffer, together with the bytes observed there. Ranges are
// the raw material of the error isolator: they locate overflow strings.
type Range struct {
	Start, End int
	Bytes      []byte
}

// Len returns the number of corrupted bytes.
func (r Range) Len() int { return r.End - r.Start }

// CorruptRanges returns the maximal contiguous ranges of buf that differ
// from the canary pattern, in ascending order. An intact buffer yields nil.
func (c Canary) CorruptRanges(buf []byte) []Range {
	var out []Range
	for i := c.mismatch(buf, 0); i < len(buf); {
		j := i + 1
		for j < len(buf) && buf[j] != c.Byte(j) {
			j++
		}
		seg := make([]byte, j-i)
		copy(seg, buf[i:j])
		out = append(out, Range{Start: i, End: j, Bytes: seg})
		i = c.mismatch(buf, j)
	}
	return out
}

// Word64 returns the 64-bit value a load observes from a canary-filled
// buffer at any offset that is a multiple of 8: two repetitions of the
// 32-bit pattern. Fill stores it and Verify compares against it; a
// program that dereferences a canary loads it (see mem.Align).
func (c Canary) Word64() uint64 {
	return uint64(c)<<32 | uint64(c)
}
