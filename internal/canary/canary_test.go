package canary

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"exterminator/internal/xrand"
)

func TestLowBitAlwaysSet(t *testing.T) {
	rng := xrand.New(1)
	for i := 0; i < 1000; i++ {
		if c := New(rng); uint32(c)&1 == 0 {
			t.Fatalf("canary %08x has clear low bit", uint32(c))
		}
	}
}

func TestCanariesDifferAcrossSeeds(t *testing.T) {
	a := New(xrand.New(1))
	b := New(xrand.New(2))
	if a == b {
		t.Fatal("canaries identical across seeds")
	}
}

func TestFillVerifyRoundTrip(t *testing.T) {
	c := New(xrand.New(3))
	for _, n := range []int{0, 1, 3, 4, 7, 8, 16, 255, 256} {
		buf := make([]byte, n)
		c.Fill(buf)
		if !c.Verify(buf) {
			t.Fatalf("fresh fill of %d bytes fails verify", n)
		}
	}
}

func TestVerifyDetectsAnySingleByteFlip(t *testing.T) {
	c := New(xrand.New(4))
	buf := make([]byte, 64)
	c.Fill(buf)
	for i := range buf {
		orig := buf[i]
		buf[i] ^= 0xff
		if c.Verify(buf) {
			t.Fatalf("flip at %d undetected", i)
		}
		buf[i] = orig
	}
}

func TestCorruptRangesLocatesOverflowString(t *testing.T) {
	c := New(xrand.New(5))
	buf := make([]byte, 64)
	c.Fill(buf)
	overflow := []byte("OVERFLOW")
	copy(buf[10:], overflow)
	rs := c.CorruptRanges(buf)
	if len(rs) == 0 {
		t.Fatal("no corruption found")
	}
	// The detected range must cover the overflow string (bytes of the
	// string that happen to equal the canary pattern may split it).
	if rs[0].Start < 10 || rs[len(rs)-1].End > 10+len(overflow) {
		t.Fatalf("ranges %v outside [10,18)", rs)
	}
	total := 0
	for _, r := range rs {
		total += r.Len()
		if !bytes.Equal(r.Bytes, buf[r.Start:r.End]) {
			t.Fatal("range bytes do not match buffer")
		}
	}
	if total < len(overflow)-2 { // allow ≤2 accidental pattern matches
		t.Fatalf("only %d corrupted bytes found", total)
	}
}

func TestCorruptRangesIntactIsNil(t *testing.T) {
	c := New(xrand.New(6))
	buf := make([]byte, 32)
	c.Fill(buf)
	if rs := c.CorruptRanges(buf); rs != nil {
		t.Fatalf("intact buffer reported ranges %v", rs)
	}
}

func TestCorruptRangesMultipleSegments(t *testing.T) {
	c := New(xrand.New(7))
	buf := make([]byte, 64)
	c.Fill(buf)
	buf[5] ^= 0x55
	buf[40] ^= 0x55
	rs := c.CorruptRanges(buf)
	if len(rs) != 2 {
		t.Fatalf("got %d ranges, want 2: %v", len(rs), rs)
	}
	if rs[0].Start != 5 || rs[0].End != 6 || rs[1].Start != 40 {
		t.Fatalf("ranges %v", rs)
	}
}

func TestByteMatchesFillAtAllPhases(t *testing.T) {
	c := Canary(0x11223345)
	buf := make([]byte, 9)
	c.Fill(buf)
	for i, b := range buf {
		if c.Byte(i) != b {
			t.Fatalf("Byte(%d) = %02x, fill = %02x", i, c.Byte(i), b)
		}
	}
	if buf[0] != 0x45 || buf[1] != 0x33 || buf[4] != 0x45 {
		t.Fatalf("little-endian repetition wrong: % x", buf)
	}
}

func TestWord64(t *testing.T) {
	c := Canary(0xdeadbeef)
	if c.Word64() != 0xdeadbeefdeadbeef {
		t.Fatalf("Word64 = %x", c.Word64())
	}
	// Low bit of the word equals the canary's low bit: the alignment trap.
	c2 := New(xrand.New(8))
	if c2.Word64()&1 != 1 {
		t.Fatal("Word64 low bit clear")
	}
}

func TestPropertyVerifyIffUncorrupted(t *testing.T) {
	c := New(xrand.New(9))
	if err := quick.Check(func(n uint8, flip uint8, doFlip bool) bool {
		size := int(n%128) + 1
		buf := make([]byte, size)
		c.Fill(buf)
		if !doFlip {
			return c.Verify(buf)
		}
		i := int(flip) % size
		buf[i] ^= 0x01
		return !c.Verify(buf) && len(c.CorruptRanges(buf)) == 1
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// refFill, refVerify and refCorruptRanges work a byte at a time: the
// reference the word-width Fill, Verify and CorruptRanges must agree with.
func refFill(c Canary, buf []byte) {
	for i := range buf {
		buf[i] = c.Byte(i)
	}
}

func refVerify(c Canary, buf []byte) bool {
	for i, b := range buf {
		if b != c.Byte(i) {
			return false
		}
	}
	return true
}

func refCorruptRanges(c Canary, buf []byte) []Range {
	var out []Range
	i := 0
	for i < len(buf) {
		if buf[i] == c.Byte(i) {
			i++
			continue
		}
		j := i + 1
		for j < len(buf) && buf[j] != c.Byte(j) {
			j++
		}
		out = append(out, Range{Start: i, End: j, Bytes: append([]byte(nil), buf[i:j]...)})
		i = j
	}
	return out
}

func TestWordWidthMatchesByteReference(t *testing.T) {
	const maxLen = 300
	rng := xrand.New(10)
	c := New(rng)
	backing := make([]byte, maxLen+8)
	want := make([]byte, maxLen+8)
	intact := make([]byte, maxLen)
	refFill(c, intact)
	corruptByte := func(buf []byte, i int) { buf[i] ^= byte(rng.Intn(255) + 1) }
	corruptRun := func(buf []byte, from, to int) {
		for i := max(from, 0); i < min(to, len(buf)); i++ {
			corruptByte(buf, i)
		}
	}
	for n := 0; n <= maxLen; n++ {
		// SlotData hands DieFast a slice of a region, so buffers start at
		// every offset of the word below them.
		for start := 0; start < 8; start++ {
			for i := range backing {
				backing[i] = byte(rng.Uint32())
			}
			copy(want, backing)
			buf := backing[start : start+n]
			refFill(c, want[start:start+n])
			c.Fill(buf)
			for i := range backing {
				if backing[i] != want[i] {
					t.Fatalf("n=%d start=%d: Fill left %#02x at byte %d of the array, the reference %#02x", n, start, backing[i], i, want[i])
				}
			}

			cases := []struct {
				name    string
				applies bool
				corrupt func(buf []byte)
			}{
				{"intact", true, func([]byte) {}},
				{"one", n > 0, func(buf []byte) {
					i := rng.Intn(n)
					corruptRun(buf, i, i+1+rng.Intn(12))
				}},
				{"two", n > 0, func(buf []byte) {
					corruptByte(buf, rng.Intn(n))
					i := rng.Intn(n)
					corruptRun(buf, i, i+1+rng.Intn(12))
				}},
				{"across a word boundary", n > 8, func(buf []byte) {
					b := 8 * (1 + rng.Intn((n-1)/8))
					corruptRun(buf, b-1-rng.Intn(3), b+1+rng.Intn(3))
				}},
				{"in the last partial word", n%8 != 0, func(buf []byte) {
					corruptByte(buf, n-n%8+rng.Intn(n%8))
				}},
				{"split by pattern bytes", n >= 8, func(buf []byte) {
					// Bytes 1–3 of the word keep the pattern, so the
					// corrupted word holds two ranges.
					w := 8 * rng.Intn(n/8)
					corruptByte(buf, w)
					corruptRun(buf, w+4, w+8)
				}},
			}
			for _, tc := range cases {
				if !tc.applies {
					continue
				}
				copy(buf, intact[:n])
				tc.corrupt(buf)
				got, ref := c.CorruptRanges(buf), refCorruptRanges(c, buf)
				if !reflect.DeepEqual(got, ref) {
					t.Fatalf("n=%d start=%d %s: CorruptRanges %v, reference %v", n, start, tc.name, got, ref)
				}
				if v := c.Verify(buf); v != refVerify(c, buf) || v != (got == nil) {
					t.Fatalf("n=%d start=%d %s: Verify %v, reference %v, ranges %v", n, start, tc.name, v, refVerify(c, buf), got)
				}
				if tc.name != "intact" && got == nil {
					t.Fatalf("n=%d start=%d %s: corruption not found", n, start, tc.name)
				}
			}
		}
	}
}

func BenchmarkFill256(b *testing.B) {
	c := New(xrand.New(1))
	buf := make([]byte, 256)
	for i := 0; i < b.N; i++ {
		c.Fill(buf)
	}
}

func BenchmarkVerify256(b *testing.B) {
	c := New(xrand.New(1))
	buf := make([]byte, 256)
	c.Fill(buf)
	for i := 0; i < b.N; i++ {
		c.Verify(buf)
	}
}
