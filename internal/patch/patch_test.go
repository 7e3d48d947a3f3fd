package patch

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"exterminator/internal/site"
)

func TestAddPadKeepsMax(t *testing.T) {
	s := New()
	if !s.AddPad(1, 10) {
		t.Fatal("first AddPad reported no change")
	}
	if s.AddPad(1, 5) {
		t.Fatal("smaller pad reported change")
	}
	if !s.AddPad(1, 20) {
		t.Fatal("larger pad reported no change")
	}
	if s.Pad(1) != 20 {
		t.Fatalf("pad = %d", s.Pad(1))
	}
	if s.AddPad(2, 0) {
		t.Fatal("zero pad stored")
	}
}

func TestAddDeferralKeepsMax(t *testing.T) {
	s := New()
	p := site.Pair{Alloc: 1, Free: 2}
	s.AddDeferral(p, 100)
	s.AddDeferral(p, 50)
	if s.Deferral(p) != 100 {
		t.Fatalf("deferral = %d", s.Deferral(p))
	}
	s.AddDeferral(p, 200)
	if s.Deferral(p) != 200 {
		t.Fatalf("deferral = %d", s.Deferral(p))
	}
	if s.Deferral(site.Pair{Alloc: 9, Free: 9}) != 0 {
		t.Fatal("missing pair nonzero")
	}
}

func mkSet(pads map[uint32]uint32, defs map[[2]uint32]uint64) *Set {
	s := New()
	for k, v := range pads {
		s.AddPad(site.ID(k), v)
	}
	for k, v := range defs {
		s.AddDeferral(site.Pair{Alloc: site.ID(k[0]), Free: site.ID(k[1])}, v)
	}
	return s
}

func TestMergeSemilattice(t *testing.T) {
	a := mkSet(map[uint32]uint32{1: 10, 2: 5}, map[[2]uint32]uint64{{1, 2}: 7})
	b := mkSet(map[uint32]uint32{1: 4, 3: 9}, map[[2]uint32]uint64{{1, 2}: 11, {3, 4}: 2})

	ab := a.Clone()
	ab.Merge(b)
	ba := b.Clone()
	ba.Merge(a)
	if !ab.Equal(ba) {
		t.Fatal("merge not commutative")
	}
	if ab.Pad(1) != 10 || ab.Pad(3) != 9 {
		t.Fatal("merge did not take maxima")
	}
	if ab.Deferral(site.Pair{Alloc: 1, Free: 2}) != 11 {
		t.Fatal("deferral max wrong")
	}
	// Idempotent.
	ab2 := ab.Clone()
	if ab2.Merge(ab) {
		t.Fatal("self merge reported change")
	}
	if !ab2.Equal(ab) {
		t.Fatal("merge not idempotent")
	}
}

func TestMergeCollaborative(t *testing.T) {
	// Two users hit different bugs; merging covers both (§6.4).
	u1 := New()
	u1.AddPad(site.ID(0x1), 6)
	u2 := New()
	u2.AddPad(site.ID(0x1), 4) // same site, smaller pad
	u2.AddDeferral(site.Pair{Alloc: 0x2, Free: 0x3}, 100)
	merged := New()
	merged.Merge(u1)
	merged.Merge(u2)
	if merged.Pad(site.ID(0x1)) != 6 {
		t.Fatal("merge did not take max pad")
	}
	if merged.Deferral(site.Pair{Alloc: 0x2, Free: 0x3}) != 100 {
		t.Fatal("merge lost deferral")
	}
}

func TestMergeAssociative(t *testing.T) {
	if err := quick.Check(func(p1, p2, p3 map[uint32]uint32) bool {
		a := mkSet(p1, nil)
		b := mkSet(p2, nil)
		c := mkSet(p3, nil)
		left := a.Clone()
		left.Merge(b)
		left.Merge(c)
		bc := b.Clone()
		bc.Merge(c)
		right := a.Clone()
		right.Merge(bc)
		return left.Equal(right)
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTextRoundTrip(t *testing.T) {
	s := mkSet(
		map[uint32]uint32{0xcafe: 12},
		map[[2]uint32]uint64{{0x1, 0x2}: 33},
	)
	var buf bytes.Buffer
	if err := s.EncodeText(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(s) {
		t.Fatalf("text round trip mismatch: %s vs %s", got, s)
	}
}

func TestTextComments(t *testing.T) {
	in := "# a comment\n\npad 0000cafe 6\ndefer 00000001 00000002 10\n"
	s, err := DecodeText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if s.Pad(0xcafe) != 6 || s.Deferral(site.Pair{Alloc: 1, Free: 2}) != 10 {
		t.Fatalf("parsed %s", s)
	}
}

func TestTextErrors(t *testing.T) {
	for _, bad := range []string{
		"pad 1\n",
		"pad zz 5\n",
		"defer 1 2\n",
		"frobnicate 1 2 3\n",
	} {
		if _, err := DecodeText(strings.NewReader(bad)); err == nil {
			t.Errorf("parsed bad input %q", bad)
		}
	}
}

func TestLen(t *testing.T) {
	s := mkSet(map[uint32]uint32{1: 1, 2: 2}, map[[2]uint32]uint64{{1, 2}: 3})
	if s.Len() != 3 {
		t.Fatalf("len = %d", s.Len())
	}
}

func BenchmarkMerge1000Sites(b *testing.B) {
	big := New()
	for i := uint32(0); i < 1000; i++ {
		big.AddPad(site.ID(i), i+1)
	}
	for i := 0; i < b.N; i++ {
		s := New()
		s.Merge(big)
	}
}
