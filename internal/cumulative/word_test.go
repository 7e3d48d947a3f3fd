package cumulative

import (
	"math"
	"testing"

	"exterminator/internal/site"
)

// sameBits reports whether two observation lists match bit for bit, so
// that −0 and +0 count as different X values.
func sameBits(a, b []Observation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].X) != math.Float64bits(b[i].X) || a[i].Y != b[i].Y {
			return false
		}
	}
	return true
}

// TestEdgeObservationsKeepTheirMeaning absorbs a miss and a hit at each
// edge X (±0, the smallest subnormal, 0.5, 1) and reads them back through
// every path evidence leaves a history by in this package. Each must come
// back as absorbed, except that −0 reads back as +0; a hit at X = 0 must
// never turn into a miss there, or the reverse. The history file's path
// is the codec's TestHistoryFrameKeepsEdgeObservations.
func TestEdgeObservationsKeepTheirMeaning(t *testing.T) {
	var in, recorded []Observation
	for _, x := range factorEdges {
		for _, y := range []bool{false, true} {
			in = append(in, Observation{X: x, Y: y})
			recorded = append(recorded, Observation{X: math.Abs(x), Y: y})
		}
	}
	sub := math.SmallestNonzeroFloat64
	want := []Observation{
		{X: 0}, {X: 0}, {X: 0, Y: true}, {X: 0, Y: true},
		{X: sub}, {X: sub, Y: true}, {X: 0.5}, {X: 0.5, Y: true}, {X: 1}, {X: 1, Y: true},
	}
	build := func() *History {
		hist := NewHistory(DefaultConfig())
		hist.Absorb(&Snapshot{
			Sites:    []site.ID{1, 2},
			Overflow: []SiteObservations{{Site: 1, Obs: in}},
			Dangling: []PairObservations{{Alloc: 1, Free: 2, Obs: in}},
		})
		return hist
	}
	check := func(path string, s *Snapshot) {
		t.Helper()
		if len(s.Overflow) != 1 || len(s.Dangling) != 1 {
			t.Fatalf("%s: %d overflow and %d dangling keys, want 1 and 1", path, len(s.Overflow), len(s.Dangling))
		}
		if got := s.Overflow[0].Obs; !sameBits(got, want) {
			t.Errorf("%s overflow: %v, want %v", path, got, want)
		}
		if got := s.Dangling[0].Obs; !sameBits(got, want) {
			t.Errorf("%s dangling: %v, want %v", path, got, want)
		}
	}

	hist := build()
	if got := hist.ObservationsFor(1); !sameBits(got, recorded) {
		t.Errorf("ObservationsFor: %v, want %v", got, recorded)
	}
	check("Snapshot", hist.Snapshot())
	check("UploadDelta", hist.UploadDelta())
	check("Extract", build().Extract([]site.ID{1}))
	// Split keeps the stored order.
	if _, pending := build().Split(); !sameBits(pending.Overflow[0].Obs, recorded) || !sameBits(pending.Dangling[0].Obs, recorded) {
		t.Errorf("Split: %v and %v, want %v", pending.Overflow[0].Obs, pending.Dangling[0].Obs, recorded)
	}

	one := func(o Observation) *History {
		h := NewHistory(DefaultConfig())
		h.Absorb(&Snapshot{Overflow: []SiteObservations{{Site: 1, Obs: []Observation{o}}}})
		return h
	}
	if one(Observation{X: 0, Y: true}).Equal(one(Observation{X: 0})) {
		t.Error("a hit at X = 0 equals a miss at X = 0")
	}
	if !one(Observation{X: math.Copysign(0, -1)}).Equal(one(Observation{X: 0})) {
		t.Error("a miss at X = −0 differs from a miss at X = +0")
	}
}
