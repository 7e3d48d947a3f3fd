package cumulative

import (
	"testing"

	"exterminator/internal/site"
)

// recordedHistory builds a history with real overflow and dangling
// evidence using the simulated-run helpers.
func recordedHistory(t *testing.T, seedBase uint64) *History {
	t.Helper()
	hist := NewHistory(DefaultConfig())
	pair := site.Pair{Alloc: 0xDA, Free: 0xDF}
	for r := 1; r <= 10; r++ {
		h := overflowRun(seedBase+uint64(r)*2654435761, 0xBAD, 8)
		hist.RecordRun(h, len(h.Scan(false)) > 0)
		dh, failed := danglingRun(seedBase+uint64(r)*11400714819323198485, pair)
		hist.RecordRun(dh, failed)
	}
	return hist
}

func TestSnapshotAbsorbRoundTrip(t *testing.T) {
	hist := recordedHistory(t, 7)
	snap := hist.Snapshot()

	got := NewHistory(hist.Config())
	got.Absorb(snap)

	// The round-tripped history must be evidence-equivalent: same
	// counters, same findings, same candidate rankings.
	if got.Runs != hist.Runs || got.FailedRuns != hist.FailedRuns || got.CorruptRuns != hist.CorruptRuns {
		t.Fatalf("counters differ: got %s want %s", got, hist)
	}
	if got.Sites() != hist.Sites() {
		t.Fatalf("sites differ: %d vs %d", got.Sites(), hist.Sites())
	}
	hist.Canonicalize()
	if !hist.Equal(got) {
		t.Fatal("canonicalized original and absorbed copy differ")
	}
	if !hist.Identify().Patches().Equal(got.Identify().Patches()) {
		t.Fatal("findings differ after snapshot round trip")
	}
}

func TestHistoryMergeSplitEvidence(t *testing.T) {
	// Two installations each see half the runs; merging their histories
	// must equal one installation that saw everything.
	pair := site.Pair{Alloc: 0xDA, Free: 0xDF}
	whole := NewHistory(DefaultConfig())
	a := NewHistory(DefaultConfig())
	b := NewHistory(DefaultConfig())
	for r := 1; r <= 20; r++ {
		h := overflowRun(uint64(r)*2654435761, 0xBAD, 8)
		corrupt := len(h.Scan(false)) > 0
		h2 := overflowRun(uint64(r)*2654435761, 0xBAD, 8)
		whole.RecordRun(h, corrupt)
		if r%2 == 0 {
			a.RecordRun(h2, corrupt)
		} else {
			b.RecordRun(h2, corrupt)
		}
		dh, failed := danglingRun(uint64(r)*11400714819323198485, pair)
		dh2, _ := danglingRun(uint64(r)*11400714819323198485, pair)
		whole.RecordRun(dh, failed)
		if r%2 == 0 {
			a.RecordRun(dh2, failed)
		} else {
			b.RecordRun(dh2, failed)
		}
	}
	merged := NewHistory(DefaultConfig())
	merged.Merge(a)
	merged.Merge(b)
	whole.Canonicalize()
	merged.Canonicalize()
	if !whole.Equal(merged) {
		t.Fatalf("merged halves differ from whole:\n  whole  %s\n  merged %s", whole, merged)
	}
	if !whole.Identify().Patches().Equal(merged.Identify().Patches()) {
		t.Fatal("merged findings differ from whole-history findings")
	}
}

func TestCanonicalizeMakesOrderIrrelevant(t *testing.T) {
	// Same multiset of observations absorbed in different orders must
	// produce bit-identical Bayes factors after canonicalization.
	mk := func(order []int) *History {
		h := NewHistory(DefaultConfig())
		obs := []Observation{
			{X: 0.1, Y: true}, {X: 0.5, Y: false}, {X: 0.25, Y: true},
			{X: 0.7, Y: false}, {X: 0.1, Y: false},
		}
		for _, i := range order {
			h.Absorb(&Snapshot{
				Sites:    []site.ID{0xAB},
				Overflow: []SiteObservations{{Site: 0xAB, Obs: []Observation{obs[i]}}},
			})
		}
		h.Canonicalize()
		return h
	}
	h1 := mk([]int{0, 1, 2, 3, 4})
	h2 := mk([]int{4, 2, 0, 3, 1})
	b1 := BayesFactor(h1.ObservationsFor(0xAB))
	b2 := BayesFactor(h2.ObservationsFor(0xAB))
	if b1 != b2 {
		t.Fatalf("order-dependent Bayes factor: %v vs %v", b1, b2)
	}
}
