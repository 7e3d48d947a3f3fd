package cumulative

import (
	"testing"

	"exterminator/internal/site"
)

// TestUploadDeltaCoversEverythingOnce: the first delta is the whole
// history; after MarkUploaded the next delta is empty; new evidence
// yields a delta containing exactly the new evidence.
func TestUploadDeltaCoversEverythingOnce(t *testing.T) {
	hist := NewHistory(DefaultConfig())
	first := &Snapshot{C: 4, P: 0.5, Runs: 3, FailedRuns: 1, Sites: []site.ID{1, 2},
		Overflow: []SiteObservations{{Site: 1, Obs: []Observation{{X: 0.5, Y: true}, {X: 0.25, Y: false}}}},
		Dangling: []PairObservations{{Alloc: 1, Free: 9, Obs: []Observation{{X: 0.5, Y: true}}}},
		PadHints: []PadHint{{Site: 1, Pad: 16}},
	}
	hist.Absorb(first)

	delta := hist.UploadDelta()
	check := NewHistory(DefaultConfig())
	check.Absorb(delta)
	direct := NewHistory(DefaultConfig())
	direct.Absorb(first)
	// Deltas list observations canonically sorted; compare canonical forms.
	check.Canonicalize()
	direct.Canonicalize()
	if !check.Equal(direct) {
		t.Fatalf("first delta %+v does not reproduce the history", delta)
	}
	hist.MarkUploaded(delta)

	if d := hist.UploadDelta(); !DeltaEmpty(d) {
		t.Fatalf("delta after MarkUploaded not empty: %+v", d)
	}

	second := &Snapshot{C: 4, P: 0.5, Runs: 2, Sites: []site.ID{3},
		Overflow: []SiteObservations{
			{Site: 1, Obs: []Observation{{X: 0.75, Y: true}}},
			{Site: 3, Obs: []Observation{{X: 0.1, Y: false}}},
		},
		PadHints: []PadHint{{Site: 1, Pad: 32}}, // hint grew: re-sent
	}
	hist.Absorb(second)
	delta = hist.UploadDelta()
	if delta.Runs != 2 || len(delta.Sites) != 1 || delta.Sites[0] != 3 {
		t.Fatalf("second delta wrong counters/sites: %+v", delta)
	}
	gotObs := 0
	for _, so := range delta.Overflow {
		gotObs += len(so.Obs)
	}
	if gotObs != 2 {
		t.Fatalf("second delta carries %d overflow observations, want 2", gotObs)
	}
	if len(delta.PadHints) != 1 || delta.PadHints[0].Pad != 32 {
		t.Fatalf("grown pad hint not re-sent: %+v", delta.PadHints)
	}
	hist.MarkUploaded(delta)
	if d := hist.UploadDelta(); !DeltaEmpty(d) {
		t.Fatalf("delta after second MarkUploaded not empty: %+v", d)
	}
}

// TestUploadDeltaUnchangedHintNotResent: a hint that did not grow is not
// re-uploaded.
func TestUploadDeltaUnchangedHintNotResent(t *testing.T) {
	hist := NewHistory(DefaultConfig())
	hist.Absorb(&Snapshot{C: 4, P: 0.5, PadHints: []PadHint{{Site: 7, Pad: 24}}})
	d := hist.UploadDelta()
	hist.MarkUploaded(d)
	hist.Absorb(&Snapshot{C: 4, P: 0.5, PadHints: []PadHint{{Site: 7, Pad: 24}}}) // same value
	if d := hist.UploadDelta(); len(d.PadHints) != 0 {
		t.Fatalf("unchanged hint re-sent: %+v", d.PadHints)
	}
}

// TestUploadedCountsTracksWatermark: UploadedCounts moves exactly with
// MarkUploaded, so two deltas cut at the same unacknowledged position
// place identically (retry stability) and any acknowledged progress
// moves the position (fresh IDs for fresh deltas).
func TestUploadedCountsTracksWatermark(t *testing.T) {
	hist := NewHistory(DefaultConfig())
	if r, o := hist.UploadedCounts(); r != 0 || o != 0 {
		t.Fatalf("fresh history watermark at (%d, %d), want (0, 0)", r, o)
	}
	hist.Absorb(&Snapshot{
		Runs: 2, FailedRuns: 1,
		Sites: []site.ID{1},
		Overflow: []SiteObservations{
			{Site: 1, Obs: []Observation{{X: 0.5, Y: true}, {X: 0.5, Y: false}}},
		},
		Dangling: []PairObservations{
			{Alloc: 1, Free: 2, Obs: []Observation{{X: 0.5, Y: true}}},
		},
	})
	delta := hist.UploadDelta()
	if r, o := hist.UploadedCounts(); r != 0 || o != 0 {
		t.Fatalf("cutting a delta moved the watermark to (%d, %d)", r, o)
	}
	hist.MarkUploaded(delta)
	// Runs position counts runs + failed; observation position counts
	// every overflow and dangling observation.
	if r, o := hist.UploadedCounts(); r != 3 || o != 3 {
		t.Fatalf("watermark position (%d, %d) after ack, want (3, 3)", r, o)
	}
}
