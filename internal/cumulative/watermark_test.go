package cumulative

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"exterminator/internal/site"
)

func encodeDecode(t *testing.T, hist *History) *History {
	t.Helper()
	var buf bytes.Buffer
	if err := hist.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := DecodeHistory(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

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

// TestWatermarkSurvivesPersistence is the -resume-history + -fleet
// footgun test: save a history whose evidence was already uploaded,
// decode it, and verify the next upload delta is empty — not the whole
// history again.
func TestWatermarkSurvivesPersistence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	hist := NewHistory(DefaultConfig())
	for i := 0; i < 6; i++ {
		hist.Absorb(randSnapshot(rng))
	}
	d := hist.UploadDelta()
	hist.MarkUploaded(d)

	restored := encodeDecode(t, hist)
	if got := restored.UploadDelta(); !DeltaEmpty(got) {
		t.Fatalf("restored history wants to re-upload: %d sites, %d runs", len(got.Sites), got.Runs)
	}

	// More evidence after the restart uploads exactly once.
	extra := randSnapshot(rng)
	restored.Absorb(extra)
	got := restored.UploadDelta()
	if got.Runs != extra.Runs {
		t.Fatalf("post-restore delta runs = %d, want %d", got.Runs, extra.Runs)
	}
	restored.MarkUploaded(got)
	if d := restored.UploadDelta(); !DeltaEmpty(d) {
		t.Fatal("delta not empty after post-restore upload")
	}
}

// TestWatermarkClampOnDecode: a persisted watermark claiming more was
// uploaded than the history contains (corrupt or hand-edited file) is
// clamped on decode — the next delta re-uploads at worst, but never goes
// negative and never suppresses evidence forever.
func TestWatermarkClampOnDecode(t *testing.T) {
	hist := NewHistory(DefaultConfig())
	hist.Absorb(&Snapshot{C: 4, P: 0.5, Runs: 3, Sites: []site.ID{1},
		Overflow: []SiteObservations{{Site: 1, Obs: []Observation{{X: 0.5, Y: true}}}},
		PadHints: []PadHint{{Site: 1, Pad: 8}}})
	// Violate the MarkUploaded contract to simulate a corrupt watermark:
	// counts far beyond what the history holds.
	hist.MarkUploaded(&Snapshot{Runs: 1000, FailedRuns: 50, CorruptRuns: 50,
		Overflow: []SiteObservations{{Site: 1, Obs: make([]Observation, 99)}},
		Dangling: []PairObservations{{Alloc: 9, Free: 9, Obs: make([]Observation, 5)}},
		PadHints: []PadHint{{Site: 1, Pad: 1 << 30}}})

	restored := encodeDecode(t, hist)
	d := restored.UploadDelta()
	if d.Runs < 0 || d.FailedRuns < 0 || d.CorruptRuns < 0 {
		t.Fatalf("clamped delta went negative: %+v", d)
	}
	// New evidence for site 1 must still be uploadable.
	restored.Absorb(&Snapshot{C: 4, P: 0.5, Runs: 1,
		Overflow: []SiteObservations{{Site: 1, Obs: []Observation{{X: 0.25, Y: false}}}},
		PadHints: []PadHint{{Site: 1, Pad: 16}}})
	d = restored.UploadDelta()
	if d.Runs != 1 || len(d.Overflow) != 1 || len(d.Overflow[0].Obs) != 1 {
		t.Fatalf("evidence suppressed by corrupt watermark: %+v", d)
	}
	if len(d.PadHints) != 1 || d.PadHints[0].Pad != 16 {
		t.Fatalf("grown hint suppressed by corrupt watermark: %+v", d.PadHints)
	}
}

// TestPartialWatermarkPersistRoundTrip: a half-uploaded history
// round-trips with the split intact.
func TestPartialWatermarkPersistRoundTrip(t *testing.T) {
	hist := NewHistory(DefaultConfig())
	hist.Absorb(&Snapshot{C: 4, P: 0.5, Runs: 2, Sites: []site.ID{1},
		Overflow: []SiteObservations{{Site: 1, Obs: []Observation{{X: 0.5, Y: true}}}}})
	d := hist.UploadDelta()
	hist.MarkUploaded(d)
	hist.Absorb(&Snapshot{C: 4, P: 0.5, Runs: 1,
		Overflow: []SiteObservations{{Site: 1, Obs: []Observation{{X: 0.25, Y: false}}}}})

	restored := encodeDecode(t, hist)
	want := hist.UploadDelta()
	got := restored.UploadDelta()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("restored delta %+v != original delta %+v", got, want)
	}
	if got.Runs != 1 || len(got.Overflow) != 1 || len(got.Overflow[0].Obs) != 1 {
		t.Fatalf("restored delta should carry only the unuploaded half: %+v", got)
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

// TestLineageMintedOnceAndPersisted: a history's lineage is minted when
// the first upload delta is cut, stays fixed across later deltas and a
// persist round trip, differs between two fresh histories, and is
// re-minted when Canonicalize resets the watermark.
func TestLineageMintedOnceAndPersisted(t *testing.T) {
	hist := NewHistory(DefaultConfig())
	hist.Absorb(&Snapshot{Runs: 1, Sites: []site.ID{1}})
	if got := encodeDecode(t, hist).uploaded.lineage; got != 0 {
		t.Fatalf("lineage %x minted before any delta was cut", got)
	}
	first := hist.UploadDelta()
	if first.Lineage == 0 {
		t.Fatal("first delta carries no lineage")
	}
	if again := hist.UploadDelta(); again.Lineage != first.Lineage {
		t.Fatalf("re-cut delta lineage %x, want %x", again.Lineage, first.Lineage)
	}
	hist.MarkUploaded(first)
	hist.Absorb(&Snapshot{Runs: 1})
	restored := encodeDecode(t, hist)
	if got := restored.UploadDelta().Lineage; got != first.Lineage {
		t.Fatalf("restored lineage %x, want %x", got, first.Lineage)
	}

	other := NewHistory(DefaultConfig())
	other.Absorb(&Snapshot{Runs: 1, Sites: []site.ID{1}})
	if got := other.UploadDelta().Lineage; got == first.Lineage {
		t.Fatal("two fresh histories share a lineage")
	}

	hist.Canonicalize()
	if got := hist.UploadDelta().Lineage; got == first.Lineage || got == 0 {
		t.Fatalf("lineage %x after the watermark reset, want a fresh one", got)
	}
}
