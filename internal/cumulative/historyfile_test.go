package cumulative_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"exterminator/internal/cumulative"
	"exterminator/internal/fleet/codec"
	"exterminator/internal/site"
)

// A history file is one codec.FrameHistory frame: the history split at
// its upload watermark. These tests run histories through it.

func save(hist *cumulative.History) []byte {
	return codec.EncodeHistory(&codec.Buffer{}, hist)
}

func encodeDecode(t *testing.T, hist *cumulative.History) *cumulative.History {
	t.Helper()
	out, err := codec.DecodeHistory(save(hist))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// lineage reads a history's lineage without cutting a delta, which would
// mint one.
func lineage(hist *cumulative.History) uint64 {
	uploaded, _ := hist.Split()
	return uploaded.Lineage
}

func populatedHistory(t *testing.T) *cumulative.History {
	t.Helper()
	hist := cumulative.NewHistory(cumulative.DefaultConfig())
	for runs := 1; runs <= 10; runs++ {
		h := cumulative.OverflowRun(uint64(runs)*2654435761, 0xBAD, 8)
		hist.RecordRun(h, runs%2 == 0)
	}
	if hist.Runs != 10 {
		t.Fatal("setup failed")
	}
	return hist
}

func TestHistoryRoundTrip(t *testing.T) {
	hist := populatedHistory(t)
	got := encodeDecode(t, hist)
	if !got.Equal(hist) {
		t.Fatal("round trip mismatch")
	}
	// The restored history classifies identically.
	a, b := hist.Identify(), got.Identify()
	if len(a.Overflows) != len(b.Overflows) || len(a.Danglings) != len(b.Danglings) {
		t.Fatalf("classification differs after restore: %+v vs %+v", a, b)
	}
}

func TestHistoryResumeAcrossRestart(t *testing.T) {
	// The §3.4 deployment story: runs accumulate across process restarts
	// via the persisted summaries. Splitting one experiment into two
	// "processes" must reach the same conclusion as one continuous run.
	continuous := cumulative.NewHistory(cumulative.DefaultConfig())
	for runs := 1; runs <= 20; runs++ {
		h := cumulative.OverflowRun(uint64(runs)*40503, 0xBAD, 8)
		continuous.RecordRun(h, false)
	}

	first := cumulative.NewHistory(cumulative.DefaultConfig())
	for runs := 1; runs <= 10; runs++ {
		h := cumulative.OverflowRun(uint64(runs)*40503, 0xBAD, 8)
		first.RecordRun(h, false)
	}
	resumed := encodeDecode(t, first)
	for runs := 11; runs <= 20; runs++ {
		h := cumulative.OverflowRun(uint64(runs)*40503, 0xBAD, 8)
		resumed.RecordRun(h, false)
	}
	if !resumed.Equal(continuous) {
		t.Fatal("resumed history diverges from continuous run")
	}
}

func TestHistorySizeIsKilobytes(t *testing.T) {
	// "The retained data is on the order of a few kilobytes per
	// execution, compared to tens or hundreds of megabytes for each heap
	// image" (§3.4).
	hist := populatedHistory(t)
	file := save(hist)
	perRun := len(file) / hist.Runs
	if perRun > 64*1024 {
		t.Fatalf("summary costs %d bytes/run — not 'a few kilobytes'", perRun)
	}
	t.Logf("history: %d bytes total, %d bytes/run", len(file), perRun)
}

// TestDecodeHistoryRejectsGarbage: bytes that are not one whole history
// frame do not decode: garbage, a truncated frame, a frame with a byte
// after it, and a frame of another type.
func TestDecodeHistoryRejectsGarbage(t *testing.T) {
	for _, in := range [][]byte{nil, []byte("bogus"), bytes.Repeat([]byte{0xFF}, 64)} {
		if _, err := codec.DecodeHistory(in); err == nil {
			t.Fatalf("decoded %q", in)
		}
	}
	file := save(populatedHistory(t))
	if _, err := codec.DecodeHistory(file[:len(file)/3]); err == nil {
		t.Fatal("decoded truncated history")
	}
	if _, err := codec.DecodeHistory(append(file, 0)); err == nil {
		t.Fatal("decoded a history followed by a byte")
	}
	state := codec.EncodeState(&codec.Buffer{}, &codec.State{Evidence: populatedHistory(t).Snapshot()})
	if _, err := codec.DecodeHistory(state); err == nil {
		t.Fatal("decoded a state frame as a history")
	}
}

func TestEmptyHistoryRoundTrip(t *testing.T) {
	cfg := cumulative.Config{C: 3, P: 0.25}
	hist := cumulative.NewHistory(cfg)
	got := encodeDecode(t, hist)
	if !got.Equal(hist) || got.Config() != cfg {
		t.Fatal("empty round trip failed")
	}
}

// TestDecodeHistoryRejectsRetiredVersions: a history file has one format,
// the history frame. A file in the retired XTCH format (versions 1 to 3)
// is rejected, never read with a guessed layout.
func TestDecodeHistoryRejectsRetiredVersions(t *testing.T) {
	for _, v := range []uint32{1, 2, 3} {
		var xtch bytes.Buffer
		u32 := func(v uint32) { binary.Write(&xtch, binary.LittleEndian, v) }
		u32(0x48435458) // "XTCH"
		u32(v)
		binary.Write(&xtch, binary.LittleEndian, math.Float64bits(4))   // c
		binary.Write(&xtch, binary.LittleEndian, math.Float64bits(0.5)) // p
		for i := 0; i < 8; i++ {
			u32(0) // run counters, then empty sites, overflow, dangling, pads, deferrals
		}
		_, err := codec.DecodeHistory(xtch.Bytes())
		if err == nil || !strings.Contains(err.Error(), `"XTCH"`) {
			t.Fatalf("XTCH version %d: error %v, want a refusal of its magic", v, err)
		}
	}
}

// historyFile returns a one-run history file holding one overflow hit at
// x. A history stores only X in [0, 1], so the file is encoded with a
// marker X whose bytes are then replaced.
func historyFile(tb testing.TB, x float64) []byte {
	tb.Helper()
	const marker = 0.123456789
	hist := cumulative.NewHistory(cumulative.DefaultConfig())
	hist.Absorb(&cumulative.Snapshot{Runs: 1, CorruptRuns: 1, Sites: []site.ID{7},
		Overflow: []cumulative.SiteObservations{{Site: 7, Obs: []cumulative.Observation{{X: marker, Y: true}}}}})
	b := save(hist)
	i := bytes.Index(b, binary.LittleEndian.AppendUint64(nil, math.Float64bits(marker)))
	if i < 0 {
		tb.Fatal("marker X not found in the encoded history")
	}
	binary.LittleEndian.PutUint64(b[i:], math.Float64bits(x))
	return b
}

// TestDecodeHistoryRefusesNonProbabilityX: a history file whose X is no
// probability does not decode. A history stores X without its sign bit,
// so a hit at X = −0.5 would otherwise read back as a hit at 0.5. A −0
// decodes, and reads back as +0.
func TestDecodeHistoryRefusesNonProbabilityX(t *testing.T) {
	for _, x := range []float64{math.NaN(), -0.5, 2, math.Inf(1)} {
		_, err := codec.DecodeHistory(historyFile(t, x))
		if err == nil || !strings.Contains(err.Error(), "not a probability") {
			t.Errorf("X = %v: error %v, want a refusal", x, err)
		}
	}
	hist, err := codec.DecodeHistory(historyFile(t, math.Copysign(0, -1)))
	if err != nil {
		t.Fatalf("X = −0: %v", err)
	}
	if got := hist.ObservationsFor(7); len(got) != 1 || math.Float64bits(got[0].X) != 0 || !got[0].Y {
		t.Errorf("X = −0 reads back as %v, want one hit at +0", got)
	}
}

// fuzzHistory builds a small history carrying every section of the file:
// edge observations on both key kinds, both hints and an upload
// watermark that covers part of it.
func fuzzHistory() *cumulative.History {
	hist := cumulative.NewHistory(cumulative.DefaultConfig())
	hist.Absorb(&cumulative.Snapshot{
		Runs: 3, FailedRuns: 1, CorruptRuns: 2,
		Sites:         []site.ID{1, 2, 3},
		Overflow:      []cumulative.SiteObservations{{Site: 1, Obs: []cumulative.Observation{{X: 0, Y: true}, {X: 0.25}, {X: 1, Y: true}}}},
		Dangling:      []cumulative.PairObservations{{Alloc: 2, Free: 3, Obs: []cumulative.Observation{{X: 0.5, Y: true}}}},
		PadHints:      []cumulative.PadHint{{Site: 1, Pad: 16}},
		DeferralHints: []cumulative.DeferralHint{{Alloc: 2, Free: 3, Deferral: 64}},
	})
	hist.MarkUploaded(hist.UploadDelta())
	hist.Absorb(&cumulative.Snapshot{Runs: 1, Overflow: []cumulative.SiteObservations{{Site: 1, Obs: []cumulative.Observation{{X: 0.75}}}}})
	return hist
}

// FuzzDecodeHistory: arbitrary bytes either fail to decode or decode to a
// history whose every X lies in [0, 1], which encodes to bytes that
// decode to an Equal history and encode again to the same bytes. No
// decode may panic or allocate more than a fixed amount plus a small
// multiple of its input, whatever counts the input claims.
func FuzzDecodeHistory(f *testing.F) {
	valid := save(fuzzHistory())
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	for _, x := range []float64{math.NaN(), -0.5, 2} {
		f.Add(historyFile(f, x))
	}
	// A forged observation count (the group header before the one X) on
	// a one-key file, with the frame length fixed to match.
	one := historyFile(f, 0.375)
	at := bytes.Index(one, binary.LittleEndian.AppendUint64(nil, math.Float64bits(0.375))) - 1
	forged := append(binary.AppendUvarint(append([]byte(nil), one[:at]...), 1<<22), one[at+1:]...)
	binary.LittleEndian.PutUint32(forged[6:10], uint32(len(forged)-10))
	f.Add(forged)

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		hist, err := codec.DecodeHistory(data)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20+64*uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(data), n)
		}
		if err != nil {
			return
		}
		s := hist.Snapshot()
		for _, so := range s.Overflow {
			assertProbabilities(t, so.Obs)
		}
		for _, po := range s.Dangling {
			assertProbabilities(t, po.Obs)
		}
		first := save(hist)
		again, err := codec.DecodeHistory(first)
		if err != nil {
			t.Fatalf("an accepted history's encoding does not decode: %v", err)
		}
		if !again.Equal(hist) {
			t.Fatal("round trip changed the history")
		}
		if !bytes.Equal(first, save(again)) {
			t.Fatal("second encoding differs from the first")
		}
	})
}

func assertProbabilities(t *testing.T, obs []cumulative.Observation) {
	t.Helper()
	for _, o := range obs {
		if !(o.X >= 0 && o.X <= 1) {
			t.Fatalf("accepted observation X %v outside [0, 1]", o.X)
		}
	}
}

// TestWatermarkSurvivesPersistence is the -resume-history + -fleet
// footgun test: save a history whose evidence was already uploaded,
// decode it, and verify the next upload delta is empty — not the whole
// history again.
func TestWatermarkSurvivesPersistence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	hist := cumulative.NewHistory(cumulative.DefaultConfig())
	for i := 0; i < 6; i++ {
		hist.Absorb(cumulative.RandSnapshot(rng))
	}
	d := hist.UploadDelta()
	hist.MarkUploaded(d)

	restored := encodeDecode(t, hist)
	if got := restored.UploadDelta(); !cumulative.DeltaEmpty(got) {
		t.Fatalf("restored history wants to re-upload: %d sites, %d runs", len(got.Sites), got.Runs)
	}

	// More evidence after the restart uploads exactly once.
	extra := cumulative.RandSnapshot(rng)
	restored.Absorb(extra)
	got := restored.UploadDelta()
	if got.Runs != extra.Runs {
		t.Fatalf("post-restore delta runs = %d, want %d", got.Runs, extra.Runs)
	}
	restored.MarkUploaded(got)
	if d := restored.UploadDelta(); !cumulative.DeltaEmpty(d) {
		t.Fatal("delta not empty after post-restore upload")
	}
}

// TestWatermarkClampOnSave: an in-memory watermark claiming more was
// uploaded than the history contains (a MarkUploaded outside its
// contract) is bounded by the evidence when the history is saved: the
// restored history's next delta re-uploads at worst, but never goes
// negative and never suppresses evidence forever.
func TestWatermarkClampOnSave(t *testing.T) {
	hist := cumulative.NewHistory(cumulative.DefaultConfig())
	hist.Absorb(&cumulative.Snapshot{C: 4, P: 0.5, Runs: 3, Sites: []site.ID{1},
		Overflow: []cumulative.SiteObservations{{Site: 1, Obs: []cumulative.Observation{{X: 0.5, Y: true}}}},
		PadHints: []cumulative.PadHint{{Site: 1, Pad: 8}}})
	// Violate the MarkUploaded contract to simulate a corrupt watermark:
	// counts far beyond what the history holds.
	hist.MarkUploaded(&cumulative.Snapshot{Runs: 1000, FailedRuns: 50, CorruptRuns: 50,
		Overflow: []cumulative.SiteObservations{{Site: 1, Obs: make([]cumulative.Observation, 99)}},
		Dangling: []cumulative.PairObservations{{Alloc: 9, Free: 9, Obs: make([]cumulative.Observation, 5)}},
		PadHints: []cumulative.PadHint{{Site: 1, Pad: 1 << 30}}})

	restored := encodeDecode(t, hist)
	if !restored.Equal(hist) {
		t.Fatal("saving a watermark ahead of the evidence changed the evidence")
	}
	d := restored.UploadDelta()
	if d.Runs < 0 || d.FailedRuns < 0 || d.CorruptRuns < 0 {
		t.Fatalf("clamped delta went negative: %+v", d)
	}
	// New evidence for site 1 must still be uploadable.
	restored.Absorb(&cumulative.Snapshot{C: 4, P: 0.5, Runs: 1,
		Overflow: []cumulative.SiteObservations{{Site: 1, Obs: []cumulative.Observation{{X: 0.25, Y: false}}}},
		PadHints: []cumulative.PadHint{{Site: 1, Pad: 16}}})
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
	hist := cumulative.NewHistory(cumulative.DefaultConfig())
	hist.Absorb(&cumulative.Snapshot{C: 4, P: 0.5, Runs: 2, Sites: []site.ID{1},
		Overflow: []cumulative.SiteObservations{{Site: 1, Obs: []cumulative.Observation{{X: 0.5, Y: true}}}}})
	d := hist.UploadDelta()
	hist.MarkUploaded(d)
	hist.Absorb(&cumulative.Snapshot{C: 4, P: 0.5, Runs: 1,
		Overflow: []cumulative.SiteObservations{{Site: 1, Obs: []cumulative.Observation{{X: 0.25, Y: false}}}}})

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

// TestLineageMintedOnceAndPersisted: a history's lineage is minted when
// the first upload delta is cut, stays fixed across later deltas and a
// persist round trip, differs between two fresh histories, and is
// re-minted when Canonicalize resets the watermark.
func TestLineageMintedOnceAndPersisted(t *testing.T) {
	hist := cumulative.NewHistory(cumulative.DefaultConfig())
	hist.Absorb(&cumulative.Snapshot{Runs: 1, Sites: []site.ID{1}})
	if got := lineage(encodeDecode(t, hist)); got != 0 {
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
	hist.Absorb(&cumulative.Snapshot{Runs: 1})
	restored := encodeDecode(t, hist)
	if got := restored.UploadDelta().Lineage; got != first.Lineage {
		t.Fatalf("restored lineage %x, want %x", got, first.Lineage)
	}

	other := cumulative.NewHistory(cumulative.DefaultConfig())
	other.Absorb(&cumulative.Snapshot{Runs: 1, Sites: []site.ID{1}})
	if got := other.UploadDelta().Lineage; got == first.Lineage {
		t.Fatal("two fresh histories share a lineage")
	}

	hist.Canonicalize()
	if got := hist.UploadDelta().Lineage; got == first.Lineage || got == 0 {
		t.Fatalf("lineage %x after the watermark reset, want a fresh one", got)
	}
}

// TestIncrementalIdentifySurvivesPersistence: a decoded history rescoring
// incrementally matches the original.
func TestIncrementalIdentifySurvivesPersistence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	hist := cumulative.NewHistory(cumulative.DefaultConfig())
	for i := 0; i < 10; i++ {
		hist.Absorb(cumulative.RandSnapshot(rng))
	}
	want := hist.Identify()

	roundTripped := encodeDecode(t, hist)
	if got := roundTripped.Identify(); !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded history identifies differently: %+v vs %+v", got, want)
	}
}
