package cumulative

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"strings"
	"testing"

	"exterminator/internal/site"
)

// fuzzHistory builds a small history carrying every section of the file:
// edge observations on both key kinds, both hints and an upload
// watermark that covers part of it.
func fuzzHistory() *History {
	hist := NewHistory(DefaultConfig())
	hist.Absorb(&Snapshot{
		Runs: 3, FailedRuns: 1, CorruptRuns: 2,
		Sites:         []site.ID{1, 2, 3},
		Overflow:      []SiteObservations{{Site: 1, Obs: []Observation{{X: 0, Y: true}, {X: 0.25}, {X: 1, Y: true}}}},
		Dangling:      []PairObservations{{Alloc: 2, Free: 3, Obs: []Observation{{X: 0.5, Y: true}}}},
		PadHints:      []PadHint{{Site: 1, Pad: 16}},
		DeferralHints: []DeferralHint{{Alloc: 2, Free: 3, Deferral: 64}},
	})
	hist.MarkUploaded(hist.UploadDelta())
	hist.Absorb(&Snapshot{Runs: 1, Overflow: []SiteObservations{{Site: 1, Obs: []Observation{{X: 0.75}}}}})
	return hist
}

// historyFile returns a one-run history file holding one overflow hit at
// x, laid out as Encode writes it. A history stores only X in [0, 1], so
// the file is encoded with a marker X whose bytes are then replaced.
func historyFile(tb testing.TB, x float64) []byte {
	tb.Helper()
	const marker = 0.123456789
	hist := NewHistory(DefaultConfig())
	hist.Absorb(&Snapshot{Runs: 1, CorruptRuns: 1, Sites: []site.ID{7},
		Overflow: []SiteObservations{{Site: 7, Obs: []Observation{{X: marker, Y: true}}}}})
	var buf bytes.Buffer
	if err := hist.Encode(&buf); err != nil {
		tb.Fatal(err)
	}
	b := buf.Bytes()
	i := bytes.Index(b, binary.LittleEndian.AppendUint64(nil, math.Float64bits(marker)))
	if i < 0 {
		tb.Fatal("marker X not found in the encoded history")
	}
	binary.LittleEndian.PutUint64(b[i:], math.Float64bits(x))
	return b
}

// TestDecodeHistoryRefusesNonProbabilityX: a history file whose X is no
// probability does not decode. A history stores X without its sign bit,
// so a hit at X = −0.5 would otherwise read back as a hit at 0.5.
func TestDecodeHistoryRefusesNonProbabilityX(t *testing.T) {
	for _, x := range []float64{math.NaN(), -0.5, 2, math.Inf(1)} {
		_, err := DecodeHistory(bytes.NewReader(historyFile(t, x)))
		if err == nil || !strings.Contains(err.Error(), "not a probability") {
			t.Errorf("X = %v: error %v, want a refusal", x, err)
		}
	}
	if _, err := DecodeHistory(bytes.NewReader(historyFile(t, math.Copysign(0, -1)))); err != nil {
		t.Errorf("X = −0: %v", err)
	}
}

// FuzzDecodeHistory: arbitrary bytes either fail to decode or decode to a
// history whose every X lies in [0, 1], which encodes to bytes that
// decode to an Equal history and encode again to the same bytes. No
// decode may panic or allocate more than a fixed amount plus a small
// multiple of its input, whatever counts the input claims.
func FuzzDecodeHistory(f *testing.F) {
	var valid bytes.Buffer
	if err := fuzzHistory().Encode(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()/2])
	f.Add([]byte{})
	for _, x := range []float64{math.NaN(), -0.5, 2} {
		f.Add(historyFile(f, x))
	}
	// A forged observation count (the word before the one X) on a
	// one-key file.
	forged := historyFile(f, 0.375)
	at := bytes.Index(forged, binary.LittleEndian.AppendUint64(nil, math.Float64bits(0.375))) - 4
	binary.LittleEndian.PutUint32(forged[at:], 1<<22)
	f.Add(forged)

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		hist, err := DecodeHistory(bytes.NewReader(data))
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
		var first, second bytes.Buffer
		if err := hist.Encode(&first); err != nil {
			t.Fatal(err)
		}
		again, err := DecodeHistory(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("an accepted history's encoding does not decode: %v", err)
		}
		if !again.Equal(hist) {
			t.Fatal("round trip changed the history")
		}
		if err := again.Encode(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("second encoding differs from the first")
		}
	})
}

func assertProbabilities(t *testing.T, obs []Observation) {
	t.Helper()
	for _, o := range obs {
		if !(o.X >= 0 && o.X <= 1) {
			t.Fatalf("accepted observation X %v outside [0, 1]", o.X)
		}
	}
}
