package codec

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"exterminator/internal/cumulative"
	"exterminator/internal/site"
)

// randHistorySnapshot draws a batch of evidence over a few keys of each
// kind, with X values that include the edges, and hints.
func randHistorySnapshot(rng *rand.Rand) *cumulative.Snapshot {
	xs := []float64{0, math.SmallestNonzeroFloat64, 0.5, 1}
	obs := func() []cumulative.Observation {
		out := make([]cumulative.Observation, 1+rng.Intn(4))
		for i := range out {
			x := rng.Float64()
			if rng.Intn(4) == 0 {
				x = xs[rng.Intn(len(xs))]
			}
			out[i] = cumulative.Observation{X: x, Y: rng.Intn(2) == 0}
		}
		return out
	}
	s := &cumulative.Snapshot{Runs: 1 + rng.Intn(3), FailedRuns: rng.Intn(2), CorruptRuns: rng.Intn(2)}
	for i, n := 0, rng.Intn(6); i < n; i++ {
		id := site.ID(0x100 + rng.Intn(20))
		s.Sites = append(s.Sites, id)
		s.Overflow = append(s.Overflow, cumulative.SiteObservations{Site: id, Obs: obs()})
		if rng.Intn(3) == 0 {
			s.PadHints = append(s.PadHints, cumulative.PadHint{Site: id, Pad: uint32(1 + rng.Intn(64))})
		}
	}
	for i, n := 0, rng.Intn(4); i < n; i++ {
		alloc, free := site.ID(0x500+rng.Intn(8)), site.ID(0x600+rng.Intn(3))
		s.Dangling = append(s.Dangling, cumulative.PairObservations{Alloc: alloc, Free: free, Obs: obs()})
		if rng.Intn(3) == 0 {
			s.DeferralHints = append(s.DeferralHints, cumulative.DeferralHint{Alloc: alloc, Free: free, Deferral: uint64(1 + rng.Intn(1000))})
		}
	}
	return s
}

// TestHistoryFrameRoundTrip: seeded random histories in each watermark
// state — fresh, a lineage minted but nothing marked, fully uploaded,
// and half uploaded — restore Equal from their frame, re-encode byte for
// byte, and keep their watermark: the same UploadedCounts, the same
// lineage and the same next UploadDelta. A fresh history restores fresh,
// so it mints a lineage of its own at its first cut, as any fresh
// history does; its delta matches apart from the lineage.
func TestHistoryFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	states := []string{"fresh", "minted", "uploaded", "half uploaded"}
	for i := 0; i < 300; i++ {
		state := states[i%len(states)]
		hist := cumulative.NewHistory(cumulative.DefaultConfig())
		for j, n := 0, 1+rng.Intn(4); j < n; j++ {
			hist.Absorb(randHistorySnapshot(rng))
		}
		switch state {
		case "minted":
			hist.UploadDelta()
		case "uploaded", "half uploaded":
			hist.MarkUploaded(hist.UploadDelta())
		}
		if state == "half uploaded" {
			hist.Absorb(randHistorySnapshot(rng))
		}

		frame := append([]byte(nil), EncodeHistory(&Buffer{}, hist)...)
		got, err := DecodeHistory(frame)
		if err != nil {
			t.Fatalf("%d (%s): %v", i, state, err)
		}
		if !got.Equal(hist) {
			t.Fatalf("%d (%s): restored history differs", i, state)
		}
		if again := EncodeHistory(&Buffer{}, got); !bytes.Equal(again, frame) {
			t.Fatalf("%d (%s): re-encoding differs from the frame", i, state)
		}
		wr, wo := hist.UploadedCounts()
		if gr, gor := got.UploadedCounts(); gr != wr || gor != wo {
			t.Fatalf("%d (%s): UploadedCounts (%d, %d), want (%d, %d)", i, state, gr, gor, wr, wo)
		}
		wantUp, _ := hist.Split()
		gotUp, _ := got.Split()
		if gotUp.Lineage != wantUp.Lineage || (state != "fresh") != (wantUp.Lineage != 0) {
			t.Fatalf("%d (%s): lineage %x, want %x", i, state, gotUp.Lineage, wantUp.Lineage)
		}
		want, next := hist.UploadDelta(), got.UploadDelta()
		if state == "fresh" {
			next.Lineage = want.Lineage
		}
		if !reflect.DeepEqual(next, want) {
			t.Fatalf("%d (%s): next delta %+v, want %+v", i, state, next, want)
		}
	}
}

// TestHistoryFrameKeepsEdgeObservations: a miss and a hit at each edge X
// (±0, the smallest subnormal, 0.5, 1), on an overflow site and on a
// dangling pair, come back from the history frame as they were stored:
// the restored history is Equal, and Equal compares the stored words
// bitwise, so the factors it scores are bit-identical. −0 reads back as
// +0, and a hit at X = 0 stays a hit.
func TestHistoryFrameKeepsEdgeObservations(t *testing.T) {
	var in, want []cumulative.Observation
	for _, x := range []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 0.5, 1} {
		for _, y := range []bool{false, true} {
			in = append(in, cumulative.Observation{X: x, Y: y})
			want = append(want, cumulative.Observation{X: math.Abs(x), Y: y})
		}
	}
	hist := cumulative.NewHistory(cumulative.DefaultConfig())
	hist.Absorb(&cumulative.Snapshot{
		Sites:    []site.ID{1, 2},
		Overflow: []cumulative.SiteObservations{{Site: 1, Obs: in}},
		Dangling: []cumulative.PairObservations{{Alloc: 1, Free: 2, Obs: in}},
	})
	got, err := DecodeHistory(EncodeHistory(&Buffer{}, hist))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(hist) {
		t.Fatal("restored history differs from the one saved")
	}
	obs := got.ObservationsFor(1)
	if len(obs) != len(want) {
		t.Fatalf("%d observations, want %d", len(obs), len(want))
	}
	for i := range want {
		if math.Float64bits(obs[i].X) != math.Float64bits(want[i].X) || obs[i].Y != want[i].Y {
			t.Errorf("observation %d: %v, want %v", i, obs[i], want[i])
		}
	}
	factors := func(h *cumulative.History) (uint64, uint64) {
		h.Identify()
		o, d := h.Rescored()
		return math.Float64bits(o[0].Bayes), math.Float64bits(d[0].Bayes)
	}
	wo, wd := factors(hist)
	if o, d := factors(got); o != wo || d != wd {
		t.Errorf("factor bits %#x and %#x, want %#x and %#x", o, d, wo, wd)
	}
}

// historyFrame encodes a history frame from its two halves as given,
// with none of History's checks, so a test can write X values a history
// would never hold.
func historyFrame(uploaded, pending *cumulative.Snapshot) []byte {
	buf := &Buffer{}
	start := buf.beginFrame(FrameHistory)
	buf.u64(uploaded.Lineage)
	appendSnapshot(buf, uploaded)
	appendSnapshot(buf, pending)
	return buf.endFrame(start)
}

// forgedHistoryFrame is a one-key history frame whose overflow group
// claims 2^22 observations and holds one.
func forgedHistoryFrame() []byte {
	buf := &Buffer{}
	start := buf.beginFrame(FrameHistory)
	buf.u64(0)
	appendSnapshot(buf, &cumulative.Snapshot{C: 4, P: 0.5})
	buf.f64(4)
	buf.f64(0.5)
	buf.uvarint(1) // runs
	buf.uvarint(0) // failed runs
	buf.uvarint(1) // corrupt runs
	buf.uvarint(0) // sites
	buf.uvarint(1) // overflow groups
	buf.uvarint(1) // overflow observations in all
	buf.svarint(7)
	buf.uvarint(1 << 22) // the forged count
	buf.f64(0.375)
	buf.u8(1)
	for range 4 {
		buf.uvarint(0) // dangling groups and total, pad and deferral hints
	}
	return buf.endFrame(start)
}

// TestHistoryDecodeRefuses: the history decoder applies every check the
// other frames get. X that is no probability (NaN, −0.5, 2, +Inf) in
// either half, a truncated frame, a forged count, a trailing byte and a
// frame of another type are refused.
func TestHistoryDecodeRefuses(t *testing.T) {
	empty := &cumulative.Snapshot{C: 4, P: 0.5}
	valid := historyFrame(empty, xSnapshot(0.25, false))
	if _, err := DecodeHistory(valid); err != nil {
		t.Fatalf("valid frame refused: %v", err)
	}
	cases := map[string][]byte{
		"truncated":    valid[:len(valid)-1],
		"forged count": forgedHistoryFrame(),
		"trailing":     append(append([]byte(nil), valid...), 0),
		"state frame":  EncodeState(&Buffer{}, &State{Evidence: xSnapshot(0.25, false)}),
	}
	for _, x := range []float64{math.NaN(), -0.5, 2, math.Inf(1)} {
		for _, dangling := range []bool{false, true} {
			bad := xSnapshot(x, dangling)
			cases[fmt.Sprintf("pending X %v, dangling %v", x, dangling)] = historyFrame(empty, bad)
			cases[fmt.Sprintf("uploaded X %v, dangling %v", x, dangling)] = historyFrame(bad, empty)
		}
	}
	for name, data := range cases {
		if _, err := DecodeHistory(data); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}

// TestDecodeHistoryAllocsPerKey pins what restoring a history costs. The
// frame decodes into one exact-size array per column and one backing
// observation array per section, and the history stores each key's list
// in one allocation as it absorbs it: a history file of 1,000 keys with
// two observations each decodes in at most one allocation per key plus
// a constant, the history's maps growing.
func TestDecodeHistoryAllocsPerKey(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const keys = 1000
	s := &cumulative.Snapshot{Runs: keys}
	for i := 0; i < keys; i++ {
		id := site.ID(0x1000 + i)
		s.Sites = append(s.Sites, id)
		s.Overflow = append(s.Overflow, cumulative.SiteObservations{
			Site: id, Obs: []cumulative.Observation{{X: 0.25, Y: i%3 == 0}, {X: 0.5}},
		})
	}
	hist := cumulative.NewHistory(cumulative.DefaultConfig())
	hist.Absorb(s)
	frame := EncodeHistory(&Buffer{}, hist)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := DecodeHistory(frame); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d-byte frame of %d keys: %v allocations to decode", len(frame), keys, allocs)
	if allocs > keys+200 {
		t.Errorf("decoding %d keys allocates %v times, want at most %d", keys, allocs, keys+200)
	}
}
