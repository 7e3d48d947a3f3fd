package cumulative

import (
	"math/rand"
	"reflect"
	"testing"

	"exterminator/internal/site"
)

// randSnapshot builds a random evidence batch: a pool of mostly
// chance-consistent sites, a handful of guilty keys with strong
// correlated evidence, random hints.
func randSnapshot(rng *rand.Rand) *Snapshot {
	s := &Snapshot{C: 4, P: 0.5, Runs: 1 + rng.Intn(5), FailedRuns: rng.Intn(2), CorruptRuns: rng.Intn(2)}
	for i, n := 0, 5+rng.Intn(30); i < n; i++ {
		id := site.ID(0x100 + uint32(rng.Intn(150)))
		s.Sites = append(s.Sites, id)
		var obs []Observation
		for j, m := 0, 1+rng.Intn(4); j < m; j++ {
			x := rng.Float64()
			obs = append(obs, Observation{X: x, Y: rng.Float64() < x})
		}
		s.Overflow = append(s.Overflow, SiteObservations{Site: id, Obs: obs})
		if rng.Intn(4) == 0 {
			s.PadHints = append(s.PadHints, PadHint{Site: id, Pad: uint32(8 + rng.Intn(64))})
		}
	}
	if rng.Intn(2) == 0 {
		g := site.ID(0xBAD0 + uint32(rng.Intn(4)))
		s.Sites = append(s.Sites, g)
		s.Overflow = append(s.Overflow, SiteObservations{Site: g, Obs: []Observation{
			{X: 0.1, Y: true}, {X: 0.2, Y: true},
		}})
		s.PadHints = append(s.PadHints, PadHint{Site: g, Pad: 24})
	}
	for i, n := 0, rng.Intn(8); i < n; i++ {
		p := PairObservations{Alloc: site.ID(0x5000 + uint32(rng.Intn(30))), Free: site.ID(0x6000 + uint32(rng.Intn(5)))}
		for j, m := 0, 1+rng.Intn(3); j < m; j++ {
			x := rng.Float64()
			p.Obs = append(p.Obs, Observation{X: x, Y: rng.Float64() < x})
		}
		s.Dangling = append(s.Dangling, p)
		if rng.Intn(3) == 0 {
			s.DeferralHints = append(s.DeferralHints, DeferralHint{Alloc: p.Alloc, Free: p.Free, Deferral: uint64(1 + rng.Intn(512))})
		}
	}
	if rng.Intn(2) == 0 {
		a, f := site.ID(0xDAD0+uint32(rng.Intn(3))), site.ID(0xDF)
		s.Dangling = append(s.Dangling, PairObservations{Alloc: a, Free: f, Obs: []Observation{
			{X: 0.5, Y: true}, {X: 0.5, Y: true},
		}})
		s.DeferralHints = append(s.DeferralHints, DeferralHint{Alloc: a, Free: f, Deferral: 128})
	}
	return s
}

// TestIncrementalIdentifyMatchesFullRescore interleaves absorbs with
// incremental Identify calls and checks every result against a fresh
// history rebuilt from scratch and fully rescored. This is the
// equivalence contract the incremental path must keep: caching may never
// change a decision, a Bayes factor, or an ordering.
func TestIncrementalIdentifyMatchesFullRescore(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		hist := NewHistory(DefaultConfig())
		for round := 0; round < 25; round++ {
			hist.Absorb(randSnapshot(rng))
			if round%3 != 0 {
				continue // let dirt accumulate across several absorbs
			}
			inc := hist.Identify()

			ref := NewHistory(DefaultConfig())
			ref.Absorb(hist.Snapshot())
			full := ref.IdentifyFull()

			if !reflect.DeepEqual(inc, full) {
				t.Fatalf("seed %d round %d: incremental %+v != full rescore %+v", seed, round, inc, full)
			}
			if hist.DirtyKeys() != 0 {
				t.Fatalf("seed %d round %d: %d dirty keys survived an identify pass", seed, round, hist.DirtyKeys())
			}
			// A second pass with no new evidence does zero rescoring work
			// and returns the same findings.
			again := hist.Identify()
			if !reflect.DeepEqual(inc, again) {
				t.Fatalf("seed %d round %d: repeated identify diverged", seed, round)
			}
		}
	}
}

// TestIdentifyOrderIndependent: two histories fed the same evidence in
// different orders produce identical findings (factors are computed over
// canonically sorted copies).
func TestIdentifyOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	batches := make([]*Snapshot, 12)
	for i := range batches {
		batches[i] = randSnapshot(rng)
	}
	forward := NewHistory(DefaultConfig())
	for _, b := range batches {
		forward.Absorb(b)
	}
	backward := NewHistory(DefaultConfig())
	for i := len(batches) - 1; i >= 0; i-- {
		backward.Absorb(batches[i])
	}
	if !reflect.DeepEqual(forward.Identify(), backward.Identify()) {
		t.Fatal("identify depends on evidence arrival order")
	}
}

// TestIncrementalIdentifySurvivesPersistence: a decoded history rescoring
// incrementally matches the original.
func TestIncrementalIdentifySurvivesPersistence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	hist := NewHistory(DefaultConfig())
	for i := 0; i < 10; i++ {
		hist.Absorb(randSnapshot(rng))
	}
	want := hist.Identify()

	roundTripped := encodeDecode(t, hist)
	if got := roundTripped.Identify(); !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded history identifies differently: %+v vs %+v", got, want)
	}
}

// TestDirtyKeysTracksChanges: dirt accumulates with new evidence for a
// key and clears exactly when that key is rescored.
func TestDirtyKeysTracksChanges(t *testing.T) {
	hist := NewHistory(DefaultConfig())
	if hist.DirtyKeys() != 0 {
		t.Fatal("fresh history is dirty")
	}
	hist.Absorb(&Snapshot{C: 4, P: 0.5, Sites: []site.ID{1, 2},
		Overflow: []SiteObservations{
			{Site: 1, Obs: []Observation{{X: 0.5, Y: true}}},
			{Site: 2, Obs: []Observation{{X: 0.5, Y: false}}},
		}})
	if got := hist.DirtyKeys(); got != 2 {
		t.Fatalf("DirtyKeys = %d, want 2", got)
	}
	hist.Identify()
	if got := hist.DirtyKeys(); got != 0 {
		t.Fatalf("DirtyKeys after identify = %d, want 0", got)
	}
	hist.Absorb(&Snapshot{C: 4, P: 0.5,
		Overflow: []SiteObservations{{Site: 1, Obs: []Observation{{X: 0.25, Y: false}}}}})
	if got := hist.DirtyKeys(); got != 1 {
		t.Fatalf("DirtyKeys after one-key absorb = %d, want 1", got)
	}
}

// TestRescoredKeepsConsumersCurrent: a consumer that folds each pass's
// Rescored candidates into its own map holds, key for key, the complete
// candidate set a fresh history rescoring everything hands out — the
// contract the triage engine's incremental passes rest on.
func TestRescoredKeepsConsumersCurrent(t *testing.T) {
	fold := func(ovf map[site.ID]Candidate, dan map[site.Pair]Candidate, hist *History) {
		o, d := hist.Rescored()
		for _, c := range o {
			ovf[c.Site] = c
		}
		for _, c := range d {
			dan[c.Pair] = c
		}
	}
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		hist := NewHistory(DefaultConfig())
		ovf, dan := map[site.ID]Candidate{}, map[site.Pair]Candidate{}
		for round := 0; round < 25; round++ {
			hist.Absorb(randSnapshot(rng))
			if round%3 != 0 {
				continue
			}
			hist.Identify()
			fold(ovf, dan, hist)
			// Rescored hands the candidates over; the history keeps none.
			if o, d := hist.Rescored(); len(o)+len(d) != 0 {
				t.Fatalf("seed %d round %d: a second Rescored handed out %d candidates", seed, round, len(o)+len(d))
			}

			ref := NewHistory(DefaultConfig())
			ref.Absorb(hist.Snapshot())
			ref.IdentifyFull()
			wantOvf, wantDan := map[site.ID]Candidate{}, map[site.Pair]Candidate{}
			fold(wantOvf, wantDan, ref)
			if !reflect.DeepEqual(ovf, wantOvf) || !reflect.DeepEqual(dan, wantDan) {
				t.Fatalf("seed %d round %d: folded candidates diverge from a full rescore", seed, round)
			}
			// A pass with no new evidence rescores, and hands out, nothing.
			hist.Identify()
			if o, d := hist.Rescored(); len(o)+len(d) != 0 {
				t.Fatalf("seed %d round %d: a clean pass handed out %d candidates", seed, round, len(o)+len(d))
			}
		}
	}
}

// guiltyKey's four hits at X = 0.25 give it a Bayes factor of 68.2:
// above the threshold cN−1 = 4N−1 for N ≤ 17, below it from N = 18.
const guiltyKey = site.ID(0xBAD)

// thresholdHistory holds guiltyKey's evidence, with a pad hint when pad
// is set, among n sites in all.
func thresholdHistory(n int, pad bool) *History {
	s := &Snapshot{C: 4, P: 0.5, Sites: []site.ID{guiltyKey}}
	s.Overflow = []SiteObservations{{Site: guiltyKey, Obs: []Observation{
		{X: 0.25, Y: true}, {X: 0.25, Y: true}, {X: 0.25, Y: true}, {X: 0.25, Y: true},
	}}}
	for i := 1; i < n; i++ {
		s.Sites = append(s.Sites, site.ID(0x100+i))
	}
	if pad {
		s.PadHints = []PadHint{{Site: guiltyKey, Pad: 16}}
	}
	hist := NewHistory(DefaultConfig())
	hist.Absorb(s)
	return hist
}

// identifyClean runs a pass over a history whose evidence did not change
// since its last pass, checks the findings against a full rescore of a
// copy, and reports whether guiltyKey was found.
func identifyClean(t *testing.T, hist *History) bool {
	t.Helper()
	if d := hist.DirtyKeys(); d != 0 {
		t.Fatalf("%d keys changed since the last pass; want none", d)
	}
	got := hist.Identify()
	ref := NewHistory(DefaultConfig())
	ref.Absorb(hist.Snapshot())
	if want := ref.IdentifyFull(); !reflect.DeepEqual(got, want) {
		t.Fatalf("incremental %+v != full rescore %+v", got, want)
	}
	return len(got.Overflows) == 1 && got.Overflows[0].Site == guiltyKey
}

// TestIdentifyDropsCleanKeyOnceNPassesIt: a key above the threshold
// stays under test while it is clean, so it leaves the findings when new
// sites raise the threshold past its factor.
func TestIdentifyDropsCleanKeyOnceNPassesIt(t *testing.T) {
	hist := thresholdHistory(17, true)
	if f := hist.Identify(); len(f.Overflows) != 1 {
		t.Fatalf("N = 17: findings %+v, want guiltyKey", f)
	}
	hist.Absorb(&Snapshot{Sites: []site.ID{0x200}})
	if identifyClean(t, hist) {
		t.Fatal("N = 18: guiltyKey still reported above 4N−1 = 71")
	}
}

// TestIdentifyReportsLatePadHintOnCleanKey: a key above the threshold
// without a pad estimate is no finding, and becomes one on the pass
// after its hint arrives, though no observation of it did.
func TestIdentifyReportsLatePadHintOnCleanKey(t *testing.T) {
	hist := thresholdHistory(1, false)
	if f := hist.Identify(); !f.Empty() {
		t.Fatalf("no pad hint yet: findings %+v", f)
	}
	hist.Absorb(&Snapshot{PadHints: []PadHint{{Site: guiltyKey, Pad: 16}}})
	if !identifyClean(t, hist) {
		t.Fatal("the pass after the pad hint arrived did not report guiltyKey")
	}
}

// TestIdentifyRetestsCleanKeysWhenNFalls: an extraction lowers N and the
// threshold with it, so a clean key below the old threshold but above the
// new one is found.
func TestIdentifyRetestsCleanKeysWhenNFalls(t *testing.T) {
	hist := thresholdHistory(18, true)
	if f := hist.Identify(); !f.Empty() {
		t.Fatalf("N = 18: findings %+v, want none", f)
	}
	hist.Extract([]site.ID{0x101})
	if !identifyClean(t, hist) {
		t.Fatal("N = 17: guiltyKey not reported above 4N−1 = 67")
	}
}
