package cumulative

import (
	"math"
	"math/rand"
	"testing"

	"exterminator/internal/site"
)

// factorEdges are the X values whose bits a stored observation must keep
// apart: both zeros, the smallest subnormal, a half and one.
var factorEdges = []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 0.5, 1}

// factorKeys draws the keys factorBits pins: each edge X alone as a miss
// and as a hit, each again among innocent observations, and thirty
// seeded keys of 1 to 300 observations, some guilty, some carrying edge
// misses.
func factorKeys() [][]Observation {
	rng := rand.New(rand.NewSource(26))
	var keys [][]Observation
	for _, x := range factorEdges {
		for _, y := range []bool{false, true} {
			keys = append(keys, []Observation{{X: x, Y: y}})
		}
	}
	for _, x := range factorEdges {
		for _, y := range []bool{false, true} {
			obs := innocentObs(rng, 5+rng.Intn(40), 0.02, 0.62)
			obs = append(obs, Observation{X: x, Y: y})
			rng.Shuffle(len(obs), func(a, b int) { obs[a], obs[b] = obs[b], obs[a] })
			keys = append(keys, obs)
		}
	}
	for i := 0; i < 30; i++ {
		lo := rng.Float64() * 0.9
		obs := innocentObs(rng, 1+rng.Intn(300), lo, lo+(1-lo)*rng.Float64())
		if i%4 == 0 {
			for j := range obs {
				obs[j].Y = obs[j].Y || rng.Float64() < 0.6 // planted guilt
			}
		}
		if i%3 == 0 {
			obs[rng.Intn(len(obs))] = Observation{X: factorEdges[rng.Intn(len(factorEdges))]}
		}
		keys = append(keys, obs)
	}
	return keys
}

// factorBits holds math.Float64bits of each factorKeys key's factor, as
// BayesFactor computed it when a history stored observations as
// Observation values. Every path to a factor must still produce these
// bits: BayesFactor itself, and a history's rescore of the key as an
// overflow site and as a dangling pair, directly and after a Snapshot or
// a Split and Restore round trip. A history file holds exactly the
// words, so its round trip (the codec's
// TestHistoryFrameKeepsEdgeObservations) keeps the factors too.
var factorBits = []uint64{
	0x3fe0000000000000, 0x7ff0000000000000, 0x3fe0000000000000, 0x7ff0000000000000,
	0x3fe0000000000000, 0x7ff0000000000000, 0x3fe0000000000000, 0x3ff8000000000000,
	0x3fe0000000000000, 0x3ff0000000000000, 0x3fc009dc702e18cf, 0x7ff0000000000000,
	0x3fdf501fe3ab58f4, 0x7ff0000000000000, 0x3fc214c2d945ec72, 0x7ff0000000000000,
	0x3fb69a322c734bba, 0x3fe23875633ab1dc, 0x4020a2f6ef4375a1, 0x3fb56889a46cd460,
	0x44f31bcf03879eea, 0x3fcc978cade188ef, 0x3fca970666bf69a1, 0x3fd23947a1a0df49,
	0x40119a86d324a0ae, 0x3fcf2bf1c6c601dc, 0x3fa964c7b4156ff4, 0x3fc399adb8119d84,
	0x402c84601bf9c1ae, 0x3fd750d596845e40, 0x3fe8691c96ec57fa, 0x3fb36b167e228443,
	0x42db119e0772f32c, 0x3fe8779070139e4b, 0x3fb000c05d521589, 0x3fdb79c70118d5a6,
	0x4013fe38fac985a6, 0x3fc9f1d9bfd86340, 0x3fad4c756954ad1a, 0x3fbabfb45df3d99a,
	0x4034ca2ab525a95d, 0x3fc532079560943a, 0x3fb50ce6085bab09, 0x3fca1b264814e8f0,
	0x4380c974aeb4bd33, 0x3fe1095328c86cfc, 0x3fac31f3b195fd38, 0x3fa831319457453c,
	0x41234574d05a9365, 0x3fae05e198d945bc,
}

func TestFactorBitsPinned(t *testing.T) {
	keys := factorKeys()
	if len(keys) != len(factorBits) {
		t.Fatalf("%d keys, %d pinned factors", len(keys), len(factorBits))
	}
	rescore := func(hist *History) (over, dang uint64) {
		hist.Identify()
		o, d := hist.Rescored()
		if len(o) != 1 || len(d) != 1 {
			t.Fatalf("rescored %d overflow and %d dangling keys, want 1 and 1", len(o), len(d))
		}
		return math.Float64bits(o[0].Bayes), math.Float64bits(d[0].Bayes)
	}
	for i, obs := range keys {
		want := factorBits[i]
		if got := math.Float64bits(BayesFactor(obs)); got != want {
			t.Errorf("key %d (n=%d): BayesFactor bits %#x, pinned %#x", i, len(obs), got, want)
		}
		hist := NewHistory(DefaultConfig())
		hist.Absorb(&Snapshot{
			Sites:    []site.ID{1, 2},
			Overflow: []SiteObservations{{Site: 1, Obs: obs}},
			Dangling: []PairObservations{{Alloc: 1, Free: 2, Obs: obs}},
		})
		copied := NewHistory(DefaultConfig())
		copied.Absorb(hist.Snapshot())
		restored := Restore(hist.Split())
		for name, h := range map[string]*History{"absorbed": hist, "snapshot copy": copied, "split and restored": restored} {
			if over, dang := rescore(h); over != want || dang != want {
				t.Errorf("key %d (n=%d), %s history: overflow bits %#x, dangling bits %#x, pinned %#x", i, len(obs), name, over, dang, want)
			}
		}
	}
}
