package cumulative

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"exterminator/internal/site"
)

// integrateRatio evaluates the Bayes factor with Simpson's rule. Under
// θ, P(Y_i = 1) = (1−θ)X_i + θ; under H0, P(Y_i = 1) = X_i.
func integrateRatio(obs []Observation) float64 {
	const steps = 512 // even
	const eps = 1e-12
	g := func(theta float64) float64 {
		r := 1.0
		for _, o := range obs {
			x := o.X
			if x < eps {
				x = eps
			}
			if x > 1-eps {
				x = 1 - eps
			}
			py := (1-theta)*x + theta
			if o.Y {
				r *= py / x
			} else {
				r *= (1 - py) / (1 - x)
			}
			if math.IsInf(r, 1) {
				return r // genuinely overwhelming evidence
			}
		}
		return r
	}
	h := 1.0 / steps
	sum := g(0) + g(1)
	for i := 1; i < steps; i++ {
		x := float64(i) * h
		if i%2 == 1 {
			sum += 4 * g(x)
		} else {
			sum += 2 * g(x)
		}
	}
	return sum * h / 3
}

// bigFactor is the reference for BayesFactor: Σₘ eₘ(a)·m!k!/(m+k+1)! in
// prec-bit arithmetic, with a = (1−X)/X taken from each hit's X exactly,
// the eₘ built in arrival order and the weights as exact ratios. The sum
// stops only where the bound eₘ ≤ Sᵐ/m! puts the rest under 2⁻¹²⁸ of it,
// so the reference is exact far beyond float64.
func bigFactor(obs []Observation, prec uint) float64 {
	k := 0
	var hits []*big.Float
	for _, o := range obs {
		if !o.Y {
			k++
			continue
		}
		if o.X <= 0 {
			return math.Inf(1)
		}
		x := new(big.Float).SetPrec(prec).SetFloat64(o.X)
		a := new(big.Float).SetPrec(prec).SetInt64(1)
		a.Sub(a, x).Quo(a, x)
		hits = append(hits, a)
	}
	if len(obs) == 0 {
		return 0
	}
	s := 0.0
	for _, a := range hits {
		f, _ := a.Float64()
		s += f
	}
	// log(bₘ/b₀) = m·log S − Σ_{i≤m} log(k+1+i); stop at the first degree d
	// whose tail bound b_{d+1}/(1−q_{d+1}) is under 2⁻¹²⁸·b₀.
	deg, lr := len(hits), 0.0
	for d := 0; d < len(hits); d++ {
		q := s / float64(k+2+d)
		lr += math.Log(q)
		if q < 1 && lr-math.Log1p(-q) < -128*math.Ln2 {
			deg = d
			break
		}
	}

	e := make([]*big.Float, deg+1)
	for m := range e {
		e[m] = new(big.Float).SetPrec(prec)
	}
	e[0].SetInt64(1)
	t := new(big.Float).SetPrec(prec)
	for j, a := range hits {
		for m := min(j+1, deg); m > 0; m-- {
			e[m].Add(e[m], t.Mul(a, e[m-1]))
		}
	}
	// weight = m!k!/(m+k+1)!, from 1/(k+1) by ×m/(m+k+1).
	weight := new(big.Float).SetPrec(prec).SetInt64(1)
	weight.Quo(weight, new(big.Float).SetPrec(prec).SetInt64(int64(k+1)))
	sum := new(big.Float).SetPrec(prec)
	ratio := new(big.Float).SetPrec(prec)
	for m := 0; m <= deg; m++ {
		if m > 0 {
			ratio.SetInt64(int64(m))
			ratio.Quo(ratio, new(big.Float).SetPrec(prec).SetInt64(int64(m+k+1)))
			weight.Mul(weight, ratio)
		}
		sum.Add(sum, t.Mul(e[m], weight))
	}
	f, _ := sum.Float64()
	return f
}

// innocentObs draws n observations with X uniform in [lo, hi] and Y
// drawn as chance predicts (Y = 1 with probability X).
func innocentObs(rng *rand.Rand, n int, lo, hi float64) []Observation {
	obs := make([]Observation, n)
	for i := range obs {
		x := lo + (hi-lo)*rng.Float64()
		obs[i] = Observation{X: x, Y: rng.Float64() < x}
	}
	return obs
}

// TestBayesFactorMatchesBigReference pins the closed form to a 128-bit
// reference across the regimes the fleet scores: small random keys (one
// in five guilty), a session-sized key at X ≈ 1, and 20,000-observation
// keys at low X, where Simpson's rule read up to 1 % low.
func TestBayesFactorMatchesBigReference(t *testing.T) {
	const tol = 1e-12
	check := func(t *testing.T, name string, obs []Observation) {
		t.Helper()
		got, want := BayesFactor(obs), bigFactor(obs, 128)
		if math.IsInf(want, 1) || math.IsInf(got, 1) || math.IsNaN(got) || want == 0 {
			t.Fatalf("%s: factor %v, reference %v", name, got, want)
		}
		if rel := math.Abs(got-want) / want; rel > tol {
			t.Fatalf("%s: factor %v, reference %v: relative error %.3g > %g", name, got, want, rel, tol)
		}
	}
	t.Run("small", func(t *testing.T) {
		t.Parallel()
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 400; i++ {
			n := 1 + rng.Intn(120)
			lo := rng.Float64() * 0.9
			obs := innocentObs(rng, n, lo, lo+(1-lo)*rng.Float64())
			if i%5 == 0 {
				for j := range obs {
					obs[j].Y = obs[j].Y || rng.Float64() < 0.7 // planted guilt
				}
			}
			check(t, "small key", obs)
		}
	})
	t.Run("session", func(t *testing.T) {
		t.Parallel()
		rng := rand.New(rand.NewSource(2))
		obs := innocentObs(rng, 864, 0.95, 1)
		for j := 0; j < len(obs); j += 20 {
			obs[j] = Observation{X: 1, Y: true} // exactly 1 contributes exactly 1
		}
		check(t, "n=864 X∈[0.95,1]", obs)
	})
	t.Run("bulk", func(t *testing.T) {
		t.Parallel()
		rng := rand.New(rand.NewSource(3))
		check(t, "n=20000 X∈[0.02,0.62]", innocentObs(rng, 20000, 0.02, 0.62))
	})
	t.Run("lowX", func(t *testing.T) {
		t.Parallel()
		rng := rand.New(rand.NewSource(4))
		check(t, "n=20000 X∈[0.001,0.05]", innocentObs(rng, 20000, 0.001, 0.05))
	})
}

// TestBayesFactorInfiniteOnlyWhenImpossible: the factor is +Inf exactly
// when some hit has X ≤ 0, and finite otherwise, misses at X = 0 included.
func TestBayesFactorInfiniteOnlyWhenImpossible(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		obs := innocentObs(rng, 1+rng.Intn(60), 0, 1)
		impossible := false
		for j := range obs {
			if rng.Intn(10) == 0 {
				obs[j].X = 0
			}
			impossible = impossible || obs[j].Y && obs[j].X <= 0
		}
		if got := BayesFactor(obs); math.IsInf(got, 1) != impossible || math.IsNaN(got) {
			t.Fatalf("key %d: factor %v, impossible under H0: %v", i, got, impossible)
		}
	}
}

// TestBayesFactorOrderIndependent: shuffling a key's observations leaves
// its factor bit-identical, which is what lets shards and ingest orders
// agree without sorting whole observation lists.
func TestBayesFactorOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 300; i++ {
		lo := rng.Float64() * 0.9
		obs := innocentObs(rng, 1+rng.Intn(2000), lo, 1)
		if i%5 == 0 {
			for j := range obs {
				obs[j].Y = obs[j].Y || rng.Float64() < 0.5
			}
		}
		want := math.Float64bits(BayesFactor(obs))
		rng.Shuffle(len(obs), func(a, b int) { obs[a], obs[b] = obs[b], obs[a] })
		if got := math.Float64bits(BayesFactor(obs)); got != want {
			t.Fatalf("key %d (n=%d): shuffled factor %v != %v", i, len(obs), math.Float64frombits(got), math.Float64frombits(want))
		}
	}
}

// TestRescoreAllocatesNothing: once a history's scratch has grown to a
// key's size, rescoring that key allocates nothing.
func TestRescoreAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	hist := NewHistory(DefaultConfig())
	hist.Absorb(&Snapshot{C: 4, P: 0.5, Sites: []site.ID{1}, Overflow: []SiteObservations{
		{Site: 1, Obs: innocentObs(rng, 5000, 0.02, 0.62)},
	}})
	hist.Identify()
	ws := hist.overflow[1]
	if n := testing.AllocsPerRun(10, func() { hist.scratch.packed(ws) }); n != 0 {
		t.Fatalf("rescoring a 5000-observation key allocated %v times", n)
	}
}
