package cumulative

import (
	"math"
	"slices"
)

// BayesFactor computes P(X̄,Ȳ|H1) / P(X̄,Ȳ|H0) for a key's observations
// (§5.1), exactly. It returns +Inf when H0 assigns probability zero to the
// data (Y observed with X ≤ 0), and 0 for no observations.
//
// Under H1 with rate θ, P(Y = 1) = (1−θ)X + θ; under H0, P(Y = 1) = X.
// The factor is the likelihood ratio integrated over θ's uniform prior:
//
//	BF = ∫₀¹ Πᵢ P(Yᵢ|θ,Xᵢ) / P(Yᵢ|H0,Xᵢ) dθ.
//
// A miss (Y = 0) contributes (1−θ)(1−X)/(1−X) = 1 − θ whatever its X, and
// a hit (Y = 1) contributes ((1−θ)X + θ)/X = 1 + aθ with a = (1−X)/X. So
// with k misses and hits a₁…a_h,
//
//	BF = ∫₀¹ (1−θ)^k Πⱼ (1 + aⱼθ) dθ = Σₘ eₘ(a) · m!k!/(m+k+1)!,
//
// where eₘ is the m-th elementary symmetric polynomial of the a values and
// m!k!/(m+k+1)! = ∫₀¹ θᵐ(1−θ)^k dθ. The terms gₘ = eₘ·m!k!/(m+k+1)! are
// built in linear space: g₀ = 1/(k+1), and each hit maps
// gₘ += a·m/(m+k+1)·gₘ₋₁, m descending. Every term is positive, so nothing
// cancels, and no gₘ exceeds the factor, so nothing overflows unless the
// factor does.
//
// Tail bound: eₘ ≤ Sᵐ/m! with S = Σa, so gₘ ≤ bₘ = Sᵐk!/(m+k+1)!, with
// b₀ = g₀. The ratio qₘ = bₘ/bₘ₋₁ = S/(m+k+1) falls with m, so once
// qₘ < 1 the terms of degree m and above sum to at most bₘ/(1−qₘ). The
// expansion stops below the first degree m where that is under 2⁻⁶⁰·g₀,
// so what it drops is under 2⁻⁶⁰ of the factor.
//
// Hits are taken in ascending X, so the factor is a function of k and the
// multiset of hit X values alone: any order of the same observations gives
// the same bits. A hit at X = 1 contributes exactly 1 and is skipped.
func BayesFactor(obs []Observation) float64 {
	if len(obs) == 0 {
		return 0
	}
	s := scorer{a: make([]float64, 0, len(obs))}
	k := 0
	for _, o := range obs {
		switch {
		case !o.Y:
			k++
		case o.X <= 0:
			return math.Inf(1) // impossible under H0
		case o.X < 1:
			s.a = append(s.a, o.X)
		}
	}
	return s.factor(k)
}

// scorer is the scratch the factor is computed in. A History keeps one,
// so rescoring a key allocates nothing once the buffers have grown to the
// largest key seen.
type scorer struct {
	a  []float64 // the hits' X below 1, then their a = (1−X)/X, in ascending X
	gw []float64 // gₘ, then the weights m/(m+k+1), for m = 0..degree
}

// packed is BayesFactor over a history's stored words, computed in s's
// buffers. It loads the scoring core as BayesFactor does, from words.
func (s *scorer) packed(ws []word) float64 {
	if len(ws) == 0 {
		return 0
	}
	k := 0
	s.a = s.a[:0]
	for _, w := range ws {
		switch x := w.x(); {
		case !w.hit():
			k++
		case x <= 0:
			return math.Inf(1) // impossible under H0
		case x < 1:
			s.a = append(s.a, x)
		}
	}
	return s.factor(k)
}

// factor is the scoring core: the factor of k misses and the hits whose
// X values, all in (0, 1), s.a holds in any order. Hits at X = 1 are
// left out by the caller, since each contributes exactly 1.
func (s *scorer) factor(k int) float64 {
	slices.Sort(s.a)
	sum := 0.0
	for i, x := range s.a {
		s.a[i] = (1 - x) / x
		sum += s.a[i]
	}

	d := degree(sum, k, len(s.a))
	s.gw = slices.Grow(s.gw[:0], 2*(d+1))[:2*(d+1)]
	g, w := s.gw[:d+1], s.gw[d+1:]
	g[0] = 1 / float64(k+1)
	for m := 1; m <= d; m++ {
		g[m] = 0
		w[m] = float64(m) / float64(m+k+1)
	}
	for j, a := range s.a {
		for m := min(j+1, d); m > 0; m-- {
			g[m] += a * w[m] * g[m-1]
		}
	}
	bf := 0.0
	for m := d; m >= 0; m-- {
		bf += g[m]
	}
	return bf
}

// degree returns the highest degree of the expansion BayesFactor keeps for
// k misses and h hits whose a values sum to s: the smallest d ≤ h at which
// the bound on the terms above d falls under 2⁻⁶⁰·g₀. A bound that
// overflows keeps every degree; it only does so when S is so large that
// the cap would sit near h anyway.
func degree(s float64, k, h int) int {
	r := 1.0 // b_{d+1}/b₀
	for d := 0; d < h; d++ {
		q := s / float64(k+2+d)
		r *= q
		if q < 1 && r < 0x1p-60*(1-q) {
			return d
		}
	}
	return h
}
