// Factorizer is a real multi-precision factoring workload — the job of
// cfrac, the paper's most allocation-intensive benchmark (2.32× in
// Figure 7). Numbers are little-endian base-2^16 limb arrays allocated
// on the simulated heap; trial division and Fermat steps allocate and
// free short-lived bignum temporaries at high rate, exactly cfrac's
// profile of tiny transient objects.
package workloads

import (
	"exterminator/internal/mutator"
)

// Factorizer factors a batch of pseudo-random composites.
type Factorizer struct {
	// Numbers is how many composites to factor.
	Numbers int
	// Limbs is the size of each composite in 16-bit limbs.
	Limbs int
}

// NewFactorizer returns a cfrac-scale workload.
func NewFactorizer(numbers, limbs int) Factorizer {
	if numbers <= 0 {
		numbers = 24
	}
	if limbs <= 0 {
		limbs = 4
	}
	return Factorizer{Numbers: numbers, Limbs: limbs}
}

// Name implements mutator.Program.
func (Factorizer) Name() string { return "cfrac-mp" }

// bignum helpers: numbers live in the simulated heap as 2-byte
// little-endian limbs. Every operation allocates its result — the
// functional-style bignum arithmetic cfrac's library uses.

// mpRun is one run of a Factorizer: its environment and scratch. raw
// stages the bytes of every heap read and write, num holds the last
// number loadNum read, and quot the limbs newNum is about to store (a
// fresh composite, or the quotient divSmall builds from num).
type mpRun struct {
	Factorizer
	e         *mutator.Env
	raw       []byte
	num, quot []uint16
}

func (r *mpRun) newNum(limbs []uint16) mutator.Ptr {
	var p mutator.Ptr
	r.e.Call(0xCF4AC, func() { p = r.e.Malloc(2 * len(limbs)) })
	buf := r.raw[:2*len(limbs)]
	for i, l := range limbs {
		buf[2*i] = byte(l)
		buf[2*i+1] = byte(l >> 8)
	}
	r.e.Write(p, 0, buf)
	return p
}

// loadNum reads the Limbs-limb number at p into r.num, which the next
// loadNum overwrites.
func (r *mpRun) loadNum(p mutator.Ptr) []uint16 {
	buf := r.raw[:2*r.Limbs]
	r.e.Read(p, 0, buf)
	for i := range r.num {
		r.num[i] = uint16(buf[2*i]) | uint16(buf[2*i+1])<<8
	}
	return r.num
}

func (r *mpRun) freeNum(p mutator.Ptr) {
	r.e.Call(0xCF4AD, func() { r.e.Free(p) })
}

// modSmall computes value mod m over the heap-resident limbs.
func modSmall(limbs []uint16, m uint32) uint32 {
	var r uint64
	for i := len(limbs) - 1; i >= 0; i-- {
		r = (r<<16 | uint64(limbs[i])) % uint64(m)
	}
	return uint32(r)
}

// divSmall divides the limbs by d in place (heap round-trip), returning
// the new heap number and whether the division was exact.
func (r *mpRun) divSmall(p mutator.Ptr, d uint32) (mutator.Ptr, bool) {
	limbs, out := r.loadNum(p), r.quot
	var rem uint64
	for i := len(out) - 1; i >= 0; i-- {
		cur := rem<<16 | uint64(limbs[i])
		out[i] = uint16(cur / uint64(d))
		rem = cur % uint64(d)
	}
	q := r.newNum(out)
	return q, rem == 0
}

func isOne(limbs []uint16) bool {
	if limbs[0] != 1 {
		return false
	}
	for _, l := range limbs[1:] {
		if l != 0 {
			return false
		}
	}
	return true
}

// Run implements mutator.Program.
func (f Factorizer) Run(e *mutator.Env) {
	// raw also stages the Fermat probe's two-limb temporaries.
	r := &mpRun{Factorizer: f, e: e, raw: make([]byte, 2*max(f.Limbs, 2)),
		num: make([]uint16, f.Limbs), quot: make([]uint16, f.Limbs)}
	factored := 0
	for i := 0; i < f.Numbers; i++ {
		// A pseudo-random composite (force odd, nonzero top limb).
		limbs := r.quot
		for j := range limbs {
			limbs[j] = uint16(e.Rng.Uint32())
		}
		limbs[0] |= 1
		limbs[f.Limbs-1] |= 0x8000
		n := r.newNum(limbs)

		var factors []uint32
		// Trial division by small primes; every exact division allocates
		// the quotient and frees the old number (cfrac's churn).
		cur := n
		for _, prime := range smallPrimes {
			for {
				cl := r.loadNum(cur)
				if isOne(cl) {
					break
				}
				if modSmall(cl, prime) != 0 {
					break
				}
				q, exact := r.divSmall(cur, prime)
				if !exact {
					// modSmall said divisible but division disagrees:
					// the number's limbs were corrupted in memory.
					e.Fail("cfrac-mp: inconsistent arithmetic (corrupt bignum)")
				}
				r.freeNum(cur)
				cur = q
				factors = append(factors, prime)
				if len(factors) > 64 {
					break
				}
			}
		}
		// Fermat probe on the remainder: a few squarings mod the number,
		// allocating temporaries (compute + churn, no factor extraction).
		rl := r.loadNum(cur)
		probe := uint64(2)
		for it := 0; it < 8; it++ {
			m := modSmall(rl, 65521)
			probe = probe * probe % uint64(65521)
			tmp := r.newNum([]uint16{uint16(probe), uint16(m)})
			r.freeNum(tmp)
		}

		sig := uint32(0)
		for _, fp := range factors {
			sig = sig*31 + fp
		}
		for _, l := range rl {
			sig = sig*33 + uint32(l)
		}
		e.Printf("cfrac-mp n%02d: %d small factor(s) sig=%08x\n", i, len(factors), sig)
		r.freeNum(cur)
		factored++
	}
	e.Printf("cfrac-mp done numbers=%d\n", factored)
}

var smallPrimes = []uint32{
	3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
	53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113,
}
