// Minimizer is a real two-level logic minimizer — the algorithmic heart
// of espresso, the paper's flagship benchmark — rather than a synthetic
// allocation profile. It repeatedly merges distance-1 implicant cubes
// (the Quine–McCluskey combining step), with every cube stored as a
// heap-allocated bitset exactly as espresso stores its covers. The
// paper's observation that "some objects hold bitsets", making canary
// reads look like valid data, applies literally here.
package workloads

import (
	"exterminator/internal/mutator"
)

// Minimizer minimizes random single-output covers.
type Minimizer struct {
	// Vars is the number of input variables (cube = 2*Vars bits).
	Vars int
	// Covers is how many independent covers to minimize.
	Covers int
	// CubesPerCover is the initial implicant count per cover.
	CubesPerCover int
}

// NewMinimizer returns a workload with espresso-like proportions.
func NewMinimizer(vars, covers, cubes int) Minimizer {
	if vars <= 0 {
		vars = 16
	}
	if covers <= 0 {
		covers = 12
	}
	if cubes <= 0 {
		cubes = 48
	}
	return Minimizer{Vars: vars, Covers: covers, CubesPerCover: cubes}
}

// Name implements mutator.Program.
func (Minimizer) Name() string { return "espresso-qm" }

// Cube layout: positional-cube notation, two bits per variable
// (01 = positive literal, 10 = negative literal, 11 = don't-care),
// packed little-endian into a heap-allocated byte array.

func (m Minimizer) cubeBytes() int { return (2*m.Vars + 7) / 8 }

// qmRun is one run of a Minimizer: its environment and two scratch
// cubes. distance1 and contains load two cubes at once, and no cube
// loaded into scratch is used after the call that loaded it returns.
type qmRun struct {
	Minimizer
	e    *mutator.Env
	x, y []byte
}

// Run implements mutator.Program.
func (m Minimizer) Run(e *mutator.Env) {
	r := &qmRun{Minimizer: m, e: e, x: make([]byte, m.cubeBytes()), y: make([]byte, m.cubeBytes())}
	totalCubes, totalMerges := 0, 0

	for c := 0; c < m.Covers; c++ {
		cover := r.randomCover()

		// Iterated combining: merge any two cubes at distance 1 until a
		// fixpoint — the QM prime-implicant generation loop. Each merge
		// allocates the combined cube and frees the two inputs (real
		// minimizers churn exactly like this).
		for {
			merged := false
			for i := 0; i < len(cover) && !merged; i++ {
				for j := i + 1; j < len(cover) && !merged; j++ {
					if v, ok := r.distance1(cover[i], cover[j]); ok {
						nc := r.combine(cover[i], v)
						r.freeCube(cover[i])
						r.freeCube(cover[j])
						// Remove j first (higher index), then i.
						cover = append(cover[:j], cover[j+1:]...)
						cover = append(cover[:i], cover[i+1:]...)
						cover = append(cover, nc)
						merged = true
						totalMerges++
					}
				}
			}
			if !merged {
				break
			}
		}

		// Single-cube containment sweep: drop cubes covered by another.
		cover = r.dropContained(cover)

		// Report a layout-independent signature of the minimized cover.
		sig := uint32(0)
		for _, cb := range cover {
			sig = sig*31 + r.checksum(cb)
		}
		e.Printf("espresso-qm cover %d: %d cubes sig=%08x\n", c, len(cover), sig)
		totalCubes += len(cover)
		for _, cb := range cover {
			r.freeCube(cb)
		}
	}
	e.Printf("espresso-qm done covers=%d cubes=%d merges=%d\n", m.Covers, totalCubes, totalMerges)
}

// randomCover allocates an initial cover of minterm-ish cubes.
func (r *qmRun) randomCover() []mutator.Ptr {
	e := r.e
	cover := make([]mutator.Ptr, 0, r.CubesPerCover)
	for i := 0; i < r.CubesPerCover; i++ {
		var p mutator.Ptr
		e.Call(0xE599, func() { p = e.Malloc(r.cubeBytes()) })
		buf := r.x
		clear(buf) // setPair leaves the pad bits of the last byte
		for v := 0; v < r.Vars; v++ {
			var bits byte
			switch e.Rng.Intn(4) {
			case 0, 1:
				bits = 0b01 // positive literal
			case 2:
				bits = 0b10 // negative literal
			default:
				bits = 0b11 // don't-care
			}
			setPair(buf, v, bits)
		}
		e.Write(p, 0, buf)
		cover = append(cover, p)
	}
	return cover
}

func (r *qmRun) freeCube(p mutator.Ptr) {
	r.e.Call(0xE59A, func() { r.e.Free(p) })
}

// load reads the cube at p into buf, one of the run's scratch cubes.
func (r *qmRun) load(p mutator.Ptr, buf []byte) []byte {
	r.e.Read(p, 0, buf)
	return buf
}

// distance1 reports whether cubes a and b agree everywhere except one
// variable whose literals are complementary — the QM merge condition —
// returning that variable.
func (r *qmRun) distance1(a, b mutator.Ptr) (int, bool) {
	ab, bb := r.load(a, r.x), r.load(b, r.y)
	diffVar := -1
	for v := 0; v < r.Vars; v++ {
		pa, pb := getPair(ab, v), getPair(bb, v)
		if pa == pb {
			continue
		}
		// Complementary literals merge; anything else is distance > 1.
		if (pa == 0b01 && pb == 0b10) || (pa == 0b10 && pb == 0b01) {
			if diffVar >= 0 {
				return 0, false
			}
			diffVar = v
			continue
		}
		return 0, false
	}
	if diffVar < 0 {
		return 0, false // identical cubes: duplicate, not a merge
	}
	return diffVar, true
}

// combine allocates the merged cube: a with variable v made don't-care.
func (r *qmRun) combine(a mutator.Ptr, v int) mutator.Ptr {
	ab := r.load(a, r.x)
	setPair(ab, v, 0b11)
	var p mutator.Ptr
	r.e.Call(0xE59B, func() { p = r.e.Malloc(r.cubeBytes()) })
	r.e.Write(p, 0, ab)
	return p
}

// dropContained removes cubes contained in another cube of the cover
// (a ⊆ b iff b's literal set is a subset bitwise: a&b == a on every pair,
// with b's don't-cares covering a's literals).
func (r *qmRun) dropContained(cover []mutator.Ptr) []mutator.Ptr {
	out := make([]mutator.Ptr, 0, len(cover))
	for i, a := range cover {
		contained := false
		for j, b := range cover {
			if i == j {
				continue
			}
			if r.contains(b, a) && !(r.contains(a, b) && i < j) {
				contained = true
				break
			}
		}
		if contained {
			r.freeCube(a)
		} else {
			out = append(out, a)
		}
	}
	return out
}

// contains reports whether cube big covers cube small.
func (r *qmRun) contains(big, small mutator.Ptr) bool {
	bb, sb := r.load(big, r.x), r.load(small, r.y)
	for v := 0; v < r.Vars; v++ {
		pb, ps := getPair(bb, v), getPair(sb, v)
		if pb&ps != ps {
			return false
		}
	}
	return true
}

// checksum folds a cube into a layout-independent signature. Canary
// bytes read through a dangled cube change the signature — the
// "treats it as valid data and aborts" behaviour of §7.2.
func (r *qmRun) checksum(p mutator.Ptr) uint32 {
	buf := r.load(p, r.x)
	var h uint32 = 5381
	for v := 0; v < r.Vars; v++ {
		pair := getPair(buf, v)
		if pair == 0 {
			// An empty literal set is impossible in a well-formed cube:
			// the cover is corrupt (espresso's internal consistency
			// checks abort here). Canary or zero-filled bytes read
			// through a dangled cube land here with high probability.
			r.e.Fail("espresso-qm: malformed cube (empty literal pair)")
		}
		h = h*33 + uint32(pair)
	}
	return h
}

func setPair(buf []byte, v int, bits byte) {
	idx, shift := v/4, uint(v%4)*2
	buf[idx] = buf[idx]&^(0b11<<shift) | bits<<shift
}

func getPair(buf []byte, v int) byte {
	idx, shift := v/4, uint(v%4)*2
	return buf[idx] >> shift & 0b11
}
