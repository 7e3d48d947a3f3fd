// Package workloads provides the simulated application suite: stand-ins
// for the benchmarks of the paper's evaluation (§7).
//
//   - An allocation-intensive suite named after the paper's (cfrac,
//     espresso, lindsay, p2c, roboop): high malloc/free rates, little
//     compute per allocation — the workloads where Exterminator's
//     overhead peaks (geometric mean 1.81× in Figure 7).
//   - A SPECint2000-like suite (gzip, vpr, gcc, mcf, crafty, parser,
//     perlbmk, gap, vortex, bzip2, twolf): heavy compute per allocation,
//     where overhead nearly vanishes (geometric mean 1.07×).
//   - Squid and Mozilla analogues with *built-in* (not injected) buffer
//     overflows modeled on the real bugs of §7.2.
//
// Each program is deterministic given its input and program seed, writes
// voter-comparable output that never depends on heap addresses, verifies
// its own data (so reading a canary through a dangling pointer makes it
// abort, as espresso does in §7.2), and chases stored pointers (so a
// canaried pointer field causes a crash on dereference).
package workloads

import (
	"fmt"

	"exterminator/internal/mutator"
)

// Profile parameterizes a synthetic benchmark.
type Profile struct {
	Name         string
	Ops          int // outer-loop operations
	ComputePerOp int // synthetic compute rounds per op (hash iterations)
	AllocEvery   int // allocate on every k-th op
	SizeMin      int
	SizeMax      int
	LiveTarget   int  // steady-state live objects
	PointerChase bool // store and follow intra-heap pointers
	Sites        int  // number of distinct allocation call sites
}

// Synthetic is a Profile-driven program.
type Synthetic struct {
	P Profile
}

// Name implements mutator.Program.
func (s Synthetic) Name() string { return s.P.Name }

// payloadByte is the expected payload of object ord at offset i; programs
// verify reads against it and abort on mismatch (self-checking, like
// espresso's internal consistency checks).
func payloadByte(ord uint64, i int) byte {
	return byte(uint64(i)*167 + ord*31 + 5)
}

// compute burns deterministic CPU (the SPEC-like compute phase) and
// returns a checksum contribution.
func compute(rounds int, seed uint64) uint64 {
	h := seed | 1
	for i := 0; i < rounds; i++ {
		h ^= h << 13
		h ^= h >> 7
		h ^= h << 17
	}
	return h
}

type liveObj struct {
	ptr  mutator.Ptr
	size int
	ord  uint64
}

// Run implements mutator.Program.
func (s Synthetic) Run(e *mutator.Env) {
	p := s.P
	if p.AllocEvery <= 0 {
		p.AllocEvery = 1
	}
	if p.Sites <= 0 {
		p.Sites = 8
	}
	var live []liveObj
	var checksum uint64

	// payloadLen is the verifiable payload region; pointer-chasing
	// objects reserve their last aligned word for a pointer field.
	payloadLen := func(o liveObj) int {
		if p.PointerChase && o.size >= 16 {
			return (o.size - 8) &^ 7
		}
		return o.size
	}

	// scratch carries every payload write and verify of the run: the two
	// never nest, so one buffer grown to the largest payload serves both.
	var scratch []byte
	payload := func(o liveObj) []byte {
		n := payloadLen(o)
		if cap(scratch) < n {
			scratch = make([]byte, n)
		}
		return scratch[:n]
	}

	// rewritePayload refreshes the verifiable payload region in place.
	rewritePayload := func(o liveObj) {
		buf := payload(o)
		for i := range buf {
			buf[i] = payloadByte(o.ord, i)
		}
		e.Write(o.ptr, 0, buf)
	}

	writeObj := func(o liveObj) {
		rewritePayload(o)
		if n := payloadLen(o); n != o.size {
			// Pointer field: a random live object, or null when none.
			var target mutator.Ptr
			if len(live) > 0 {
				target = live[e.Rng.Intn(len(live))].ptr
			}
			e.Write64(o.ptr, n, target)
		}
	}

	verifyObj := func(o liveObj) {
		buf := payload(o)
		e.Read(o.ptr, 0, buf)
		for i, b := range buf {
			if b != payloadByte(o.ord, i) {
				e.Fail(fmt.Sprintf("%s: data corruption in object %d at offset %d", p.Name, o.ord, i))
			}
		}
	}

	for op := 0; op < p.Ops; op++ {
		checksum ^= compute(p.ComputePerOp, uint64(op)+1)

		if op%p.AllocEvery == 0 {
			size := p.SizeMin
			if p.SizeMax > p.SizeMin {
				size += e.Rng.Intn(p.SizeMax - p.SizeMin + 1)
			}
			pc := 0xF000 + uint64(op%p.Sites)
			var ptr mutator.Ptr
			e.Call(pc, func() { ptr = e.Malloc(size) })
			o := liveObj{ptr: ptr, size: size, ord: e.Alloc.Clock()}
			writeObj(o)
			live = append(live, o)

			if len(live) > p.LiveTarget {
				k := e.Rng.Intn(len(live))
				victim := live[k]
				// Consistency checks are periodic, not on every free —
				// like espresso's own validation passes.
				if op&3 == 0 {
					verifyObj(victim)
				}
				e.Call(0xE000+uint64(k%p.Sites), func() { e.Free(victim.ptr) })
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}

		if p.PointerChase && op%7 == 3 && len(live) > 0 {
			// Chase a stored pointer: read the pointer field of a live
			// object and dereference it. If the object was dangled and
			// canaried, the loaded "pointer" is the canary and the
			// dereference traps (§3.3's alignment trick).
			o := live[e.Rng.Intn(len(live))]
			if o.size >= 16 {
				v := e.Read64(o.ptr, payloadLen(o))
				if v != 0 {
					// The loaded value is discarded: what it reads
					// depends on heap layout (the target may have been
					// freed), and program output must stay layout-
					// independent for the voter.
					e.Deref(v)
				}
			}
		}

		if op%5 == 2 && len(live) > 0 {
			// Update phase: rewrite a live object's payload in place (as
			// espresso rewrites its bitsets). A write through an object
			// the allocator has secretly reclaimed is a dangling *write*
			// — the case iterative mode can isolate (§4.2). The pointer
			// field is left alone (payloads are replica-identical,
			// pointers are not).
			rewritePayload(live[e.Rng.Intn(len(live))])
		}

		if op%512 == 511 {
			e.Printf("%s %d %x\n", p.Name, op, checksum&0xffff)
		}
	}
	// Final verification pass: corrupted survivors abort the run.
	for _, o := range live {
		verifyObj(o)
		e.Free(o.ptr)
	}
	e.Printf("%s done ops=%d sum=%x\n", p.Name, p.Ops, checksum&0xffffffff)
}

// AllocIntensive returns the allocation-intensive suite (Figure 7, left).
// Parameters echo the character of each original: cfrac's tiny transient
// bignums, espresso's mixed bitset churn, lindsay's message buffers,
// p2c's AST nodes, roboop's matrix temporaries.
func AllocIntensive(scale int) []mutator.Program {
	if scale <= 0 {
		scale = 1
	}
	return []mutator.Program{
		Synthetic{Profile{Name: "cfrac", Ops: 3000 * scale, ComputePerOp: 4, AllocEvery: 1, SizeMin: 8, SizeMax: 40, LiveTarget: 30, Sites: 6}},
		Synthetic{Profile{Name: "espresso", Ops: 2500 * scale, ComputePerOp: 8, AllocEvery: 1, SizeMin: 8, SizeMax: 256, LiveTarget: 60, PointerChase: true, Sites: 12}},
		Synthetic{Profile{Name: "lindsay", Ops: 2000 * scale, ComputePerOp: 12, AllocEvery: 1, SizeMin: 32, SizeMax: 512, LiveTarget: 40, Sites: 8}},
		Synthetic{Profile{Name: "p2c", Ops: 2500 * scale, ComputePerOp: 10, AllocEvery: 1, SizeMin: 16, SizeMax: 96, LiveTarget: 120, PointerChase: true, Sites: 16}},
		Synthetic{Profile{Name: "roboop", Ops: 2200 * scale, ComputePerOp: 16, AllocEvery: 1, SizeMin: 64, SizeMax: 1024, LiveTarget: 24, Sites: 6}},
	}
}

// SPECLike returns the SPECint2000-like suite (Figure 7, right): the same
// machinery with far more compute per allocation.
func SPECLike(scale int) []mutator.Program {
	if scale <= 0 {
		scale = 1
	}
	mk := func(name string, computePerOp, allocEvery, szMin, szMax, liveTarget int) mutator.Program {
		return Synthetic{Profile{
			Name: name, Ops: 1200 * scale, ComputePerOp: computePerOp,
			AllocEvery: allocEvery, SizeMin: szMin, SizeMax: szMax,
			LiveTarget: liveTarget, Sites: 10,
		}}
	}
	return []mutator.Program{
		mk("gzip", 600, 24, 1024, 8192, 12),
		mk("vpr", 400, 12, 32, 256, 80),
		mk("gcc", 220, 4, 16, 512, 200),
		mk("mcf", 500, 20, 64, 192, 60),
		mk("crafty", 900, 60, 256, 2048, 8),
		mk("parser", 260, 3, 16, 128, 150),
		mk("perlbmk", 300, 6, 24, 384, 120),
		mk("gap", 350, 10, 32, 1024, 90),
		mk("vortex", 320, 8, 48, 640, 100),
		mk("bzip2", 700, 30, 2048, 16384, 10),
		mk("twolf", 380, 9, 24, 224, 110),
	}
}

// ByName finds a program in the combined suite.
func ByName(name string, scale int) (mutator.Program, bool) {
	for _, p := range append(AllocIntensive(scale), SPECLike(scale)...) {
		if p.Name() == name {
			return p, true
		}
	}
	switch name {
	case "squid":
		return NewSquid(), true
	case "mozilla":
		return NewMozilla(12), true
	case "espresso-qm":
		return NewMinimizer(16, 10*scale, 48), true
	case "cfrac-mp":
		return NewFactorizer(20*scale, 4), true
	}
	return nil, false
}
