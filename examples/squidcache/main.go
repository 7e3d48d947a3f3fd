// The Squid case study (paper §7.2): a web-cache workload with the real
// 6-byte buffer overflow of Squid 2.3s5. Under a libc-style allocator the
// hostile request crashes the server; under Exterminator the overflow is
// tolerated, isolated to its single allocation site, and fixed with a pad
// of exactly 6 bytes.
//
//	go run ./examples/squidcache
package main

import (
	"context"
	"fmt"
	"log"

	"exterminator/internal/engine"
	"exterminator/internal/freelist"
	"exterminator/internal/mem"
	"exterminator/internal/mutator"
	"exterminator/internal/patch"
	"exterminator/internal/workloads"
	"exterminator/internal/xrand"
)

func main() {
	hostile := workloads.SquidHostileInput(200, 100)
	squid := workloads.NewSquid()

	fmt.Println("=== Hostile input under a libc-style allocator ===")
	crashes := 0
	for seed := uint64(1); seed <= 5; seed++ {
		rng := xrand.New(seed)
		fl := freelist.New(mem.NewSpace(rng.Split()), rng.Split())
		e := mutator.NewEnv(fl, fl.Space(), xrand.New(4), hostile)
		e.NoSites = true
		out := mutator.Run(squid, e)
		fmt.Printf("  run %d: %s\n", seed, out)
		if out.Crashed {
			crashes++
		}
	}
	fmt.Printf("  -> %d/5 runs crashed (the paper: Squid crashes under GNU libc)\n\n", crashes)

	fmt.Println("=== Same input under Exterminator (iterative mode) ===")
	var patches *patch.Set
	for seed := uint64(1); seed <= 6; seed++ {
		res := iterative(squid, hostile, seed*7919)
		if res.CleanAtStart {
			fmt.Printf("  attempt %d: overflow invisible in this layout, retrying\n", seed)
			continue
		}
		fmt.Printf("  attempt %d: %s\n", seed, res)
		if res.Corrected {
			patches = res.Patches
			break
		}
	}
	if patches == nil {
		log.Fatal("squidcache: overflow never corrected")
	}
	fmt.Println("\n  runtime patch (paper: a single site, a pad of exactly 6 bytes):")
	patches.EncodeText(indent{})

	fmt.Println("\n=== Patched server vs the same exploit ===")
	out, clean := engine.Verify(squid, hostile, nil, patches, 0xACE, 0x9106)
	fmt.Printf("  %s\n  heap clean: %v\n", out, clean)
	if !clean {
		log.Fatal("squidcache: patched server still corrupts")
	}
}

// iterative runs one iterative-mode session of prog over input.
func iterative(prog mutator.Program, input []byte, heapSeed uint64) *engine.IterativeResult {
	sess, err := engine.New(engine.Batch(prog),
		engine.WithMode(engine.ModeIterative),
		engine.WithSeeds(heapSeed, 0x9106),
		engine.WithInput(input))
	if err != nil {
		log.Fatal(err)
	}
	res, err := sess.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	return res.Iterative
}

type indent struct{}

func (indent) Write(p []byte) (int, error) {
	fmt.Print("    " + string(p))
	return len(p), nil
}
