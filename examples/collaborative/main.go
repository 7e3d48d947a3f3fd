// Collaborative bug correction (paper §6.4): three simulated users hit
// different bugs in the same application; each derives runtime patches
// locally; merging the patch files yields one set that fixes every
// observed error for everyone.
//
// Each user's session runs through the engine API and writes its patch
// file through an evidence sink — the same plumbing a fleet deployment
// uses, pointed at local files.
//
//	go run ./examples/collaborative
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"exterminator/internal/engine"
	"exterminator/internal/inject"
	"exterminator/internal/mutator"
	"exterminator/internal/patch"
	"exterminator/internal/workloads"
)

func main() {
	ctx := context.Background()
	dir, err := os.MkdirTemp("", "exterminator-collab")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	prog, _ := workloads.ByName("espresso", 1)

	// Each user's installation experiences a different deterministic bug
	// (different overflow sites/sizes — e.g. different plugins).
	bugs := []inject.Plan{
		{Kind: inject.Overflow, TriggerAlloc: 500, Size: 4, Seed: 101},
		{Kind: inject.Overflow, TriggerAlloc: 900, Size: 20, Seed: 202},
		{Kind: inject.Overflow, TriggerAlloc: 1400, Size: 36, Seed: 303},
	}

	var files []string
	for u, plan := range bugs {
		plan := plan
		fmt.Printf("=== user %d: bug = %v overflow of %d bytes at alloc #%d ===\n",
			u+1, plan.Kind, plan.Size, plan.TriggerAlloc)
		path := filepath.Join(dir, fmt.Sprintf("user%d.xtp", u+1))
		var corrected *engine.Result
		for seed := uint64(1); seed <= 6; seed++ {
			sess, err := engine.New(engine.Batch(prog),
				engine.WithMode(engine.ModeIterative),
				engine.WithSeeds(uint64(u+1)*1000+seed*77, 0x9106),
				engine.WithHook(func() mutator.Hook { return inject.New(plan) }),
				engine.WithSink(engine.PatchFile(path)),
			)
			if err != nil {
				log.Fatal(err)
			}
			res, err := sess.Run(ctx)
			if err != nil {
				log.Fatal(err)
			}
			if len(res.SinkErrors) > 0 {
				log.Fatal(res.SinkErrors[0])
			}
			if res.Corrected {
				corrected = res
				break
			}
		}
		if corrected == nil {
			log.Fatalf("user %d: bug never corrected", u+1)
		}
		fmt.Printf("  -> %d patch entr%s written to %s\n",
			corrected.Patches.Len(), plural(corrected.Patches.Len()), filepath.Base(path))
		files = append(files, path)
	}

	fmt.Println("\n=== merge all users' patches (max-combine) ===")
	merged := patch.New()
	for _, f := range files {
		p, err := engine.LoadPatchFile(f)
		if err != nil {
			log.Fatal(err)
		}
		merged.Merge(p)
	}
	fmt.Printf("merged set: %d entries\n", merged.Len())
	merged.EncodeText(os.Stdout)

	fmt.Println("\n=== every user's bug is fixed by the merged set ===")
	for u, plan := range bugs {
		plan := plan
		out, clean := engine.Verify(prog, nil, inject.New(plan), merged, 0xC0FFEE+uint64(u), 0x9106)
		fmt.Printf("  user %d rerun: %s | heap clean: %v\n", u+1, out, clean)
		if !clean {
			log.Fatalf("user %d's bug not covered by merged patches", u+1)
		}
	}
	fmt.Println("\nPatch files compose by taking maxima, so community-wide")
	fmt.Println("merging monotonically improves reliability (paper §6.4).")
}

func plural(n int) string {
	if n == 1 {
		return "y"
	}
	return "ies"
}
