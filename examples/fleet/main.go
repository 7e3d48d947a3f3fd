// Fleet aggregation demo: cumulative mode (paper §5) as a network service.
//
// A fleetd-style aggregation server starts on a loopback port; N simulated
// installations then run a buggy program concurrently. Each installation
// alone never accumulates enough evidence to cross the Bayesian threshold —
// it uploads its per-run (X, Y) summaries to the server, which pools
// evidence fleet-wide, reruns the hypothesis test as batches arrive, and
// publishes derived patches. Every client picks the patches up through
// versioned delta polling (GET /v1/patches?since=) and applies them to its
// next run — the paper's "automatic distribution to all users" (§6.3, §6.4).
//
//	go run ./examples/fleet
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync"
	"time"

	"exterminator/internal/cumulative"
	"exterminator/internal/diefast"
	"exterminator/internal/fleet"
	"exterminator/internal/fleet/codec"
	"exterminator/internal/mem"
	"exterminator/internal/patch"
	"exterminator/internal/site"
	"exterminator/internal/xrand"
)

const (
	nClients     = 4
	runsPerBatch = 2
	maxRounds    = 30

	overflowSite = site.ID(0xBAD)
	overflowLen  = 8
	dangleAlloc  = site.ID(0xDA)
	dangleFree   = site.ID(0xDF)
)

func main() {
	// --- server side: what fleetd runs ---------------------------------
	srv := fleet.NewServer(fleet.ServerOptions{Shards: 8, CorrectEvery: 0})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go srv.RunCorrectionLoop(ctx, 200*time.Millisecond)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("aggregation server listening on %s\n\n", base)

	// --- client side: N concurrent installations -----------------------
	var wg sync.WaitGroup
	results := make([]clientResult, nClients)
	for c := 0; c < nClients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			results[id] = runClient(id, base)
		}(c)
	}
	wg.Wait()

	fmt.Println()
	ok := true
	for i, r := range results {
		if r.err != nil {
			fmt.Printf("client %d: FAILED: %v\n", i+1, r.err)
			ok = false
			continue
		}
		fmt.Printf("client %d: ran %d local runs, saw fleet patches at version %d after %d round(s): %d entr%s\n",
			i+1, r.runs, r.version, r.rounds, r.patches.Len(), plural(r.patches.Len()))
	}
	if !ok {
		log.Fatal("some clients never observed a fleet patch")
	}

	st, err := fleet.NewClient(base, "observer").Status()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfleet totals: %d runs across %d client(s) in %d batches; %d sites; %d patch entr%s at version %d\n",
		st.Runs, st.Clients, st.Batches, st.Sites, st.PatchLen, plural(st.PatchLen), st.Version)
	fmt.Println("\nNo single installation crossed the threshold alone: pooling")
	fmt.Println("observations fleet-wide is what made the Bayesian test converge.")
}

type clientResult struct {
	runs    int
	rounds  int
	version uint64
	patches *patch.Set
	err     error
}

// runClient simulates one installation: run the buggy program a few times,
// stream the accumulated evidence's *delta* to the server, delta-poll for
// patches, repeat until the fleet-derived patch for this installation's
// bug arrives. Uploads use the exactly-once path: one long-lived history
// whose upload watermark cuts each delta, stamped with a content-addressed
// batch ID so a retried upload could never double-count.
func runClient(id int, base string) clientResult {
	c := fleet.NewClient(base, fmt.Sprintf("install-%d", id+1))
	fleetPatches := patch.New()
	var since uint64
	runs := 0

	// Even-numbered installations suffer a buffer overflow, odd-numbered
	// ones a dangling pointer — the fleet pools evidence for both bugs.
	overflowBug := id%2 == 0

	// One history for the whole client lifetime: the watermark tracks how
	// much of it the fleet has acknowledged, so every push carries exactly
	// the evidence recorded since the previous acknowledged one.
	hist := cumulative.NewHistory(cumulative.DefaultConfig())
	for round := 1; round <= maxRounds; round++ {
		for r := 0; r < runsPerBatch; r++ {
			runs++
			seed := uint64(id+1)*1_000_003 + uint64(runs)*2654435761
			if overflowBug {
				h := buggyOverflowRun(seed)
				hist.RecordRun(h, len(h.Scan(false)) > 0)
			} else {
				h, failed := buggyDanglingRun(seed)
				hist.RecordRun(h, failed)
			}
		}
		up := hist.UploadDelta()
		wmRuns, wmObs := hist.UploadedCounts()
		batch := &codec.Batch{
			Snapshot: up,
			BatchID:  codec.BatchID(c.ID(), up.Lineage, wmRuns, wmObs, up),
		}
		if _, err := c.PushBatchContext(context.Background(), batch); err != nil {
			return clientResult{err: fmt.Errorf("upload: %w", err)}
		}
		hist.MarkUploaded(up)
		delta, version, err := c.Patches(since)
		if err != nil {
			return clientResult{err: fmt.Errorf("poll: %w", err)}
		}
		since = version
		fleetPatches.Merge(delta)

		covered := fleetPatches.Pad(overflowSite) >= overflowLen
		if !overflowBug {
			covered = fleetPatches.Deferral(site.Pair{Alloc: dangleAlloc, Free: dangleFree}) > 0
		}
		if covered {
			return clientResult{runs: runs, rounds: round, version: version, patches: fleetPatches}
		}
	}
	return clientResult{err: fmt.Errorf("no covering patch after %d rounds (%d runs)", maxRounds, runs)}
}

// buggyOverflowRun simulates one execution of a program whose allocation
// site overflowSite writes overflowLen bytes past its objects.
func buggyOverflowRun(seed uint64) *diefast.Heap {
	h := diefast.New(diefast.CumulativeConfig(0.5), xrand.New(seed))
	rng := xrand.New(seed ^ 0xabcdef)
	var live []mem.Addr
	for i := 0; i < 400; i++ {
		p, _ := h.Malloc(32, site.ID(0x100+uint32(i%10)))
		live = append(live, p)
		if len(live) > 40 {
			k := rng.Intn(len(live))
			h.Free(live[k], site.ID(0x200+uint32(k%4)))
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if i == 350 {
			bad, _ := h.Malloc(32, overflowSite)
			over := make([]byte, overflowLen)
			for j := range over {
				over[j] = 0xE7
			}
			h.Space().Write(bad+32, over)
		}
	}
	return h
}

// buggyDanglingRun simulates one execution of a program that frees an
// object prematurely and reads through the dangling pointer; the run fails
// exactly when DieFast canaried the freed slot.
func buggyDanglingRun(seed uint64) (h *diefast.Heap, failed bool) {
	h = diefast.New(diefast.CumulativeConfig(0.5), xrand.New(seed))
	rng := xrand.New(seed ^ 0x123457)
	var live []mem.Addr
	var dangled mem.Addr
	for i := 0; i < 300; i++ {
		p, _ := h.Malloc(48, site.ID(0x300+uint32(i%8)))
		live = append(live, p)
		if i == 100 {
			dangled, _ = h.Malloc(48, dangleAlloc)
			h.Free(dangled, dangleFree) // the bug: premature free
		}
		if i == 120 {
			word, fault := h.Space().Read64(dangled)
			if fault == nil && word == h.Canary().Word64() {
				failed = true
			}
		}
		if len(live) > 30 {
			k := rng.Intn(len(live))
			h.Free(live[k], site.ID(0x400+uint32(k%3)))
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	return h, failed
}

func plural(n int) string {
	if n == 1 {
		return "y"
	}
	return "ies"
}
