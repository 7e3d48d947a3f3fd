// Package main's bench harness: one testing.B benchmark per table and
// figure of the paper's evaluation (see DESIGN.md §3 for the index), plus
// ablation benches for the design decisions DESIGN.md §4 calls out.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Regenerate a single artifact with full output:
//
//	go run ./cmd/paperrepro -exp fig7
package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"exterminator/internal/cluster"
	"exterminator/internal/correct"
	"exterminator/internal/cumulative"
	"exterminator/internal/diefast"
	"exterminator/internal/engine"
	"exterminator/internal/experiments"
	"exterminator/internal/fleet"
	"exterminator/internal/fleet/codec"
	"exterminator/internal/freelist"
	"exterminator/internal/inject"
	"exterminator/internal/mem"
	"exterminator/internal/mutator"
	"exterminator/internal/patch"
	"exterminator/internal/site"
	"exterminator/internal/triage"
	"exterminator/internal/workloads"
	"exterminator/internal/xrand"
)

// ---------------------------------------------------------------------
// Table 1: error-handling matrix
// ---------------------------------------------------------------------

func BenchmarkTable1ErrorMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Table1(uint64(i + 1))
		if len(res.RowsData) != 5 {
			b.Fatal("table 1 incomplete")
		}
	}
}

// ---------------------------------------------------------------------
// Figure 7: runtime overhead, per benchmark group
// ---------------------------------------------------------------------

// benchWorkload times one workload under one allocator stack.
func benchWorkload(b *testing.B, prog mutator.Program, exterminator bool) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		seed := uint64(i + 1)
		var out *mutator.Outcome
		if exterminator {
			h := diefast.New(diefast.DefaultConfig(), xrand.New(seed))
			h.OnError = func(diefast.Event) {}
			a := correct.New(h)
			e := mutator.NewEnv(a, h.Space(), xrand.New(7), nil)
			out = mutator.Run(prog, e)
		} else {
			rng := xrand.New(seed)
			fl := freelist.New(mem.NewSpace(rng.Split()), rng.Split())
			e := mutator.NewEnv(fl, fl.Space(), xrand.New(7), nil)
			e.NoSites = true
			out = mutator.Run(prog, e)
		}
		if !out.Completed {
			b.Fatalf("workload failed: %s", out)
		}
	}
}

func BenchmarkFig7Espresso_Baseline(b *testing.B) {
	p, _ := workloads.ByName("espresso", 1)
	benchWorkload(b, p, false)
}

func BenchmarkFig7Espresso_Exterminator(b *testing.B) {
	p, _ := workloads.ByName("espresso", 1)
	benchWorkload(b, p, true)
}

func BenchmarkFig7Cfrac_Baseline(b *testing.B) {
	p, _ := workloads.ByName("cfrac", 1)
	benchWorkload(b, p, false)
}

func BenchmarkFig7Cfrac_Exterminator(b *testing.B) {
	p, _ := workloads.ByName("cfrac", 1)
	benchWorkload(b, p, true)
}

func BenchmarkFig7Crafty_Baseline(b *testing.B) {
	p, _ := workloads.ByName("crafty", 1)
	benchWorkload(b, p, false)
}

func BenchmarkFig7Crafty_Exterminator(b *testing.B) {
	p, _ := workloads.ByName("crafty", 1)
	benchWorkload(b, p, true)
}

func BenchmarkFig7Gcc_Baseline(b *testing.B) {
	p, _ := workloads.ByName("gcc", 1)
	benchWorkload(b, p, false)
}

func BenchmarkFig7Gcc_Exterminator(b *testing.B) {
	p, _ := workloads.ByName("gcc", 1)
	benchWorkload(b, p, true)
}

// BenchmarkFig7FullSweep regenerates the entire figure (all 16 bars plus
// the geometric means) once per iteration.
func BenchmarkFig7FullSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig7(1, uint64(i+1))
		if res.GeoMeanAll <= 0 {
			b.Fatal("empty sweep")
		}
	}
}

// ---------------------------------------------------------------------
// §7.2 injected faults
// ---------------------------------------------------------------------

func BenchmarkInjectedOverflows(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.InjectedOverflows(2, uint64(i+1))
		if d, _ := res.CorrectionRate(); d == 0 {
			b.Fatal("nothing detected")
		}
	}
}

func BenchmarkInjectedDanglingIterative(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.InjectedDanglingIterative(3, uint64(i+1))
	}
}

func BenchmarkCumulativeDangling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.InjectedDanglingCumulative(1, uint64(i+1))
	}
}

// ---------------------------------------------------------------------
// §7.2 case studies
// ---------------------------------------------------------------------

func BenchmarkSquidCaseStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Squid(3, uint64(i+19))
		if !res.Detected {
			b.Skip("layout hid the overflow in this iteration")
		}
	}
}

func BenchmarkMozillaCaseStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Mozilla(uint64(i + 23))
		if !res.Immediate.Identified {
			b.Fatal("immediate scenario failed")
		}
	}
}

// ---------------------------------------------------------------------
// §7.3 / §6.4 patch overhead and size
// ---------------------------------------------------------------------

func BenchmarkPatchOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.PatchCost(uint64(i + 29))
	}
}

func BenchmarkPatchSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.PatchSize(uint64(i + 31))
		if res.GzipBytes == 0 {
			b.Fatal("empty patch file")
		}
	}
}

// ---------------------------------------------------------------------
// Theorems 1–3
// ---------------------------------------------------------------------

func BenchmarkTheorem1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Theorem1(50000, uint64(i+37))
	}
}

func BenchmarkTheorem2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Theorem2(200, uint64(i+41))
	}
}

func BenchmarkTheorem3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Theorem3(500, uint64(i+43))
	}
}

// ---------------------------------------------------------------------
// Ablations (DESIGN.md §4)
// ---------------------------------------------------------------------

// Ablation 2: canary fill probability p. Sweeps the §5.2 tradeoff: the
// cost of DieFast free paths as p rises.
func benchFillProb(b *testing.B, p float64) {
	h := diefast.New(diefast.CumulativeConfig(p), xrand.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ptr, _ := h.Malloc(64, 0)
		h.Free(ptr, 0)
	}
}

func BenchmarkAblationFillP10(b *testing.B) { benchFillProb(b, 0.10) }
func BenchmarkAblationFillP50(b *testing.B) { benchFillProb(b, 0.50) }
func BenchmarkAblationFillP90(b *testing.B) { benchFillProb(b, 0.90) }

// Ablation 3: heap multiplier M. Higher M = more over-provisioning =
// fewer probe collisions but more mapped memory.
func benchMultiplier(b *testing.B, m float64) {
	cfg := diefast.DefaultConfig()
	cfg.Diehard.M = m
	h := diefast.New(cfg, xrand.New(1))
	var live []mem.Addr
	rng := xrand.New(9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(live) > 128 {
			k := rng.Intn(len(live))
			h.Free(live[k], 0)
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		p, _ := h.Malloc(48, 0)
		live = append(live, p)
	}
}

func BenchmarkAblationM15(b *testing.B) { benchMultiplier(b, 1.5) }
func BenchmarkAblationM20(b *testing.B) { benchMultiplier(b, 2.0) }
func BenchmarkAblationM40(b *testing.B) { benchMultiplier(b, 4.0) }

// Ablation 4: deferral deduction — the 2(T−τ)+1 doubling rule converges
// in logarithmically many executions; a constant deferral does not. The
// bench measures iterations-to-correction for an injected dangling error.
func BenchmarkAblationDeferralDoubling(b *testing.B) {
	prog, _ := workloads.ByName("espresso", 1)
	for i := 0; i < b.N; i++ {
		hookFor := func() mutator.Hook {
			return inject.New(inject.Plan{Kind: inject.Dangling, TriggerAlloc: 2300, Seed: uint64(i + 3)})
		}
		runSession(b, engine.Batch(prog), uint64(i+1), engine.WithHook(hookFor), engine.WithMaxIterations(4))
	}
}

// Ablation 5: isolation cost with and without the §4.1 word filters is
// covered in internal/isolate benches; here the end-to-end cost of a
// three-image analysis round.
func BenchmarkIsolationRound(b *testing.B) {
	prog, _ := workloads.ByName("espresso", 1)
	hookFor := func() mutator.Hook {
		return inject.New(inject.Plan{Kind: inject.Overflow, TriggerAlloc: 700, Size: 20, Seed: 17})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runSession(b, engine.Batch(prog), uint64(i+1), engine.WithHook(hookFor), engine.WithMaxIterations(1))
	}
}

// ---------------------------------------------------------------------
// Real-algorithm workloads (QM minimizer, multi-precision factorizer)
// ---------------------------------------------------------------------

func BenchmarkRealMinimizer_Baseline(b *testing.B) {
	p, _ := workloads.ByName("espresso-qm", 1)
	benchWorkload(b, p, false)
}

func BenchmarkRealMinimizer_Exterminator(b *testing.B) {
	p, _ := workloads.ByName("espresso-qm", 1)
	benchWorkload(b, p, true)
}

func BenchmarkRealFactorizer_Baseline(b *testing.B) {
	p, _ := workloads.ByName("cfrac-mp", 1)
	benchWorkload(b, p, false)
}

func BenchmarkRealFactorizer_Exterminator(b *testing.B) {
	p, _ := workloads.ByName("cfrac-mp", 1)
	benchWorkload(b, p, true)
}

// Ablation (DESIGN.md §4.3 continued): end-to-end M sweep via the
// experiment driver.
func BenchmarkAblationMSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AblationM(3, uint64(i+1))
	}
}

// benchIngestBatch builds the realistic upload batch the ingest benches
// share: ~30 sites of overflow evidence, a handful of dangling pairs,
// hints — a few KB, like one installation's session (§3.4: "a few
// kilobytes per execution").
func benchIngestBatch() *codec.Batch {
	snap := &cumulative.Snapshot{C: 4, P: 0.5, Runs: 5, FailedRuns: 2, CorruptRuns: 2}
	for i := 0; i < 30; i++ {
		id := site.ID(0x1000 + uint32(i))
		snap.Sites = append(snap.Sites, id)
		snap.Overflow = append(snap.Overflow, cumulative.SiteObservations{
			Site: id,
			Obs: []cumulative.Observation{
				{X: 0.25, Y: i%7 == 0}, {X: 0.5, Y: i%2 == 0}, {X: 0.125, Y: false},
			},
		})
	}
	for i := 0; i < 6; i++ {
		snap.Dangling = append(snap.Dangling, cumulative.PairObservations{
			Alloc: site.ID(0x2000 + uint32(i)), Free: site.ID(0x3000 + uint32(i)),
			Obs: []cumulative.Observation{{X: 0.5, Y: i%2 == 0}, {X: 0.75, Y: true}},
		})
	}
	snap.PadHints = append(snap.PadHints, cumulative.PadHint{Site: 0x1003, Pad: 24})
	return &codec.Batch{Client: "bench", Snapshot: snap}
}

// benchIngestFrame encodes the shared batch as an upload frame whose
// batch ID ends in a 16-hex-digit counter, and returns a function that
// rewrites that counter in place (no allocation): a benchmark restamps
// each delivery so every one is absorbed, not acknowledged as a
// duplicate of the first.
func benchIngestFrame(b *testing.B) (frame []byte, restamp func(frame []byte, n uint64)) {
	const id = "bench-0000000000000000"
	batch := benchIngestBatch()
	batch.BatchID = id
	frame = codec.EncodeBatch(&codec.Buffer{}, batch)
	at := bytes.Index(frame, []byte(id))
	if at < 0 {
		b.Fatal("batch ID not found in the frame")
	}
	at += len(id) - 16
	return frame, func(frame []byte, n uint64) {
		var v [8]byte
		binary.BigEndian.PutUint64(v[:], n)
		hex.Encode(frame[at:at+16], v[:])
	}
}

// Fleet aggregation: batched observation ingest through the HTTP handler
// (POST /v1/observations), the hot path of the networked cumulative mode.
// Inline correction is disabled so the measurement isolates decode,
// dedup admission and sharded absorb; the Bayesian pass runs on the
// background loop in deployment.
func BenchmarkFleetIngest(b *testing.B) {
	body, restamp := benchIngestFrame(b)
	b.Run("v2", func(b *testing.B) {
		srv := fleet.NewServer(fleet.ServerOptions{CorrectEvery: -1})
		handler := srv.Handler()
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			restamp(body, uint64(i))
			req := httptest.NewRequest(http.MethodPost, "/v1/observations", bytes.NewReader(body))
			req.Header.Set("Content-Type", codec.ContentTypeV2)
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("ingest failed: %s: %s", rec.Result().Status, rec.Body)
			}
		}
	})
}

// Saturation: aggregate observations/sec one partition sustains when
// GOMAXPROCS concurrent installations hammer the ingest handler
// in-process — the fleet-scale number the binary wire exists to move
// (the ingest path must cost near-zero per observation).
func BenchmarkFleetSaturation(b *testing.B) {
	batch := benchIngestBatch()
	nObs := 0
	for _, so := range batch.Snapshot.Overflow {
		nObs += len(so.Obs)
	}
	for _, po := range batch.Snapshot.Dangling {
		nObs += len(po.Obs)
	}
	frame, restamp := benchIngestFrame(b)
	b.Run("v2", func(b *testing.B) {
		srv := fleet.NewServer(fleet.ServerOptions{CorrectEvery: -1})
		handler := srv.Handler()
		var deliveries atomic.Uint64
		b.ReportAllocs()
		b.SetBytes(int64(len(frame)))
		b.ResetTimer()
		start := time.Now()
		b.RunParallel(func(pb *testing.PB) {
			body := append([]byte(nil), frame...)
			for pb.Next() {
				restamp(body, deliveries.Add(1))
				req := httptest.NewRequest(http.MethodPost, "/v1/observations", bytes.NewReader(body))
				req.Header.Set("Content-Type", codec.ContentTypeV2)
				rec := httptest.NewRecorder()
				handler.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("ingest failed: %s: %s", rec.Result().Status, rec.Body)
				}
			}
		})
		b.ReportMetric(float64(b.N*nObs)/time.Since(start).Seconds(), "obs/sec")
	})
}

// Codec microbenches: the cost of producing and parsing one v2 batch
// frame in isolation (no HTTP, no store) — the per-upload CPU a client
// pays to encode and a partition pays to decode.
func BenchmarkWireEncodeV2(b *testing.B) {
	batch := benchIngestBatch()
	frame := codec.EncodeBatch(&codec.Buffer{}, batch)
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := codec.GetBuffer()
		codec.EncodeBatch(buf, batch)
		codec.PutBuffer(buf)
	}
}

func BenchmarkWireDecodeV2(b *testing.B) {
	frame := codec.EncodeBatch(&codec.Buffer{}, benchIngestBatch())
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.DecodeBatch(frame); err != nil {
			b.Fatal(err)
		}
	}
}

// Incremental Bayesian recompute: Identify on a large, mostly-clean
// history. Each iteration dirties ONE site with a new observation and
// rescores. The incremental path recomputes only that site's Bayes
// factor (cached factors cover the other ~2000), while the full-rescore
// reference rescores every key — the O(sites) per correction pass the
// cluster tier's hot path eliminates:
//
//	go test -bench BenchmarkIncrementalIdentify -benchtime 20x
func BenchmarkIncrementalIdentify(b *testing.B) {
	const nSites = 2000
	build := func() *cumulative.History {
		hist := cumulative.NewHistory(cumulative.DefaultConfig())
		snap := &cumulative.Snapshot{C: 4, P: 0.5, Runs: 500, CorruptRuns: 100}
		for i := 0; i < nSites; i++ {
			id := site.ID(0x10000 + uint32(i))
			snap.Sites = append(snap.Sites, id)
			so := cumulative.SiteObservations{Site: id}
			for j := 0; j < 16; j++ {
				x := 0.05 + float64((i*31+j*17)%90)/100
				so.Obs = append(so.Obs, cumulative.Observation{X: x, Y: (i*7+j*13)%97 < int(100*x)})
			}
			snap.Overflow = append(snap.Overflow, so)
		}
		hist.Absorb(snap)
		hist.Identify() // warm the factor cache
		return hist
	}
	touch := func(hist *cumulative.History, i int) {
		hist.Absorb(&cumulative.Snapshot{C: 4, P: 0.5, Overflow: []cumulative.SiteObservations{{
			Site: site.ID(0x10000 + uint32(i%nSites)),
			Obs:  []cumulative.Observation{{X: 0.5, Y: i%2 == 0}},
		}}})
	}
	b.Run("incremental", func(b *testing.B) {
		hist := build()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			touch(hist, i)
			hist.Identify()
		}
	})
	b.Run("full", func(b *testing.B) {
		hist := build()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			touch(hist, i)
			hist.IdentifyFull()
		}
	})
}

// The §5.1 Bayes factor of one key, in the four regimes the fleet
// scores: small fleet-ingest keys (n = 8, 64) and a large one (n = 5,000)
// with X drawn from [0.02, 0.62] as the benchmark's generator does, and a
// session-sized key (n = 864) at X ≈ 1. Y follows chance (Y = 1 with
// probability X), so every key is innocent.
func BenchmarkBayesFactor(b *testing.B) {
	for _, c := range []struct {
		name   string
		n      int
		lo, hi float64
	}{
		{"n=8", 8, 0.02, 0.62},
		{"n=64", 64, 0.02, 0.62},
		{"n=864_X~1", 864, 0.95, 1},
		{"n=5000", 5000, 0.02, 0.62},
	} {
		rng := xrand.New(uint64(c.n))
		obs := make([]cumulative.Observation, c.n)
		for i := range obs {
			x := c.lo + (c.hi-c.lo)*rng.Float64()
			obs[i] = cumulative.Observation{X: x, Y: rng.Bool(x)}
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				cumulative.BayesFactor(obs)
			}
		})
	}
}

// Cluster routing: splitting one realistic observation batch across an
// 8-partition consistent-hash ring and encoding each piece for the wire
// — the per-upload CPU cost the cluster-aware client adds over a
// single-server push.
func BenchmarkClusterRoute(b *testing.B) {
	ring := cluster.NewRing(0,
		"http://p1:7077", "http://p2:7077", "http://p3:7077", "http://p4:7077",
		"http://p5:7077", "http://p6:7077", "http://p7:7077", "http://p8:7077")
	snap := &cumulative.Snapshot{C: 4, P: 0.5, Runs: 5, FailedRuns: 2, CorruptRuns: 2}
	for i := 0; i < 60; i++ {
		id := site.ID(0x1000 + uint32(i)*2654435761)
		snap.Sites = append(snap.Sites, id)
		snap.Overflow = append(snap.Overflow, cumulative.SiteObservations{
			Site: id,
			Obs:  []cumulative.Observation{{X: 0.25, Y: i%7 == 0}, {X: 0.5, Y: i%2 == 0}},
		})
	}
	for i := 0; i < 12; i++ {
		snap.Dangling = append(snap.Dangling, cumulative.PairObservations{
			Alloc: site.ID(0x2000 + uint32(i)), Free: site.ID(0x3000 + uint32(i)),
			Obs: []cumulative.Observation{{X: 0.5, Y: i%2 == 0}},
		})
	}
	snap.PadHints = append(snap.PadHints, cumulative.PadHint{Site: snap.Sites[3], Pad: 24})
	b.Run("v2", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			parts := cluster.SplitSnapshot(ring, snap)
			if len(parts) < 2 {
				b.Fatal("batch not split")
			}
			for _, part := range parts {
				buf := codec.GetBuffer()
				codec.EncodeBatch(buf, &codec.Batch{Client: "bench", Snapshot: part, RingVersion: 1})
				codec.PutBuffer(buf)
			}
		}
	})
}

// Live ring rebalancing: moved-keys throughput of a 3→4 node resize
// (drain over POST /v1/evict, backfill through the exactly-once batch
// path, mirrors caught up) followed by the 4→3 shrink that drains the
// node back out — one full grow/shrink cycle per iteration:
//
//	go test -bench BenchmarkRebalance -benchtime 5x
func BenchmarkRebalance(b *testing.B) {
	ctx := context.Background()
	cfg := cumulative.DefaultConfig()
	var partURLs []string
	for i := 0; i < 4; i++ {
		srv := fleet.NewServer(fleet.ServerOptions{Config: cfg, CorrectEvery: -1, DisableCorrection: true})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		partURLs = append(partURLs, ts.URL)
	}
	base, spare := partURLs[:3], partURLs[3]
	coord, err := cluster.NewCoordinator(cluster.CoordinatorOptions{
		Partitions:       base,
		Config:           cfg,
		RebalanceJournal: filepath.Join(b.TempDir(), "rebalance.journal"),
	})
	if err != nil {
		b.Fatal(err)
	}
	router, err := cluster.NewRouter("bench", base...)
	if err != nil {
		b.Fatal(err)
	}
	// Seed a realistic evidence pool: a few hundred keys spread across
	// the ring.
	for batch := 0; batch < 20; batch++ {
		snap := &cumulative.Snapshot{C: 4, P: 0.5, Runs: 3, FailedRuns: 1, CorruptRuns: 1}
		for i := 0; i < 40; i++ {
			id := site.ID(0x1000 + uint32(batch*40+i)*2654435761)
			snap.Sites = append(snap.Sites, id)
			snap.Overflow = append(snap.Overflow, cumulative.SiteObservations{
				Site: id,
				Obs:  []cumulative.Observation{{X: 0.25, Y: i%5 == 0}, {X: 0.5, Y: i%2 == 0}},
			})
		}
		pieces, err := router.SplitBatch(0, 0, snap)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pieces {
			if _, err := router.PushPiece(ctx, p); err != nil {
				b.Fatal(err)
			}
		}
	}
	if _, err := coord.Sync(ctx); err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	moved := 0
	for i := 0; i < b.N; i++ {
		grow, err := coord.AddNode(ctx, spare)
		if err != nil {
			b.Fatal(err)
		}
		shrink, err := coord.RemoveNode(ctx, spare)
		if err != nil {
			b.Fatal(err)
		}
		if grow.MovedKeys == 0 || shrink.MovedKeys == 0 {
			b.Fatalf("resize moved nothing: grow %d, shrink %d", grow.MovedKeys, shrink.MovedKeys)
		}
		moved += grow.MovedKeys + shrink.MovedKeys
	}
	b.ReportMetric(float64(moved)/float64(b.N), "movedKeys/op")
}

// ---------------------------------------------------------------------
// Engine: cumulative worker pool (WithParallelism) vs serial
// ---------------------------------------------------------------------

// latentProgram models a real cumulative-mode execution: some CPU-bound
// allocation work plus wall-clock latency that is NOT compute (a browser
// waiting on the network, a service waiting on requests — the §7.2
// Mozilla runs were dominated by exactly this). The worker pool overlaps
// the latency across runs, so parallel cumulative sessions finish in a
// fraction of the serial wall-clock even on a single core; the espresso
// variant below adds the multi-core CPU overlap on top.
type latentProgram struct{ wait time.Duration }

func (latentProgram) Name() string { return "latent" }

func (p latentProgram) Run(e *mutator.Env) {
	var live []mutator.Ptr
	for i := 0; i < 200; i++ {
		q := e.Malloc(32 + i%64)
		live = append(live, q)
		if len(live) > 24 {
			e.Free(live[0])
			live = live[1:]
		}
	}
	time.Sleep(p.wait) // the run's non-CPU latency
	for _, q := range live {
		e.Free(q)
	}
}

// runSession drives one engine session of w to completion with heap seed
// heapSeed and program seed 0x9106.
func runSession(b *testing.B, w engine.Workload, heapSeed uint64, opts ...engine.Option) *engine.Result {
	sess, err := engine.New(w, append(opts, engine.WithSeeds(heapSeed, 0x9106))...)
	if err != nil {
		b.Fatal(err)
	}
	res, err := sess.Run(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func benchCumulative(b *testing.B, prog mutator.Program, parallelism int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := runSession(b, engine.Batch(prog), uint64(i+1),
			engine.WithMode(engine.ModeCumulative),
			engine.WithMaxRuns(12),
			engine.WithParallelism(parallelism))
		if res.Cumulative.Runs != 12 {
			b.Fatalf("session recorded %d runs, want 12", res.Cumulative.Runs)
		}
	}
}

// BenchmarkCumulative compares serial cumulative sessions against the
// WithParallelism(4) worker pool:
//
//	go test -bench 'BenchmarkCumulative' -benchtime 5x
func BenchmarkCumulative(b *testing.B) {
	espresso, _ := workloads.ByName("espresso", 1)
	latent := latentProgram{wait: 2 * time.Millisecond}
	b.Run("espresso/serial", func(b *testing.B) { benchCumulative(b, espresso, 1) })
	b.Run("espresso/parallel4", func(b *testing.B) { benchCumulative(b, espresso, 4) })
	b.Run("latent/serial", func(b *testing.B) { benchCumulative(b, latent, 1) })
	b.Run("latent/parallel4", func(b *testing.B) { benchCumulative(b, latent, 4) })
}

// Figure 5 as a running system: replicated service throughput with
// per-chunk voting (healthy stream).
func BenchmarkServeHealthyStream(b *testing.B) {
	chunks := workloads.SquidRequestStream(workloads.SquidBenignInput(60))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := runSession(b, engine.Stream(workloads.NewSquidStream()), uint64(i+1),
			engine.WithMode(engine.ModeServe), engine.WithChunks(chunks)).Serve
		if len(res.Incidents) != 0 {
			b.Fatal("benign stream had incidents")
		}
	}
}

// BenchmarkTriage: triage passes over a fleet-scale candidate set —
// 10k overflow sites (stack-clustered in groups of 8) plus 1k dangling
// pairs, ~1500 clusters — after one set-up pass that saw them all.
//
//	full   every candidate changed and carried, Full set: the pass after
//	       a coordinator rebuilds its merged history
//	clean  nothing changed: the pass costs nothing per cluster
//	dirty  1 % of the candidates changed: a steady-state coordinator pass
func BenchmarkTriage(b *testing.B) {
	setup := func(b *testing.B) (*triage.Engine, []triage.PassInput) {
		eng := triage.New(triage.Config{})
		var overs, dangs []cumulative.Candidate
		for i := 0; i < 10000; i++ {
			id := site.ID(0x10000 + uint32(i))
			// Eight sites share each innermost suffix: realistic many-paths-
			// one-defect clustering, ~1250 overflow clusters.
			eng.RecordFrames(id, []uint64{uint64(i), uint64(i / 8), 0xAA, 0xBB})
			overs = append(overs, cumulative.Candidate{
				Site: id, Bayes: 1 + float64(i%97), Obs: 1 + i%5,
			})
		}
		for i := 0; i < 1000; i++ {
			dangs = append(dangs, cumulative.Candidate{
				Pair:  site.Pair{Alloc: site.ID(0x40000 + uint32(i%250)), Free: site.ID(0x50000 + uint32(i))},
				Bayes: 1 + float64(i%31), Obs: 1 + i%3,
			})
		}
		ps := patch.New()
		for i := 0; i < 100; i++ {
			ps.AddPad(site.ID(0x10000+uint32(i)), 8)
		}
		eng.Pass(triage.PassInput{Overflows: overs, Danglings: dangs, Patches: ps, Threshold: 50, Full: true})
		if eng.Clusters() == 0 {
			b.Fatal("no clusters formed")
		}
		// Two variants of every candidate, so consecutive passes change
		// the scores they carry.
		variants := make([]triage.PassInput, 2)
		for v := range variants {
			in := triage.PassInput{Threshold: 50, Full: true}
			for _, c := range overs {
				c.Bayes += float64(v+1) / 4
				in.Overflows = append(in.Overflows, c)
			}
			for _, c := range dangs {
				c.Bayes += float64(v+1) / 4
				in.Danglings = append(in.Danglings, c)
			}
			variants[v] = in
		}
		return eng, variants
	}
	b.Run("full", func(b *testing.B) {
		eng, variants := setup(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.Pass(variants[i%2])
		}
		// A full pass is the one that drops members; it must not drop
		// any of these.
		if eng.Clusters() == 0 {
			b.Fatal("no clusters left after full passes")
		}
	})
	b.Run("clean", func(b *testing.B) {
		eng, _ := setup(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.Pass(triage.PassInput{Threshold: 50})
		}
	})
	b.Run("dirty", func(b *testing.B) {
		eng, variants := setup(b)
		// 100 overflow and 10 dangling candidates per pass, a different
		// slice each time; a slice's next visit carries the other variant.
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v := variants[(i/100)%2]
			o, d := (i*100)%len(v.Overflows), (i*10)%len(v.Danglings)
			eng.Pass(triage.PassInput{
				Overflows: v.Overflows[o : o+100],
				Danglings: v.Danglings[d : d+10],
				Threshold: 50,
			})
		}
	})
}

// Read-replica patch fan-out: what one replica can absorb from a patch
// polling fleet, cached (If-None-Match revalidation answered 304 with
// no body) versus uncached (full patch-set body on every poll). The
// cached/uncached gap is the reason the replica tier exists:
//
//	go test -bench BenchmarkReplicaPatchFanout -benchtime 100x
func BenchmarkReplicaPatchFanout(b *testing.B) {
	ctx := context.Background()
	cfg := cumulative.DefaultConfig()
	part := fleet.NewServer(fleet.ServerOptions{Config: cfg, CorrectEvery: -1})
	partTS := httptest.NewServer(part.Handler())
	defer partTS.Close()

	// Seed enough indicted sites for a realistically sized patch set.
	snap := &cumulative.Snapshot{C: cfg.C, P: cfg.P, Runs: 40, FailedRuns: 30, CorruptRuns: 30}
	for i := 0; i < 200; i++ {
		id := site.ID(0x9000 + uint32(i))
		snap.Sites = append(snap.Sites, id)
		obs := make([]cumulative.Observation, 0, 8)
		for j := 0; j < 8; j++ {
			obs = append(obs, cumulative.Observation{X: 0.1 + float64(j)*0.05, Y: true})
		}
		snap.Overflow = append(snap.Overflow, cumulative.SiteObservations{Site: id, Obs: obs})
		snap.PadHints = append(snap.PadHints, cumulative.PadHint{Site: id, Pad: 16})
	}
	if _, err := fleet.NewClient(partTS.URL, "bench").PushBatchContext(ctx, &codec.Batch{
		Snapshot: snap,
		BatchID:  codec.BatchID("bench", 1, 0, 0, snap),
	}); err != nil {
		b.Fatal(err)
	}
	coord, err := cluster.NewCoordinator(cluster.CoordinatorOptions{
		Partitions: []string{partTS.URL}, Config: cfg,
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := coord.Sync(ctx); err != nil {
		b.Fatal(err)
	}
	coordTS := httptest.NewServer(coord.Handler())
	defer coordTS.Close()

	rep, err := cluster.NewReplica(cluster.ReplicaOptions{Upstreams: []string{coordTS.URL}})
	if err != nil {
		b.Fatal(err)
	}
	if err := rep.PollOnce(ctx); err != nil {
		b.Fatal(err)
	}
	repTS := httptest.NewServer(rep.Handler())
	defer repTS.Close()
	st := rep.Status()
	etag := fleet.PatchETag(st.ReplicaEpoch, st.ReplicaVersion)
	hc := repTS.Client()

	poll := func(b *testing.B, validator string, wantStatus int) {
		b.Helper()
		req, err := http.NewRequest(http.MethodGet, repTS.URL+"/v1/patches?since=0", nil)
		if err != nil {
			b.Fatal(err)
		}
		if validator != "" {
			req.Header.Set("If-None-Match", validator)
		}
		resp, err := hc.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		n, _ := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != wantStatus {
			b.Fatalf("status %d, want %d", resp.StatusCode, wantStatus)
		}
		b.SetBytes(n)
	}
	b.Run("cached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			poll(b, etag, http.StatusNotModified)
		}
	})
	b.Run("uncached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			poll(b, "", http.StatusOK)
		}
	})
}
