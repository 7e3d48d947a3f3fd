package engine

import (
	"bytes"
	"context"
	"testing"

	"exterminator/internal/correct"
	"exterminator/internal/diefast"
	"exterminator/internal/inject"
	"exterminator/internal/mutator"
	"exterminator/internal/patch"
	"exterminator/internal/workloads"
	"exterminator/internal/xrand"
)

// runSession drives one session of w to completion in mode, with heap
// seed heapSeed and program seed 0x9106.
func runSession(t *testing.T, w Workload, mode Mode, heapSeed uint64, opts ...Option) *Result {
	t.Helper()
	sess, err := New(w, append([]Option{WithMode(mode), WithSeeds(heapSeed, 0x9106)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestIterativeCleanRun(t *testing.T) {
	res := runSession(t, Batch(espresso()), ModeIterative, 1).Iterative
	if !res.CleanAtStart || res.Corrected || res.GaveUp {
		t.Fatalf("%s", res)
	}
	if res.Patches.Len() != 0 {
		t.Fatal("clean run generated patches")
	}
}

func TestIterativeDanglingWriteCorrection(t *testing.T) {
	// Injected dangling pointers in iterative mode: the paper isolates
	// the error when the program *writes* through the dangling pointer
	// (4/10 runs) and cannot when it only reads (the canary-read
	// crash/abort cases). Either outcome is faithful; what must hold is
	// no wrong patch and, when corrected, a clean verified rerun.
	corrected, gaveUp := 0, 0
	for trial := uint64(1); trial <= 6; trial++ {
		// Each trial is a *different* injected dangling fault (different
		// victim and trigger), as in the paper's 10 distinct faults.
		hookFor := func() mutator.Hook {
			return inject.New(inject.Plan{Kind: inject.Dangling, TriggerAlloc: 300 + trial*150, Seed: trial * 13})
		}
		res := runSession(t, Batch(espresso()), ModeIterative, trial*31, WithHook(hookFor)).Iterative
		switch {
		case res.Corrected:
			corrected++
		case res.GaveUp:
			gaveUp++
		}
	}
	if corrected == 0 && gaveUp == 0 {
		t.Fatal("dangling injection neither corrected nor abandoned in 6 trials")
	}
	t.Logf("dangling iterative: %d corrected, %d gave up (paper: 4/10 vs 6/10)", corrected, gaveUp)
}

func TestIterativeCorrectsRealMinimizer(t *testing.T) {
	// End-to-end on a real algorithm (QM minimizer), not a synthetic
	// profile: inject an overflow, isolate, patch, verify.
	prog, _ := workloads.ByName("espresso-qm", 1)
	hookFor := func() mutator.Hook {
		return inject.New(inject.Plan{Kind: inject.Overflow, TriggerAlloc: 120, Size: 12, Seed: 5})
	}
	for seed := uint64(1); seed <= 8; seed++ {
		res := runSession(t, Batch(prog), ModeIterative, seed*104729, WithHook(hookFor)).Iterative
		if !res.Corrected {
			continue
		}
		if _, clean := Verify(prog, nil, hookFor(), res.Patches, 0xF00D+seed, 0x9106); !clean {
			t.Fatal("patched minimizer still misbehaves")
		}
		return
	}
	t.Fatal("minimizer overflow never corrected across 8 seeds")
}

func TestIterativeCorrectsInjectedUnderflow(t *testing.T) {
	// The §2.1 extension end to end: the paper's §7.2 even describes its
	// overflow experiments as "underflowing objects in the espresso
	// benchmark". Inject a backward overflow, isolate, front-pad, verify.
	hookFor := func() mutator.Hook {
		return inject.New(inject.Plan{Kind: inject.Underflow, TriggerAlloc: 700, Size: 12, Seed: 29})
	}
	for seed := uint64(1); seed <= 8; seed++ {
		res := runSession(t, Batch(espresso()), ModeIterative, seed*15485863, WithHook(hookFor)).Iterative
		if !res.Corrected {
			continue
		}
		if len(res.Patches.FrontPads) == 0 {
			t.Fatalf("corrected without a front pad: %s", res.Patches)
		}
		if _, clean := Verify(espresso(), nil, hookFor(), res.Patches, 0xFACE+seed, 0x9106); !clean {
			t.Fatal("front-padded program still misbehaves")
		}
		return
	}
	t.Fatal("underflow never corrected across 8 seeds")
}

func TestIterativeCorrectsInjectedOverflow(t *testing.T) {
	// The §7.2 experiment: injected overflows, iterative mode. The paper
	// observed 3 images sufficing; we assert correction within the
	// default budget and verify the patched program runs clean.
	for _, size := range []int{4, 20, 36} {
		// A single detection run may miss the overflow when it lands on
		// uncanaried space (the paper ran 10 experiments per size); try a
		// few heap seeds and require at least one full correction.
		corrected := false
		for seed := uint64(0); seed < 5 && !corrected; seed++ {
			res := runSession(t, Batch(espresso()), ModeIterative, uint64(100+size)+seed*977,
				WithHook(overflowHook(size))).Iterative
			if res.CleanAtStart || !res.Corrected {
				continue
			}
			if res.Patches.Len() == 0 {
				t.Fatalf("size %d: corrected without patches?", size)
			}
			// Independent verification on a fresh seed.
			if _, clean := Verify(espresso(), nil, overflowHook(size)(), res.Patches, 0xFEED+seed, 0x9106); !clean {
				t.Fatalf("size %d: patched program still misbehaves", size)
			}
			corrected = true
		}
		if !corrected {
			t.Fatalf("size %d: never corrected across 5 seeds", size)
		}
	}
}

func TestReplicatedHealthyRun(t *testing.T) {
	res := runSession(t, Batch(espresso()), ModeReplicated, 5).Replicated
	if res.ErrorDetected {
		t.Fatalf("healthy run flagged: %s", res.Detection)
	}
	if len(res.Agreed) == 0 {
		t.Fatal("no agreed output")
	}
	for _, o := range res.Outcomes {
		if !o.Completed {
			t.Fatalf("replica outcome: %s", o)
		}
	}
}

func TestReplicatedRealFactorizer(t *testing.T) {
	// The factorizer is deterministic: replicas agree on healthy runs.
	prog, _ := workloads.ByName("cfrac-mp", 1)
	res := runSession(t, Batch(prog), ModeReplicated, 77).Replicated
	if res.ErrorDetected {
		t.Fatalf("healthy factorizer flagged: %s", res.Detection)
	}
	if len(res.Agreed) == 0 {
		t.Fatal("no agreed output")
	}
}

func TestReplicatedDetectsAndCorrectsOverflow(t *testing.T) {
	res := runSession(t, Batch(espresso()), ModeReplicated, 6,
		WithReplicas(4), WithHook(overflowHook(20))).Replicated
	if !res.ErrorDetected {
		t.Fatal("overflow not detected across replicas")
	}
	if res.Patches.Len() == 0 {
		t.Fatalf("no patches from replicated isolation (detection: %s)", res.Detection)
	}
	if !res.Corrected {
		t.Fatalf("patched re-run not clean (detection: %s)", res.Detection)
	}
}

func TestCumulativeIdentifiesInjectedDangling(t *testing.T) {
	// The §7.2 cumulative-mode experiment: injected dangling pointers in
	// espresso, isolated by correlating canary placement with failures.
	// Following the paper's methodology, first search for an injector
	// seed whose fault actually triggers an error, then use that seed
	// deterministically. The trigger sits near the run's end: a premature
	// free close to the object's real lifetime end, so the slot is rarely
	// reused before the program's own accesses — failure then hinges on
	// the canary coin.
	plan, ok := findFailingDanglingPlan(2300, 20)
	if !ok {
		t.Fatal("no injector seed triggers a failure")
	}
	res := runSession(t, Batch(espresso()), ModeCumulative, 7, WithMaxRuns(80),
		WithRunHook(func(int) mutator.Hook { return inject.New(plan) })).Cumulative
	if !res.Identified {
		t.Fatalf("cumulative mode never identified the dangling error: %s", res.History)
	}
	if len(res.Findings.Danglings) == 0 {
		t.Fatalf("findings: %+v", res.Findings)
	}
	t.Logf("identified after %d runs, %d failures (paper: 22–34 runs, ~15 failures)", res.Runs, res.Failures)
}

func TestCumulativeMozilla(t *testing.T) {
	// The Mozilla case study (§7.2): nondeterministic workload, cumulative
	// mode, immediate-trigger scenario.
	moz := workloads.NewMozilla(8)
	res := runSession(t, Batch(moz), ModeCumulative, 8, WithMaxRuns(80), WithVaryProgSeed(true),
		WithInputFunc(func(int) []byte { return workloads.MozillaSession(2, true) })).Cumulative
	if !res.Identified {
		t.Fatalf("mozilla overflow never identified: %s", res.History)
	}
	if len(res.Findings.Overflows) == 0 {
		t.Fatal("no overflow finding")
	}
	t.Logf("mozilla isolated after %d runs (paper: 23 immediate / 34 browse-first)", res.Runs)
}

func TestVerifyDetectsResidualBug(t *testing.T) {
	// Verify must fail when the bug is still present (no patches).
	if _, clean := Verify(espresso(), nil, overflowHook(20)(), nil, 9, 0x9106); clean {
		t.Fatal("Verify passed an unpatched buggy run")
	}
	if out, clean := Verify(espresso(), nil, nil, nil, 9, 0x9106); !clean || !out.Completed {
		t.Fatalf("Verify failed a clean run: %s", out)
	}
}

// TestOnTheFlyPatchReload exercises the paper's deployment story for
// long-running programs (§3.4, §6.3): a server keeps running on one heap;
// an error is isolated out-of-band; the correcting allocator reloads the
// patches without interrupting execution; subsequent allocations are
// fixed in place.
func TestOnTheFlyPatchReload(t *testing.T) {
	squid := workloads.NewSquid()
	hostile := workloads.SquidHostileInput(200, 100)

	// Derive patches out-of-band (the error isolator process).
	var patches *patch.Set
	for seed := uint64(1); seed <= 8; seed++ {
		ir := runSession(t, Batch(squid), ModeIterative, seed*7919, WithInput(hostile)).Iterative
		if ir.Corrected {
			patches = ir.Patches
			break
		}
	}
	if patches == nil {
		t.Fatal("could not derive squid patches")
	}

	// The long-running server: ONE heap and allocator across phases.
	h := diefast.New(diefast.DefaultConfig(), xrand.New(0xBEEF))
	h.OnError = func(diefast.Event) {} // record only
	a := correct.New(h)
	env := mutator.NewEnv(a, h.Space(), xrand.New(4), hostile)

	// Phase 1: unpatched service hits the exploit.
	out1 := mutator.Run(squid, env)
	if !out1.Completed {
		t.Skipf("phase 1 crashed in this layout: %s", out1)
	}
	corrupt1 := len(h.Scan(false))
	if corrupt1 == 0 && len(h.Events()) == 0 {
		t.Skip("exploit left no visible corruption in this layout")
	}
	eventsBefore := len(h.Events())

	// The reload signal: patches applied to the running allocator.
	a.Reload(patches.Clone())

	// Phase 2: same process, same heap, fresh hostile traffic.
	env2 := mutator.NewEnv(a, h.Space(), xrand.New(4), hostile)
	out2 := mutator.Run(squid, env2)
	if !out2.Completed {
		t.Fatalf("patched phase crashed: %s", out2)
	}
	// Phase 2's overflow must be contained: no new DieFast events and no
	// new corrupt slots beyond phase 1's residue (which is bad-isolated
	// and stays visible by design).
	if got := len(h.Events()); got != eventsBefore {
		t.Fatalf("new DieFast events after reload: %d -> %d", eventsBefore, got)
	}
	if got := len(h.Scan(false)); got > corrupt1 {
		t.Fatalf("new corruption after reload: %d -> %d", corrupt1, got)
	}
}

func TestServeHealthyStream(t *testing.T) {
	chunks := workloads.SquidRequestStream(workloads.SquidBenignInput(120))
	res := runSession(t, Stream(workloads.NewSquidStream()), ModeServe, 3, WithChunks(chunks)).Serve
	if len(res.Incidents) != 0 {
		t.Fatalf("healthy stream had incidents: %+v", res.Incidents)
	}
	if res.Crashes != 0 {
		t.Fatalf("crashes: %d", res.Crashes)
	}
	if res.Chunks != len(chunks) {
		t.Fatalf("served %d of %d chunks", res.Chunks, len(chunks))
	}
	for i, out := range res.Outputs {
		if len(out) == 0 {
			t.Fatalf("chunk %d produced no voted output", i)
		}
	}
}

// TestServeShortBenignStream: three replicas serve a short benign stream
// to the end without an incident.
func TestServeShortBenignStream(t *testing.T) {
	chunks := workloads.SquidRequestStream(workloads.SquidBenignInput(40))
	res := runSession(t, Stream(workloads.NewSquidStream()), ModeServe, 44,
		WithReplicas(3), WithChunks(chunks)).Serve
	if res.Chunks != len(chunks) {
		t.Fatalf("served %d of %d", res.Chunks, len(chunks))
	}
	if len(res.Incidents) != 0 {
		t.Fatalf("benign stream had incidents: %+v", res.Incidents)
	}
}

func TestServeSurvivesHostileStreamAndPatchesOnline(t *testing.T) {
	// The Figure 5 story end to end: hostile requests recur throughout
	// the stream; the service must never stop, must isolate the overflow
	// from synchronized live-replica images, reload patches into the
	// running replicas, and keep answering.
	var raw bytes.Buffer
	raw.Write(workloads.SquidHostileInput(60, 30))
	raw.Write(workloads.SquidHostileInput(60, 20)) // second wave, same bug
	raw.Write(workloads.SquidHostileInput(60, 45)) // third wave
	chunks := workloads.SquidRequestStream(raw.Bytes())

	var res *ServeResult
	detected := false
	for seed := uint64(1); seed <= 5 && !detected; seed++ {
		res = runSession(t, Stream(workloads.NewSquidStream()), ModeServe, seed*99991,
			WithReplicas(4), WithChunks(chunks)).Serve
		detected = len(res.Incidents) > 0
	}
	if !detected {
		t.Skip("overflow invisible across 5 service layouts")
	}
	// The service processed the whole stream regardless.
	if res.Chunks != len(chunks) {
		t.Fatalf("service stopped early: %d of %d chunks", res.Chunks, len(chunks))
	}
	t.Logf("%s", res)

	// If a patch was derived, later incidents should not recur for the
	// same site (pads grow monotonically, so at most a couple of rounds).
	if res.Patches.Len() > 0 {
		pad := uint32(0)
		for _, p := range res.Patches.Pads {
			if p > pad {
				pad = p
			}
		}
		if pad < 6 {
			t.Errorf("pad %d does not contain squid's 6-byte overflow", pad)
		}
	}
}

func TestServeRestartsCrashedReplica(t *testing.T) {
	// Force a crash: an underflow at a miniheap's first slot can walk off
	// the mapped region. Use a hostile stream long enough that some
	// layout crashes one replica; the service must restart it and finish.
	var raw bytes.Buffer
	for i := 0; i < 4; i++ {
		raw.Write(workloads.SquidHostileInput(50, 10+i*9))
	}
	chunks := workloads.SquidRequestStream(raw.Bytes())
	for seed := uint64(1); seed <= 10; seed++ {
		res := runSession(t, Stream(workloads.NewSquidStream()), ModeServe, seed*31337,
			WithReplicas(3), WithChunks(chunks)).Serve
		if res.Chunks != len(chunks) {
			t.Fatal("service stopped early")
		}
		if res.Crashes == 0 {
			continue
		}
		for _, inc := range res.Incidents {
			if len(inc.Restarted) > 0 {
				return // restart recorded in an incident ✓
			}
		}
		t.Fatal("crash absorbed but no restart recorded")
	}
	t.Skip("no replica crash across 10 layouts (overflow never walked off a miniheap)")
}

func TestServeResultString(t *testing.T) {
	res := runSession(t, Stream(workloads.NewSquidStream()), ModeServe, 1).Serve
	if res.String() == "" {
		t.Fatal("empty string")
	}
}

// divergentService exposes heap addresses in its output — the class of
// bug (address-dependent behaviour) that only the voter catches.
type divergentService struct{}

func (divergentService) Name() string { return "divergent" }
func (divergentService) NewSession(e *mutator.Env) mutator.Session {
	return &divergentSession{e: e}
}

type divergentSession struct {
	e *mutator.Env
	n int
}

func (s *divergentSession) Step(chunk []byte) {
	p := s.e.Malloc(32)
	s.n++
	if s.n == 5 {
		// The bug: output depends on the heap address.
		s.e.Printf("result %d\n", p%97)
	} else {
		s.e.Printf("result %d\n", s.n)
	}
	s.e.Free(p)
}

func TestServeDetectsOutputDivergence(t *testing.T) {
	chunks := make([][]byte, 10)
	for i := range chunks {
		chunks[i] = []byte("x")
	}
	res := runSession(t, Stream(divergentService{}), ModeServe, 5, WithReplicas(3), WithChunks(chunks)).Serve
	if len(res.Incidents) == 0 {
		t.Fatal("address-dependent output not flagged")
	}
	if res.Incidents[0].Detection != "output divergence" {
		t.Fatalf("detection = %q", res.Incidents[0].Detection)
	}
	if res.Incidents[0].Chunk != 4 {
		t.Fatalf("flagged chunk %d, want 4", res.Incidents[0].Chunk)
	}
	// The voter still emitted SOME plurality output for every chunk.
	if res.Chunks != 10 {
		t.Fatal("service stopped")
	}
}
