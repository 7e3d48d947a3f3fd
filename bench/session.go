package main

import (
	"context"
	"fmt"
	"time"

	"exterminator/internal/cluster"
	"exterminator/internal/engine"
	"exterminator/internal/inject"
	"exterminator/internal/mutator"
	"exterminator/internal/patch"
	"exterminator/internal/workloads"
)

// The session workload's installation runs espresso with an injected
// dangling-pointer fault known to converge in cumulative mode (allocation
// 2180, victim seed 146): about half the runs fail until the fleet's
// patch for it lands; after that the correcting allocator defers the
// premature free and all but a few percent of runs succeed.
const (
	sessionRuns       = 8
	sessionFlushEvery = 4
	faultTrigger      = 2180
	faultSeed         = 146
	convergeMax       = 20 * time.Second
)

// sinkTimes are one installation's sink call durations (ms). The engine
// calls its sinks from the session's goroutine only (flushes are
// triggered by run count, not by a timer), so they need no lock.
type sinkTimes struct {
	fetch, flush, commit []float64
}

// timedSink is the engine's sink as the benchmark hands it over: it times
// each call into the cluster sink and records a span for it under the
// session's span.
type timedSink struct {
	inner *cluster.Sink
	tr    *tracer
	times *sinkTimes
}

func (s *timedSink) SinkName() string { return s.inner.SinkName() }

func (s *timedSink) call(ctx context.Context, name string, into *[]float64, f func(context.Context) error) error {
	sp := s.tr.begin(spanFrom(ctx), name)
	t := time.Now()
	err := f(withSpan(ctx, sp))
	*into = append(*into, ms(time.Since(t)))
	sp.end()
	return err
}

func (s *timedSink) FetchPatches(ctx context.Context) (*patch.Set, error) {
	var ps *patch.Set
	err := s.call(ctx, "engine.fetch", &s.times.fetch, func(ctx context.Context) error {
		var err error
		ps, err = s.inner.FetchPatches(ctx)
		return err
	})
	return ps, err
}

func (s *timedSink) FlushEvidence(ctx context.Context, ev *engine.Evidence) error {
	return s.call(ctx, "engine.flush", &s.times.flush, func(ctx context.Context) error {
		return s.inner.FlushEvidence(ctx, ev)
	})
}

func (s *timedSink) Commit(ctx context.Context, ev *engine.Evidence) error {
	return s.call(ctx, "engine.commit", &s.times.commit, func(ctx context.Context) error {
		return s.inner.Commit(ctx, ev)
	})
}

// runClock turns a session's event stream into per-run wall times: each
// run is timed from the previous RunStarted or Progress event to its own
// Progress event, so evidence recording and the flush after every fourth
// run fall inside the run that follows them.
type runClock struct {
	last time.Time
	runs []float64
}

func (c *runClock) Observe(ev engine.Event) {
	now := time.Now()
	switch ev.(type) {
	case engine.RunStarted:
		c.last = now
	case engine.Progress:
		c.runs = append(c.runs, ms(now.Sub(c.last)))
		c.last = now
	}
}

// installation is the simulated deployment running sessions back to back.
// One installation leaves a core for the fleet tiers and the GC, so a
// run's time measures the run rather than the scheduler: with two
// installations saturating both cores of the reference machine, run
// latency on one seed varied about twice as much between runs.
type installation struct {
	coord      string
	partitions []string
	times      sinkTimes
	sessions   int
	// Run outcomes, for the engine metrics and the exactly-once check.
	runs, failedRuns     int
	runMs                []float64
	baseMs               []float64
	ratios               []float64 // each run over its session's baseline run
	work                 meter     // the recorded sessions' CPU and allocation
	tracedMs, untracedMs []float64
	sessionMs            []float64
	errs                 []error
}

// session runs cumulative session k: up to sessionRuns runs of the
// faulty espresso on fresh heap seeds, fetching fleet patches first and
// streaming evidence every sessionFlushEvery runs.
//
// Each session uploads under its own client id. That models
// installations as they would behave once batch IDs stop colliding
// across sessions, not what separate invocations of cmd/exterminate do
// today: those take their id from installID, which is -fleet-id or else
// the hostname, so repeated invocations on one host share an id. The
// sinks (fleet.Sink, cluster.Sink) stamp a batch ID from the client id,
// the upload watermark and the piece's content, and a fresh session's
// history starts its watermark at zero, so two sessions of one id whose
// first deltas match (same sites, same counters — every clean run of a
// patched program) collide in the partitions' exactly-once window and
// the second is dropped as a duplicate. With one id the coordinator
// would count a fraction of the runs and runSession's exactly-once
// check would fail.
func (in *installation) session(ctx context.Context, tr *tracer, seed uint64, record bool) error {
	k := in.sessions
	in.sessions++
	prog, ok := workloads.ByName("espresso", 1)
	if !ok {
		return fmt.Errorf("espresso workload missing")
	}
	cs, err := cluster.NewSink(in.coord, fmt.Sprintf("session-%d", k), in.partitions...)
	if err != nil {
		return err
	}
	cs.SetWireV2(true)
	clock := &runClock{}
	sink := &timedSink{inner: cs, tr: tr, times: &in.times}
	sess, err := engine.New(engine.Batch(prog),
		engine.WithMode(engine.ModeCumulative),
		engine.WithSeeds(seed<<32^uint64(k)*104729, 0x9106),
		engine.WithMaxRuns(sessionRuns),
		engine.WithFillProb(0.5),
		engine.WithHook(func() mutator.Hook {
			return inject.New(inject.Plan{Kind: inject.Dangling, TriggerAlloc: faultTrigger, Seed: faultSeed})
		}),
		engine.WithFlushEvery(sessionFlushEvery),
		engine.WithSink(sink),
		engine.WithObserver(clock))
	if err != nil {
		return err
	}
	p0 := readProbe()
	sp := tr.begin(0, "engine.session")
	t := time.Now()
	res, err := sess.Run(withSpan(ctx, sp))
	d := time.Since(t)
	sp.end()
	used := p0.until(readProbe())
	if err != nil {
		return err
	}
	// Every run's counters reach the fleet exactly once, warm-up or not;
	// the coordinator total is checked against this sum.
	in.runs += res.Cumulative.Runs
	if !record {
		return nil
	}
	in.failedRuns += res.Cumulative.Failures
	in.runMs = append(in.runMs, clock.runs...)
	if tr != nil {
		in.tracedMs = append(in.tracedMs, clock.runs...)
	} else {
		in.untracedMs = append(in.untracedMs, clock.runs...)
	}
	in.sessionMs = append(in.sessionMs, ms(d))
	in.work = in.work.plus(used)
	for _, e := range res.SinkErrors {
		in.errs = append(in.errs, e)
	}

	// The baseline: the same program, fault-free, on the freelist
	// allocator, run between sessions so it sees the same machine. It is
	// outside the work meter, so its allocation and CPU stay out of the
	// per-run metrics.
	t = time.Now()
	out := execute(prog, false, seed<<32^uint64(k)*7919, nil)
	base := ms(time.Since(t))
	in.baseMs = append(in.baseMs, base)
	if !out.Completed {
		in.errs = append(in.errs, fmt.Errorf("baseline espresso run: %s", out))
	}
	for _, r := range clock.runs {
		in.ratios = append(in.ratios, r/base)
	}
	return nil
}

// sessionsUntil runs sessions back to back until the deadline, tracing
// every other one when tr is set.
func (in *installation) sessionsUntil(ctx context.Context, tr *tracer, seed uint64, until time.Time, record bool) {
	for time.Now().Before(until) && ctx.Err() == nil {
		sessTr := tr
		if in.sessions%2 == 1 {
			sessTr = nil
		}
		if err := in.session(ctx, sessTr, seed, record); err != nil {
			in.errs = append(in.errs, err)
			return
		}
	}
}

// runSession is the session workload: one installation running a closed
// loop of back-to-back cumulative sessions that upload through
// cluster.Sink into the fleet.
func runSession(ctx context.Context, cfg config) (*result, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	r, setupS, err := setUp(cfg, func() (*rig, error) {
		r, err := newRig(tr)
		if err != nil {
			return nil, err
		}
		if err := r.sync(ctx); err != nil {
			r.close()
			return nil, err
		}
		return r, nil
	}, func(r *rig) { r.close() })
	if err != nil {
		return nil, err
	}
	defer r.close()
	res := newResult()
	in := &installation{coord: r.coordURL, partitions: r.partURLs}
	r.startLoops(ctx)

	// Warm-up lasts until the fleet has patched the injected fault and the
	// installation runs with the patch, so the timed phase measures a
	// patched installation in steady state rather than how many runs
	// happened to fail before the patch landed.
	in.sessionsUntil(ctx, tr, cfg.seed, time.Now().Add(cfg.warmup), false)
	for deadline := time.Now().Add(convergeMax); r.coord.PatchLog().Len() == 0; {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("session warm-up: the fleet never patched the injected fault")
		}
		in.sessionsUntil(ctx, tr, cfg.seed, time.Now().Add(100*time.Millisecond), false)
	}
	in.sessionsUntil(ctx, tr, cfg.seed, time.Now().Add(200*time.Millisecond), false)
	in.times = sinkTimes{}

	p0 := readProbe()
	start := time.Now()
	routes0 := r.routeCounts()
	in.sessionsUntil(ctx, tr, cfg.seed, start.Add(cfg.duration()), true)
	m := p0.until(readProbe())
	res.set("go.live_heap_mb", liveHeapMB())
	end := time.Now()
	routes1 := r.routeCounts()
	r.stopLoops()

	res.attempted = len(in.runMs) + len(in.baseMs)
	res.failed = len(in.errs)
	for _, e := range in.errs {
		res.fail("session: %v", e)
	}
	res.endToEnd(setupS, in.runMs, in.baseMs, in.work, len(in.runMs))
	res.setSlowdown(median(in.ratios), pct(in.ratios, 0.75))
	res.set("go.rss_peak_mb", m.rssMB)

	// Exactly-once: after a final poll the coordinator's run total is the
	// sum of every session's runs.
	if _, err := r.coord.Sync(ctx); err != nil {
		res.fail("final coordinator sync: %v", err)
	}
	if got := r.coord.Status().Runs; got != int64(in.runs) {
		res.fail("coordinator counts %d runs, sessions recorded %d", got, in.runs)
	}

	t := in.times
	res.set("engine.session_ms_p50", median(in.sessionMs))
	res.set("engine.runs_per_s", frac(float64(len(in.runMs)), end.Sub(start).Seconds()))
	res.set("engine.fetch_ms_p50", median(t.fetch))
	res.set("engine.flush_ms_p50", median(t.flush))
	res.set("engine.flush_ms_p99", pct(t.flush, 0.99))
	res.set("engine.commit_ms_p50", median(t.commit))
	res.set("engine.sink_share", frac(sum(t.fetch)+sum(t.flush)+sum(t.commit), sum(in.sessionMs)))
	res.set("engine.failed_run_frac", frac(float64(in.failedRuns), float64(len(in.runMs))))
	res.set("go.gc_cpu_frac", m.gcFrac)
	if tr != nil {
		res.set("trace.overhead_frac", frac(median(in.tracedMs), median(in.untracedMs))-1)
	}
	r.layerMetrics(res, indexSpans(tr.between(start, end)), start, end, routes0, routes1)
	res.finishTrace(tr)
	return res, nil
}
