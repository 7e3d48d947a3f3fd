// Command exterminate runs a workload under Exterminator in one of the
// three modes, optionally injecting a fault, and writes any runtime
// patches it derives.
//
//	exterminate -workload espresso -fault overflow -size 20 -mode iterative -patches out.xtp
//	exterminate -workload squid -hostile -mode iterative -patches squid.xtp -dump-image img.xtm
//	exterminate -workload mozilla -mode cumulative
//
// Patches written by one run can be fed back with -load, merged with
// patchmerge, and inspected with -text.
//
// The command is a thin shell over the engine API: it assembles an
// engine.Session from flags, subscribes a printing observer to the event
// stream, and routes evidence through sinks (-save-history writes the
// history file; -fleet downloads fleet patches before the run and
// uploads observations and newly derived patches after it). Interrupting
// the process (Ctrl-C) cancels the session context; the partial result
// is still reported and flushed to the sinks.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"exterminator/internal/cluster"
	"exterminator/internal/diefast"
	"exterminator/internal/engine"
	"exterminator/internal/image"
	"exterminator/internal/inject"
	"exterminator/internal/mutator"
	"exterminator/internal/telemetry"
	"exterminator/internal/trace"
	"exterminator/internal/workloads"
	"exterminator/internal/xrand"
)

func main() {
	var (
		workload    = flag.String("workload", "espresso", "workload name (espresso, cfrac, gzip, ..., squid, mozilla)")
		mode        = flag.String("mode", "iterative", "iterative | replicated | cumulative")
		fault       = flag.String("fault", "", "inject a fault: overflow | dangling | double-free | invalid-free")
		size        = flag.Int("size", 20, "overflow size in bytes")
		trigger     = flag.Uint64("trigger", 700, "allocation ordinal at which the fault fires")
		seed        = flag.Uint64("seed", 1, "base heap seed")
		replicas    = flag.Int("replicas", 3, "replica count (replicated mode)")
		maxRuns     = flag.Int("maxruns", 60, "run budget (cumulative mode)")
		parallelism = flag.Int("parallelism", 1, "concurrent executions (cumulative mode)")
		hostile     = flag.Bool("hostile", false, "use the workload's hostile input (squid/mozilla)")
		patchOut    = flag.String("patches", "", "write derived patches to this file")
		patchIn     = flag.String("load", "", "pre-load patches from this file")
		text        = flag.Bool("text", false, "also print patches in text form")
		dumpImage   = flag.String("dump-image", "", "dump one buggy-run heap image to this file")
		recordTo    = flag.String("record", "", "record the workload's allocation trace to this file")
		historyIn   = flag.String("resume-history", "", "resume cumulative mode from this history file")
		historyOut  = flag.String("save-history", "", "write the cumulative history to this file")
		breakpoint  = flag.Uint64("breakpoint", 0, "with -dump-image: capture at this malloc breakpoint instead of at the first error")
		faultSeed   = flag.Uint64("fault-seed", 17, "victim-selection seed for the injected fault (keep fixed across replicas: the bug must be the same logical bug)")
		fleetURL    = flag.String("fleet", "", "fleet aggregation server base URL: download+merge fleet patches before the run; cumulative mode uploads its observations after it")
		fleetID     = flag.String("fleet-id", "", "installation identifier sent with fleet uploads (default: hostname)")
		fleetToken  = flag.String("fleet-token", "", "shared ingest token for fleet servers started with -token")
		flushInt    = flag.Duration("flush-interval", 0, "stream evidence to the sinks (fleet, history file) every interval while a cumulative session is still running (0: only at session end)")
		flushEvery  = flag.Int("flush-every", 0, "stream evidence to the sinks after every N cumulative runs (0: only at session end)")
		events      = flag.Bool("events", false, "print the session's full event stream")
		debugAddr   = flag.String("debug-addr", "", "private listen address for net/http/pprof and session /metrics (long cumulative sessions)")
	)
	flag.Parse()

	prog, ok := workloads.ByName(*workload, 1)
	if !ok {
		fatalf("unknown workload %q", *workload)
	}
	input := inputFor(*workload, *hostile)

	var hookFor engine.HookFactory
	if *fault != "" {
		kind, ok := faultKind(*fault)
		if !ok {
			fatalf("unknown fault %q", *fault)
		}
		plan := inject.Plan{Kind: kind, TriggerAlloc: *trigger, Size: *size, Seed: *faultSeed}
		hookFor = func() mutator.Hook { return inject.New(plan) }
	}

	if *dumpImage != "" {
		if err := dumpOneImage(prog, input, hookFor, *seed, *breakpoint, *dumpImage); err != nil {
			fatalf("dump image: %v", err)
		}
		fmt.Println("heap image written to", *dumpImage)
	}
	if *recordTo != "" {
		if err := recordTrace(prog, input, *seed, *recordTo); err != nil {
			fatalf("record trace: %v", err)
		}
		fmt.Println("allocation trace written to", *recordTo)
	}

	// --- assemble the session from flags -------------------------------

	opts := []engine.Option{
		engine.WithSeeds(*seed, 0x9106),
		engine.WithReplicas(*replicas),
		engine.WithMaxRuns(*maxRuns),
		engine.WithParallelism(*parallelism),
		engine.WithHook(hookFor),
		engine.WithInput(input),
		engine.WithObserver(engine.ObserverFunc(func(ev engine.Event) {
			if *events {
				fmt.Println("  [event]", ev)
				return
			}
			switch ev.(type) {
			case engine.PatchesFetched, engine.EvidenceCommitted, engine.ErrorDetected, engine.PatchDerived:
				fmt.Println(ev)
			}
		})),
	}
	var reg *telemetry.Registry
	if *debugAddr != "" {
		// Session metrics + pprof on a private listener: a long cumulative
		// run (hours of -maxruns with -flush-interval) becomes observable
		// the same way the fleet daemons are.
		reg = telemetry.NewRegistry()
		telemetry.RegisterBuildInfo(reg)
		opts = append(opts, engine.WithObserver(telemetry.NewObserver(reg)))
		go func() {
			if err := http.ListenAndServe(*debugAddr, telemetry.DebugMux(reg)); err != nil {
				log.Printf("exterminate: debug listener: %v", err)
			}
		}()
	}

	switch *mode {
	case "iterative":
		opts = append(opts, engine.WithMode(engine.ModeIterative))
	case "replicated":
		opts = append(opts, engine.WithMode(engine.ModeReplicated))
	case "cumulative":
		opts = append(opts, engine.WithMode(engine.ModeCumulative),
			engine.WithVaryProgSeed(*workload == "mozilla"),
			engine.WithFlushInterval(*flushInt),
			engine.WithFlushEvery(*flushEvery))
		if *historyIn != "" {
			hist, err := engine.LoadHistoryFile(*historyIn)
			if err != nil {
				fatalf("%v", err)
			}
			fmt.Printf("resuming from %s\n", hist)
			opts = append(opts, engine.WithHistory(hist))
		}
	default:
		fatalf("unknown mode %q", *mode)
	}

	if *patchIn != "" {
		p, err := engine.LoadPatchFile(*patchIn)
		if err != nil {
			fatalf("%v", err)
		}
		opts = append(opts, engine.WithPatches(p))
	}

	var fleetSink *cluster.Sink
	// fatalSinks: local file sinks whose failure must fail the process
	// (an unreachable fleet is a warning; a missing output file is not).
	fatalSinks := make(map[string]bool)
	if *fleetURL != "" {
		// A single fleetd is a one-partition ring that also serves
		// patches and takes reports.
		sink, err := cluster.NewSink(*fleetURL, installID(*fleetID), *fleetURL)
		if err != nil {
			fatalf("%v", err)
		}
		fleetSink = sink
		if *fleetToken != "" {
			fleetSink.SetToken(*fleetToken)
		}
		fleetSink.SetMetrics(reg)
		opts = append(opts, engine.WithSink(fleetSink))
		if *mode != "cumulative" {
			fmt.Fprintln(os.Stderr, "exterminate: note: only cumulative mode produces uploadable observations; -fleet will still download patches and report newly derived ones")
		}
		// -resume-history + -fleet is safe: uploads are watermarked, so
		// only evidence the fleet has not acknowledged yet is sent (the
		// watermark persists inside the history file).
	}
	if *historyOut != "" {
		s := engine.HistoryFile(*historyOut)
		fatalSinks[s.SinkName()] = true
		opts = append(opts, engine.WithSink(s))
	}
	if *patchOut != "" {
		s := engine.PatchFile(*patchOut)
		fatalSinks[s.SinkName()] = true
		opts = append(opts, engine.WithSink(s))
	}

	sess, err := engine.New(engine.Batch(prog), opts...)
	if err != nil {
		fatalf("%v", err)
	}

	// Ctrl-C cancels the session; the partial result still flushes to
	// the sinks (history file, fleet) before the process exits.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	res, runErr := sess.Run(ctx)
	exitCode := 0
	if runErr != nil {
		// A canceled run is not a completed run: report the partial
		// results but exit non-zero so `exterminate ... && use-output`
		// chains do not treat them as final.
		fmt.Fprintf(os.Stderr, "exterminate: session canceled (%v); reporting partial results\n", runErr)
		exitCode = 1
	}
	printResult(res)
	// Failures are keyed per (sink, op): a failed pre-run fleet fetch
	// must not hide a successful post-run upload, and vice versa.
	failed := make(map[string]bool)
	for _, serr := range res.SinkErrors {
		fmt.Fprintf(os.Stderr, "exterminate: %v\n", serr)
		failed[serr.Sink+"/"+serr.Op] = true
		if fatalSinks[serr.Sink] {
			exitCode = 1
		}
	}
	if fleetSink != nil {
		if reply := fleetSink.LastIngest(); reply != nil {
			fmt.Printf("fleet: uploaded observations (fleet now at %d runs, %d sites, patch version %d)\n",
				reply.Runs, reply.Sites, reply.Version)
		}
		if res.Derived.Len() > 0 && !failed[fleetSink.SinkName()+"/commit"] {
			fmt.Printf("fleet: reported %d newly derived patch entr%s\n", res.Derived.Len(), plural(res.Derived.Len()))
		}
	}

	if res.Patches.Len() > 0 {
		fmt.Printf("derived %d patch entr%s (%d new this session)\n",
			res.Patches.Len(), plural(res.Patches.Len()), res.Derived.Len())
		if *text {
			res.Patches.EncodeText(os.Stdout)
		}
	} else {
		fmt.Println("no patches derived")
	}
	if *patchOut != "" && !failed[engine.PatchFile(*patchOut).SinkName()+"/commit"] {
		fmt.Println("patches written to", *patchOut)
	}
	if *historyOut != "" && res.Cumulative != nil && !failed[engine.HistoryFile(*historyOut).SinkName()+"/commit"] {
		fmt.Println("history written to", *historyOut)
	}
	if exitCode != 0 {
		os.Exit(exitCode)
	}
}

// printResult renders the unified result header plus the mode detail.
func printResult(res *engine.Result) {
	fmt.Println(res)
	switch {
	case res.Iterative != nil:
		for i, r := range res.Iterative.Rounds {
			fmt.Printf("  round %d: images=%d overflows=%d danglings=%d newPatches=%d\n",
				i+1, r.Images, r.Overflows, r.Danglings, r.NewPatches)
		}
	case res.Replicated != nil:
		fmt.Printf("  detected=%v (%s) corrected=%v\n",
			res.Replicated.ErrorDetected, res.Replicated.Detection, res.Replicated.Corrected)
		for i, o := range res.Replicated.Outcomes {
			fmt.Printf("  replica %d: %s\n", i, o)
		}
	case res.Cumulative != nil:
		fmt.Printf("  identified=%v after %d runs (%d failures)\n",
			res.Cumulative.Identified, res.Cumulative.Runs, res.Cumulative.Failures)
		fmt.Printf("  %s\n", res.Cumulative.History)
	}
}

func inputFor(workload string, hostile bool) []byte {
	switch workload {
	case "squid":
		if hostile {
			return workloads.SquidHostileInput(200, 100)
		}
		return workloads.SquidBenignInput(200)
	case "mozilla":
		return workloads.MozillaSession(5, hostile)
	default:
		return nil
	}
}

func faultKind(name string) (inject.Kind, bool) {
	switch name {
	case "overflow":
		return inject.Overflow, true
	case "underflow":
		return inject.Underflow, true
	case "dangling":
		return inject.Dangling, true
	case "double-free":
		return inject.DoubleFree, true
	case "invalid-free":
		return inject.InvalidFree, true
	}
	return 0, false
}

// dumpOneImage runs the program on a DieFast heap and writes a heap
// image for heapview. Like the paper's dumps, the image is taken at the
// first error signal (or at the malloc breakpoint when given) — images
// taken at exit carry stale evidence. It prints the image's clock so
// further replicas can be dumped at the same breakpoint.
func dumpOneImage(prog mutator.Program, input []byte, hookFor engine.HookFactory, seed, breakpoint uint64, path string) error {
	h := diefast.New(diefast.DefaultConfig(), xrand.New(seed))
	if breakpoint == 0 {
		// Stop at the first DieFast signal, as the paper's initial
		// detection run does.
		h.OnError = func(ev diefast.Event) { panic(mutator.Stop{Reason: ev.String()}) }
	} else {
		h.OnError = func(diefast.Event) {}
	}
	e := mutator.NewEnv(h, h.Space(), xrand.New(0x9106), input)
	e.StopAtClock = breakpoint
	if hookFor != nil {
		e.Hook = hookFor()
	}
	out := mutator.Run(prog, e)
	img := image.Capture(h, out.String())
	fmt.Printf("image clock: %d (%s)\n", img.Clock, out)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return img.Encode(f)
}

// recordTrace runs the workload once through a trace recorder and writes
// the trace file (replayable against any allocator).
func recordTrace(prog mutator.Program, input []byte, seed uint64, path string) error {
	h := diefast.New(diefast.DefaultConfig(), xrand.New(seed))
	h.OnError = func(diefast.Event) {}
	rec := trace.NewRecorder(h)
	e := mutator.NewEnv(rec, h.Space(), xrand.New(0x9106), input)
	out := mutator.Run(prog, e)
	if !out.Completed {
		return fmt.Errorf("recording run did not complete: %s", out)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return rec.Trace().Encode(f)
}

func plural(n int) string {
	if n == 1 {
		return "y"
	}
	return "ies"
}

// installID derives a stable installation identifier for fleet uploads
// when the user does not supply one. Stability matters: the server
// tracks distinct client IDs, so a per-run component (like a PID) would
// register every invocation as a new installation.
func installID(explicit string) string {
	if explicit != "" {
		return explicit
	}
	host, err := os.Hostname()
	if err != nil {
		return "unknown"
	}
	return host
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "exterminate: "+format+"\n", args...)
	os.Exit(1)
}
