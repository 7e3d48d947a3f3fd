// Package engine is Exterminator's unified run API: one composable way
// to drive the paper's three modes of operation (§3.4) plus the
// replicated streaming service (Figure 5).
//
// A Session is built from a workload and functional options and driven
// by Run, which honors context cancellation and deadlines:
//
//	sess, err := engine.New(engine.Batch(prog),
//	    engine.WithMode(engine.ModeCumulative),
//	    engine.WithSeeds(42, 7),
//	    engine.WithMaxRuns(200),
//	    engine.WithParallelism(4),
//	    engine.WithSink(engine.HistoryFile("app.xth")),
//	)
//	res, err := sess.Run(ctx)
//
// Run returns a single unified Result: a common header (detected,
// corrected, patches, executions) plus exactly one mode-specific detail
// struct. While running, the session emits a typed event stream
// (RunStarted, ErrorDetected, IsolationRound, PatchDerived,
// VerifyOutcome, ...) to any subscribed Observer, and afterwards routes
// its evidence through pluggable EvidenceSinks — a local history file,
// the fleet aggregation client, or anything else implementing the
// interface. Sinks that also implement PatchSource contribute patches to
// the working set before the run (the fleet distribution path).
//
// Long cumulative sessions can stream instead of batch-committing:
// WithFlushInterval(d) and WithFlushEvery(n) hand the history's
// unacknowledged evidence delta to every sink implementing
// StreamingSink while runs are still executing (emitting EvidenceFlushed
// per accepted flush), so a live fleet sees the evidence before the
// session exits and a crash loses at most one flush interval.
//
// This package is the only front door: commands, examples and the
// paper's experiments all build a Session. HistoryFile/LoadHistoryFile
// and PatchFile/LoadPatchFile are the matching writers and readers of
// the two files a session produces, each one codec frame
// (internal/fleet/codec): a history frame and a patch-set frame.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"exterminator/internal/mutator"
	"exterminator/internal/patch"
)

// Mode enumerates the run modes.
type Mode int

const (
	// ModeIterative detects, isolates and corrects by re-running the
	// same input over fresh random heaps (§3.4 iterative mode).
	ModeIterative Mode = iota
	// ModeReplicated runs N differently seeded replicas with output
	// voting (§3.4 replicated mode).
	ModeReplicated
	// ModeCumulative isolates errors across many runs with per-site
	// summaries and a Bayesian classifier (§5).
	ModeCumulative
	// ModeServe runs the replicated streaming service with on-the-fly
	// patch reload (Figure 5).
	ModeServe
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeIterative:
		return "iterative"
	case ModeReplicated:
		return "replicated"
	case ModeCumulative:
		return "cumulative"
	case ModeServe:
		return "serve"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Workload is what a session runs: a batch program (iterative,
// replicated, cumulative modes) or a stream program (serve mode).
type Workload struct {
	Program mutator.Program
	Stream  mutator.StreamProgram
}

// Batch wraps a batch program as a workload.
func Batch(p mutator.Program) Workload { return Workload{Program: p} }

// Stream wraps a streaming service as a workload.
func Stream(p mutator.StreamProgram) Workload { return Workload{Stream: p} }

// Name identifies the workload.
func (w Workload) Name() string {
	switch {
	case w.Program != nil:
		return w.Program.Name()
	case w.Stream != nil:
		return w.Stream.Name()
	}
	return "<empty>"
}

// Session is a configured, runnable Exterminator session. Build one with
// New; drive it with Run. A Session may be Run multiple times
// sequentially (each Run starts from the configured patches and
// history); concurrent Runs of the same Session are not supported.
type Session struct {
	cfg      config
	workload Workload

	emitMu sync.Mutex
	execs  atomic.Int64 // program executions this Run

	// histMu serializes the cumulative history between the run loop
	// (folding finished runs) and mid-run evidence flushes. Lock order:
	// histMu before emitMu; emit never acquires histMu.
	histMu        sync.Mutex
	lastFlushRuns int          // history run count at the previous flush
	flushErrs     []*SinkError // soft mid-run flush failures (under histMu)

	// livePatches holds patches fetched from patch sources *mid-run* (at
	// evidence-flush points): a long streaming session adopts the fleet's
	// newly derived corrections without restarting. It is kept separate
	// from the run's working set so Result.Derived — computed as
	// Patches.Diff(preRun) — never claims fleet-fetched entries as this
	// session's own. Executions merge it in read-only; updates go through
	// a CAS loop (flusher goroutine vs run-loop trigger), never a lock.
	livePatches atomic.Pointer[patch.Set]
}

// New builds a session. It validates the options eagerly so a
// misconfigured session fails at construction, not mid-run.
func New(w Workload, opts ...Option) (*Session, error) {
	var cfg config
	var errs []error
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			errs = append(errs, err)
		}
	}
	cfg.fill()
	switch cfg.mode {
	case ModeServe:
		if w.Stream == nil {
			errs = append(errs, errors.New("engine: serve mode needs a stream workload (engine.Stream)"))
		}
	default:
		if w.Program == nil {
			errs = append(errs, fmt.Errorf("engine: %s mode needs a batch workload (engine.Batch)", cfg.mode))
		}
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	return &Session{cfg: cfg, workload: w}, nil
}

// Result is the unified outcome of a session: a common header plus
// exactly one mode-specific detail.
type Result struct {
	Mode     Mode
	Workload string

	// Detected: the session observed an error indication (a DieFast
	// signal, crash, divergence, or a Bayesian identification).
	Detected bool
	// Corrected: the session ended with evidence that its patches
	// contain the error (mode-specific: a clean verified re-run for
	// iterative/replicated, an identification for cumulative, at least
	// one derived patch for serve).
	Corrected bool
	// Canceled: the context ended the session before natural
	// completion; the mode detail holds partial results.
	Canceled bool
	// Executions counts program executions performed (detection runs,
	// image replays, replicas, cumulative runs, restarts).
	Executions int

	// Patches is the full working set after the session (pre-loaded +
	// fetched + derived). Derived holds only the entries this session
	// added — what sinks report upstream.
	Patches *patch.Set
	Derived *patch.Set

	// SinkErrors records patch-source fetches and evidence commits that
	// failed, attributed per sink. Sink failures are soft: the run
	// itself still succeeded.
	SinkErrors []*SinkError

	// Exactly one of these is non-nil, matching Mode.
	Iterative  *IterativeResult
	Replicated *ReplicatedResult
	Cumulative *CumulativeResult
	Serve      *ServeResult
}

// String summarizes the result header.
func (r *Result) String() string {
	return fmt.Sprintf("%s %s: detected=%v corrected=%v canceled=%v executions=%d patches=%d (+%d derived)",
		r.Mode, r.Workload, r.Detected, r.Corrected, r.Canceled,
		r.Executions, r.Patches.Len(), r.Derived.Len())
}

// Run drives the session to completion or cancellation. It always
// returns a non-nil Result; on cancellation the result is partial
// (Result.Canceled is set) and the returned error is ctx.Err().
// Evidence sinks are committed even for a canceled session — partial
// evidence is still evidence — using a background context when the
// session context is already dead.
func (s *Session) Run(ctx context.Context) (*Result, error) {
	s.execs.Store(0)
	s.lastFlushRuns = -1 // first flush trigger always streams
	s.flushErrs = nil
	s.livePatches.Store(nil)
	res := &Result{
		Mode:     s.cfg.mode,
		Workload: s.workload.Name(),
	}

	// Working patch set: configured patches plus whatever the patch
	// sources (e.g. the fleet) currently distribute.
	work := patch.New()
	if s.cfg.patches != nil {
		work.Merge(s.cfg.patches)
	}
	for _, sink := range s.cfg.sinks {
		src, ok := sink.(PatchSource)
		if !ok {
			continue
		}
		ps, err := src.FetchPatches(ctx)
		if err != nil {
			res.SinkErrors = append(res.SinkErrors, &SinkError{Sink: sink.SinkName(), Op: "fetch", Err: err})
			continue
		}
		if ps != nil {
			work.Merge(ps)
			s.emit(PatchesFetched{Sink: sink.SinkName(), Entries: ps.Len()})
		}
	}
	preRun := work.Clone()

	s.emit(RunStarted{Mode: s.cfg.mode, Workload: res.Workload, Patches: work.Len()})

	var canceled bool
	switch s.cfg.mode {
	case ModeIterative:
		res.Iterative, canceled = s.runIterative(ctx, work)
		res.Detected = !res.Iterative.CleanAtStart && len(res.Iterative.Rounds) > 0
		res.Corrected = res.Iterative.Corrected
		res.Patches = res.Iterative.Patches
	case ModeReplicated:
		res.Replicated, canceled = s.runReplicated(ctx, work)
		res.Detected = res.Replicated.ErrorDetected
		res.Corrected = res.Replicated.Corrected
		res.Patches = res.Replicated.Patches
	case ModeCumulative:
		res.Cumulative, canceled = s.runCumulative(ctx, work)
		res.Detected = res.Cumulative.Identified
		res.Corrected = res.Cumulative.Identified
		res.Patches = res.Cumulative.Patches
	case ModeServe:
		res.Serve, canceled = s.runServe(ctx, work)
		res.Detected = len(res.Serve.Incidents) > 0
		res.Corrected = res.Serve.Patches.Diff(preRun).Len() > 0
		res.Patches = res.Serve.Patches
	}
	res.Canceled = canceled
	res.Executions = int(s.execs.Load())
	res.Derived = res.Patches.Diff(preRun)
	// The mode driver has returned, so the flusher (stopped inside it) is
	// quiet: its soft failures fold into the result before the commit.
	res.SinkErrors = append(res.SinkErrors, s.flushErrs...)

	s.commitSinks(ctx, res)

	s.emit(SessionFinished{Canceled: canceled, Summary: res.String()})
	if canceled {
		return res, ctx.Err()
	}
	return res, nil
}

// commitSinks routes the session's evidence through every configured
// sink. A dead session context is replaced with a background one so a
// canceled session still flushes its partial evidence (the shutdown
// path of a long-running deployment).
func (s *Session) commitSinks(ctx context.Context, res *Result) {
	if len(s.cfg.sinks) == 0 {
		return
	}
	if ctx.Err() != nil {
		ctx = context.Background()
	}
	ev := &Evidence{
		Workload: res.Workload,
		Mode:     res.Mode,
		Result:   res,
		Derived:  res.Derived,
	}
	if res.Cumulative != nil {
		ev.History = res.Cumulative.History
	}
	for _, sink := range s.cfg.sinks {
		if err := sink.Commit(ctx, ev); err != nil {
			res.SinkErrors = append(res.SinkErrors, &SinkError{Sink: sink.SinkName(), Op: "commit", Err: err})
			continue
		}
		s.emit(EvidenceCommitted{Sink: sink.SinkName()})
	}
}

// emit delivers an event to every observer, serialized.
func (s *Session) emit(ev Event) {
	if len(s.cfg.observers) == 0 {
		return
	}
	s.emitMu.Lock()
	defer s.emitMu.Unlock()
	for _, o := range s.cfg.observers {
		o.Observe(ev)
	}
}

// hook builds a per-execution hook from the configured factory.
func (s *Session) hook() mutator.Hook {
	if s.cfg.hookFor == nil {
		return nil
	}
	return s.cfg.hookFor()
}
