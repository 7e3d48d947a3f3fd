package engine

import (
	"fmt"
	"time"

	"exterminator/internal/cumulative"
	"exterminator/internal/mutator"
	"exterminator/internal/patch"
)

// Option configures a Session. Options are applied in order by New;
// invalid values surface as a single joined error.
type Option func(*config) error

// HookFactory builds a fresh mutator.Hook per execution (injectors carry
// per-run state). nil means no hook.
type HookFactory func() mutator.Hook

// config is the resolved session configuration.
type config struct {
	mode Mode

	heapSeed uint64
	progSeed uint64
	seedsSet bool // WithSeeds was called: zero seeds are honored

	maxIterations int
	replicas      int
	maxRuns       int
	fillProb      float64
	varyProgSeed  bool
	parallelism   int

	flushInterval time.Duration
	flushEvery    int
	flushSignal   <-chan time.Time

	patches *patch.Set
	history *cumulative.History

	input    []byte
	inputFor func(run int) []byte
	hookFor  HookFactory
	runHook  func(run int) mutator.Hook
	chunks   [][]byte

	observers []Observer
	sinks     []EvidenceSink
}

// fill applies the paper's defaults to anything left unset. Explicitly
// configured zero seeds are NOT remapped: WithSeeds(0, 0) really runs
// with seed zero.
func (c *config) fill() {
	if c.maxIterations <= 0 {
		c.maxIterations = 8
	}
	if c.replicas <= 0 {
		c.replicas = 3
	}
	if c.maxRuns <= 0 {
		c.maxRuns = 100
	}
	if c.fillProb <= 0 || c.fillProb >= 1 {
		c.fillProb = 0.5
	}
	if c.parallelism <= 0 {
		c.parallelism = 1
	}
	if !c.seedsSet {
		c.heapSeed = 0x5eed
		c.progSeed = 0x9106
	}
}

// WithMode selects the run mode (default ModeIterative).
func WithMode(m Mode) Option {
	return func(c *config) error {
		switch m {
		case ModeIterative, ModeReplicated, ModeCumulative, ModeServe:
			c.mode = m
			return nil
		}
		return fmt.Errorf("engine: unknown mode %d", int(m))
	}
}

// WithSeeds pins the base heap seed and the program seed. Explicit zeros
// are honored (the zero value of splitmix64 is a valid generator); omit
// this option to get the historical defaults (0x5eed / 0x9106).
func WithSeeds(heapSeed, progSeed uint64) Option {
	return func(c *config) error {
		c.heapSeed, c.progSeed, c.seedsSet = heapSeed, progSeed, true
		return nil
	}
}

// WithMaxIterations bounds iterative-mode correction rounds (default 8).
func WithMaxIterations(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("engine: negative iteration bound %d", n)
		}
		c.maxIterations = n
		return nil
	}
}

// WithReplicas sets N for replicated and serve modes (default 3).
func WithReplicas(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("engine: negative replica count %d", n)
		}
		c.replicas = n
		return nil
	}
}

// WithMaxRuns bounds cumulative mode (default 100).
func WithMaxRuns(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("engine: negative run budget %d", n)
		}
		c.maxRuns = n
		return nil
	}
}

// WithFillProb sets cumulative mode's canary probability p (default 1/2).
func WithFillProb(p float64) Option {
	return func(c *config) error {
		if p <= 0 || p >= 1 {
			return fmt.Errorf("engine: fill probability %v outside (0,1)", p)
		}
		c.fillProb = p
		return nil
	}
}

// WithVaryProgSeed gives each cumulative run a different program seed
// (nondeterministic workloads like Mozilla); by default the program seed
// is fixed and only heap randomization varies.
func WithVaryProgSeed(v bool) Option {
	return func(c *config) error {
		c.varyProgSeed = v
		return nil
	}
}

// WithParallelism runs up to n cumulative executions concurrently,
// feeding the shared evidence accumulator in completion order (runs are
// independent under cumulative mode's assumptions, so evidence is
// order-insensitive; only the identification point may shift by a run or
// two relative to serial execution). n <= 1 means serial. Other modes
// ignore it: replicated/serve already parallelize across replicas, and
// iterative rounds are sequential by construction.
func WithParallelism(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("engine: negative parallelism %d", n)
		}
		c.parallelism = n
		return nil
	}
}

// WithFlushInterval streams evidence to the session's sinks every d of
// wall-clock time while a cumulative run is still executing: a flusher
// goroutine periodically hands the history's unacknowledged delta to
// every sink implementing StreamingSink (and emits EvidenceFlushed).
// Long-running sessions then contribute to a live fleet — observable in
// the fleet's /v1/status — long before they exit, and a crash loses at
// most one interval of evidence. d <= 0 disables interval flushing (the
// default). Modes without a history ignore it.
func WithFlushInterval(d time.Duration) Option {
	return func(c *config) error {
		if d < 0 {
			return fmt.Errorf("engine: negative flush interval %v", d)
		}
		c.flushInterval = d
		return nil
	}
}

// WithFlushSignal replaces the flusher's wall-clock ticker with an
// external trigger channel: each receive fires one flush, exactly as an
// interval tick would. This is the deterministic-clock seam — tests (or
// an embedding with its own scheduler) drive flush points explicitly
// instead of racing a real ticker against real workloads; a fake
// clock's tick channel (e.g. the chaos test clock's After) plugs in
// directly. Setting a signal enables the flusher even when no interval
// is configured.
func WithFlushSignal(ch <-chan time.Time) Option {
	return func(c *config) error {
		c.flushSignal = ch
		return nil
	}
}

// WithFlushEvery streams evidence to the session's StreamingSinks after
// every n recorded cumulative runs — the run-count twin of
// WithFlushInterval (both may be set; each trigger flushes whatever is
// unacknowledged, and an empty delta is skipped). n <= 0 disables
// (the default).
func WithFlushEvery(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("engine: negative flush run count %d", n)
		}
		c.flushEvery = n
		return nil
	}
}

// WithPatches pre-loads runtime patches (e.g. from a previous session or
// a patch file). The set is cloned at Run time; the caller's set is
// never mutated.
func WithPatches(p *patch.Set) Option {
	return func(c *config) error {
		c.patches = p
		return nil
	}
}

// WithHistory resumes cumulative mode from a persisted evidence history
// (§3.4: summaries carry across process restarts). The history is
// mutated by the run — it IS the accumulator — and lands in the result.
func WithHistory(h *cumulative.History) Option {
	return func(c *config) error {
		c.history = h
		return nil
	}
}

// WithInput fixes the program input for every execution.
func WithInput(input []byte) Option {
	return func(c *config) error {
		c.input = input
		return nil
	}
}

// WithInputFunc varies the input per cumulative run (the Mozilla
// browse-first study). It overrides WithInput for modes that use it.
func WithInputFunc(f func(run int) []byte) Option {
	return func(c *config) error {
		c.inputFor = f
		return nil
	}
}

// WithHook installs a hook factory invoked once per execution (fault
// injection, instrumentation).
func WithHook(f HookFactory) Option {
	return func(c *config) error {
		c.hookFor = f
		return nil
	}
}

// WithRunHook installs a per-run hook factory for cumulative mode; run
// is the 1-based cumulative run index. It overrides WithHook there.
func WithRunHook(f func(run int) mutator.Hook) Option {
	return func(c *config) error {
		c.runHook = f
		return nil
	}
}

// WithChunks supplies the input stream for serve mode.
func WithChunks(chunks [][]byte) Option {
	return func(c *config) error {
		c.chunks = chunks
		return nil
	}
}

// WithObserver subscribes an observer to the session's event stream.
// Multiple observers receive every event in subscription order.
func WithObserver(o Observer) Option {
	return func(c *config) error {
		if o == nil {
			return fmt.Errorf("engine: nil observer")
		}
		c.observers = append(c.observers, o)
		return nil
	}
}

// WithSink routes the session's evidence (history, derived patches)
// through an evidence sink after the run. Sinks that also implement
// PatchSource contribute patches to the working set before the run.
func WithSink(s EvidenceSink) Option {
	return func(c *config) error {
		if s == nil {
			return fmt.Errorf("engine: nil sink")
		}
		c.sinks = append(c.sinks, s)
		return nil
	}
}
