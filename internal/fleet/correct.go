package fleet

import (
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"exterminator/internal/telemetry"
	"exterminator/internal/triage"
)

// Corrector runs the correction pass — rerun the Bayesian test over the
// pooled evidence, publish what it derives — for fleetd and the cluster
// coordinator alike. A pass:
//
//  1. rescores every key when it is a full pass (see MarkFull);
//  2. runs Store.Identify, which otherwise rescores only the keys whose
//     evidence changed since the previous pass;
//  3. folds the findings into the patch log;
//  4. runs a triage pass fed the candidates Identify rescored and the
//     patch-log entries added since the previous pass.
//
// Passes run one at a time under the pass lock: each triage pass must
// see the passes before it, in order.
type Corrector struct {
	log     *PatchLog
	triage  *triage.Engine
	logger  *slog.Logger
	count   *telemetry.Counter
	seconds *telemetry.Histogram

	mu sync.Mutex // the pass lock
	// triaged is the patch-log version the triage engine has seen
	// (guarded by mu).
	triaged uint64
	full    atomic.Bool
	passes  atomic.Int64
}

// NewCorrector returns a corrector that folds into log and feeds eng (nil
// runs no triage). Each pass increments count and is timed into seconds.
func NewCorrector(log *PatchLog, eng *triage.Engine, logger *slog.Logger, count *telemetry.Counter, seconds *telemetry.Histogram) *Corrector {
	return &Corrector{log: log, triage: eng, logger: logger, count: count, seconds: seconds}
}

// MarkFull makes the next pass a full one: it rescores every key and
// hands triage the complete candidate set, so members whose evidence
// left the store drop out of the rankings. Tiers call it after evidence
// was removed or replaced wholesale (an eviction, a snapshot restore, a
// mirror resync).
func (c *Corrector) MarkFull() { c.full.Store(true) }

// Passes returns the number of passes run (GET /v1/status corrections).
func (c *Corrector) Passes() int64 { return c.passes.Load() }

// Correct runs one pass. store runs first, under the pass lock, told
// whether the pass is a full one; it returns the store to pass over (a
// tier whose evidence lives elsewhere refills a fresh store there on a
// full pass). Correct returns the patch-log version and whether the pass
// changed it.
func (c *Corrector) Correct(store func(full bool) *Store) (uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	start := time.Now()
	defer c.seconds.ObserveSince(start)
	c.passes.Add(1)
	c.count.Inc()
	full := c.full.Swap(false)
	st := store(full)
	if full {
		st.Invalidate()
	}
	//extlint:ignore lockio the pass lock exists to serialize whole correction passes; the elastic identify pool's WaitGroup joins CPU-bound stripe scorers, not IO
	findings, in := st.Identify()
	changed := false
	if findings.Empty() {
		c.logger.Debug("correction pass: no findings",
			"version", c.log.Version(), "durationSec", time.Since(start).Seconds())
	} else {
		var v uint64
		if v, changed = c.log.Fold(findings.Patches()); changed {
			c.logger.Info("correction pass derived patches",
				"version", v, "patchEntries", c.log.Len(), "durationSec", time.Since(start).Seconds())
		}
	}
	in.Full = full
	if c.log.Version() != c.triaged {
		in.Patches, c.triaged = c.log.Since(c.triaged)
	}
	c.triage.Pass(in)
	return c.log.Version(), changed
}
