package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"exterminator/internal/cumulative"
	"exterminator/internal/fleet"
	"exterminator/internal/fleet/codec"
	"exterminator/internal/telemetry"
	"exterminator/internal/triage"
	"exterminator/internal/version"
)

// CoordinatorOptions configures a cluster coordinator.
type CoordinatorOptions struct {
	// Partitions are the base URLs of the partition fleetd instances to
	// mirror.
	Partitions []string
	// Config parameterizes the Bayesian classifier (zero = paper
	// defaults). It must match the partitions'.
	Config cumulative.Config
	// Token authenticates report uploads to this coordinator (optional).
	// It is also forwarded to the partition clients, so a token-hardened
	// cluster accepts the coordinator's rebalance drains and backfills.
	Token string
	// MaxReports bounds the retained bug-report ring (0 = 128).
	MaxReports int
	// Triage configures the coordinator's triage engine (GET /v1/triage
	// rankings over the merged evidence) and its webhook alerter. The
	// zero value serves rankings with alerting off. Alert exactly-once
	// state rides in the coordinator snapshot (SaveSnapshot), so a
	// restart neither re-fires nor drops an armed alert.
	Triage triage.Config
	// Standby starts the coordinator as a warm standby: it mirrors the
	// same partition journals (cursors advancing, mirrors warm) but
	// answers the client-facing surface — patches, triage, reports,
	// rebalance — with 503 until Promote is called or its lease probes
	// against Primary fail TakeoverAfter times in a row. See
	// docs/OPERATIONS.md "Failover".
	Standby bool
	// Primary is the primary coordinator's base URL a standby probes
	// (GET /v1/lease) from its Run loop. Empty disables automatic
	// takeover; promotion is then manual (Promote, or POST /v1/lease).
	Primary string
	// TakeoverAfter is the consecutive failed lease probes after which
	// a standby promotes itself (0 = 3).
	TakeoverAfter int
	// LeaseHolder names this coordinator in GET /v1/lease replies
	// (diagnostic only; empty = "coordinator").
	LeaseHolder string
	// RebalanceJournal is the path of the crash-safe rebalance journal
	// (JSON lines, fsynced per record). With it set, a coordinator that
	// dies between drain and backfill re-drives the interrupted rebalance
	// on restart (ResumeRebalance) without losing or double-counting a
	// single observation. Empty disables crash safety for rebalances —
	// fine for tests, not for production resizes.
	RebalanceJournal string
	// WireV2 is ignored: delta polls always ride v2 frames.
	//
	// Deprecated: the benchmark module (bench/) still sets it; the next
	// change to the benchmark drops that, and then this field is deleted.
	WireV2 bool
	// Metrics is the registry the coordinator's instruments register into
	// (poll/resync counters, per-partition lag gauges, rebalance phase
	// histograms). Nil gets a private registry; either way the
	// coordinator's mux serves it on GET /metrics.
	Metrics *telemetry.Registry
	// Logger receives the coordinator's structured log (delta
	// applications with their upload correlation IDs, resyncs, rebalance
	// phases). Nil discards.
	Logger *slog.Logger
}

// Coordinator is the cluster's merge tier. It mirrors every partition's
// evidence journal through GET /v1/deltas, pools the mirrors in one
// evidence store, reruns the hypothesis test incrementally through the
// same fleet.Corrector pass a single fleetd runs (only sites whose
// evidence moved since the last pass are rescored), and serves the
// fleet-wide patch log over the standard fleet wire protocol —
// fleet.Client and cluster.Sink poll a coordinator exactly as they would
// a single fleetd.
type Coordinator struct {
	cfg   cumulative.Config
	parts []*partition
	ring  *Ring // current membership; bumped by Rebalance

	pollMu sync.Mutex // serializes PollOnce (Run loop vs manual Sync)
	mu     sync.Mutex
	// store is the merged evidence: a one-stripe fleet.Store that every
	// incremental delta folds into. A change it cannot follow key by key
	// (a mirror replaced or evicted from, a membership change, a snapshot
	// restore) marks the corrector full instead, and the next pass
	// refills a fresh store from the mirrors (guarded by mu).
	store     *fleet.Store
	corrector *fleet.Corrector

	// Rebalance state: rebalMu serializes Rebalance/ResumeRebalance,
	// rebalPath is the two-phase journal, rebalState is reported in
	// ClusterStatus (guarded by mu). testRebalanceCrash, when set, aborts
	// a rebalance at a named stage — the kill-mid-rebalance e2e hook.
	rebalMu            sync.Mutex
	rebalPath          string
	rebalState         RebalanceState
	testRebalanceCrash func(stage string) error

	log    *fleet.PatchLog
	triage *triage.Engine
	start  time.Time

	// Failover state: the patch log's epoch stamps every patch response
	// (it rises across failovers — clients reject anything lower than
	// they have seen); primary gates the client-facing surface and opens
	// only once a promotion has warmed the log (promoting keeps a second
	// or concurrent Promote from bumping the epoch again); a standby
	// probes the primary's lease through primaryClient and promotes
	// itself after takeoverAfter consecutive probe failures (probeFails
	// is touched only by the Run loop). seenPrimaryEpoch floors the epoch
	// a promotion mints.
	primary          atomic.Bool
	promoting        atomic.Bool
	holder           string
	primaryClient    *fleet.Client
	takeoverAfter    int
	probeFails       int
	seenPrimaryEpoch atomic.Uint64

	token   string
	reports *fleet.Reports

	reg     *telemetry.Registry
	metrics coordMetrics
	logger  *slog.Logger

	mux *http.ServeMux
}

// coordMetrics is the merge tier's instrument set. Per-partition series
// (seq, poll age, poll errors) are registered by newPartition as
// membership changes — GaugeFunc replacement keeps a re-added
// partition's series bound to its live state.
type coordMetrics struct {
	polls       *telemetry.Counter
	resyncs     *telemetry.Counter
	deltas      *telemetry.Counter
	deltaObs    *telemetry.Counter
	rebuilds    *telemetry.Counter
	corrections *telemetry.Counter
	patchPolls  *telemetry.Counter
	movedKeys   *telemetry.Counter
	correctSec  *telemetry.Histogram
	// Merged-history state is mirrored into plain gauges at the end of
	// every mutation (pollLocked, Correct, membership changes) instead of
	// being read through scrape-time funcs: a gauge func would take c.mu,
	// making a /metrics scrape block for the full duration of a
	// correction pass — and the exposition path must never contend with
	// the poll/correct path.
	mergedSites *telemetry.Gauge
	mergedRuns  *telemetry.Gauge
	dirtyKeys   *telemetry.Gauge
	partitions  *telemetry.Gauge
	// Failover instruments: primaryG mirrors the lease role (1 =
	// primary) so dashboards can alert on "no primary" or "two
	// primaries" across a pair's scrapes.
	patchNotMod    *telemetry.Counter
	leaseProbes    *telemetry.Counter
	leaseProbeErrs *telemetry.Counter
	failovers      *telemetry.Counter
	primaryG       *telemetry.Gauge
}

func (m *coordMetrics) register(reg *telemetry.Registry, c *Coordinator) {
	m.polls = reg.Counter("cluster_polls_total",
		"Delta-poll rounds across all partitions.")
	m.resyncs = reg.Counter("cluster_resyncs_total",
		"Partition mirrors replaced wholesale (restart, journal-window miss, or epoch change).")
	m.deltas = reg.Counter("cluster_deltas_applied_total",
		"Partition deltas folded into mirrors (incremental or ordered).")
	m.deltaObs = reg.Counter("cluster_delta_observations_total",
		"Individual observations mirrored from partitions via deltas (the coordinator's ingest volume).")
	m.rebuilds = reg.Counter("cluster_merged_rebuilds_total",
		"Merged-history rebuilds from the partition mirrors (the post-resync/rebalance slow path).")
	m.corrections = reg.Counter("cluster_corrections_total",
		"Correction passes over the merged evidence.")
	m.patchPolls = reg.Counter("cluster_patch_polls_total",
		"GET /v1/patches requests served (writer patch-poll fan-in).")
	m.movedKeys = reg.Counter("cluster_rebalance_moved_keys_total",
		"Evidence keys drained and backfilled by completed rebalances.")
	m.patchNotMod = reg.Counter("cluster_patch_not_modified_total",
		"GET /v1/patches polls answered 304 off the If-None-Match validator.")
	m.leaseProbes = reg.Counter("cluster_lease_probes_total",
		"Standby lease probes against the primary coordinator.")
	m.leaseProbeErrs = reg.Counter("cluster_lease_probe_errors_total",
		"Failed standby lease probes (takeover fires after TakeoverAfter consecutive failures).")
	m.failovers = reg.Counter("cluster_failovers_total",
		"Standby promotions to primary (epoch handoffs).")
	m.primaryG = reg.Gauge("cluster_primary",
		"1 while this coordinator holds the lease (serves the client-facing surface), 0 while standing by.")
	m.correctSec = reg.Histogram("cluster_correct_seconds",
		"Correction pass latency (rebuild, if any, plus incremental identify, patch fold and triage).",
		telemetry.DefBuckets)
	m.mergedSites = reg.Gauge("cluster_merged_sites",
		"Distinct allocation sites in the merged history.")
	m.mergedRuns = reg.Gauge("cluster_merged_runs",
		"Fleet-wide runs folded into the merged history.")
	m.dirtyKeys = reg.Gauge("cluster_dirty_keys",
		"Merged-history keys awaiting the next incremental identify pass.")
	m.partitions = reg.Gauge("cluster_partitions",
		"Partitions currently in the poll set.")
	reg.GaugeFunc("cluster_patch_version",
		"Fleet-wide patch log version.",
		func() float64 { return float64(c.log.Version()) })
	telemetry.RegisterBuildInfo(reg)
}

// updateMergedGauges mirrors the merged-evidence state into the
// exposition gauges. The caller holds c.mu; every path that mutates the
// merged evidence or the poll set calls it before unlocking, so scrapes
// read current values off atomics without ever touching c.mu.
func (c *Coordinator) updateMergedGauges() {
	c.metrics.mergedSites.Set(float64(c.store.Sites()))
	c.metrics.mergedRuns.Set(float64(c.store.Runs()))
	c.metrics.dirtyKeys.Set(float64(c.store.DirtyKeys()))
	c.metrics.partitions.Set(float64(len(c.parts)))
}

// partition is the coordinator's view of one fleetd instance: a local
// mirror of its evidence plus the journal cursor and epoch the mirror is
// valid for. Mirror state is guarded by the coordinator's mu.
type partition struct {
	base   string
	client *fleet.Client

	mirror *cumulative.History
	seq    uint64
	epoch  uint64
	errs   atomic.Int64
	// seqGauge shadows seq and lastPoll stamps the last successful delta
	// application (unixnano), so the per-partition gauges read lock-free
	// atomics instead of reaching for the coordinator's mu from an
	// exposition scrape.
	seqGauge atomic.Uint64
	lastPoll atomic.Int64
	errsC    *telemetry.Counter
	lastErr  atomic.Value // string
}

// NewCoordinator returns a coordinator mirroring the given partitions.
func NewCoordinator(opts CoordinatorOptions) (*Coordinator, error) {
	if len(opts.Partitions) == 0 {
		return nil, fmt.Errorf("cluster: coordinator needs at least one partition")
	}
	cfg := opts.Config
	if cfg.C == 0 && cfg.P == 0 {
		cfg = cumulative.DefaultConfig()
	}
	c := &Coordinator{
		cfg:           cfg,
		ring:          NewRing(0, opts.Partitions...),
		store:         fleet.NewStore(1, cfg),
		log:           fleet.NewPatchLog(),
		start:         time.Now(),
		token:         opts.Token,
		rebalPath:     opts.RebalanceJournal,
		rebalState:    RebalanceState{State: RebalanceIdle},
		holder:        opts.LeaseHolder,
		takeoverAfter: opts.TakeoverAfter,
	}
	c.log.SetEpoch(uint64(time.Now().UnixNano()))
	c.primary.Store(!opts.Standby)
	if c.holder == "" {
		c.holder = "coordinator"
	}
	if c.takeoverAfter <= 0 {
		c.takeoverAfter = leaseProbeDefault
	}
	c.reg = opts.Metrics
	if c.reg == nil {
		c.reg = telemetry.NewRegistry()
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	tcfg := opts.Triage
	tcfg.Source = "coordinator"
	c.triage = triage.New(tcfg)
	c.triage.SetLogger(logger)
	c.triage.SetMetrics(c.reg)
	c.logger = logger.With("component", "coordinator")
	c.metrics.register(c.reg, c)
	c.corrector = fleet.NewCorrector(c.log, c.triage, c.logger, c.metrics.corrections, c.metrics.correctSec)
	c.reports = fleet.NewReports(opts.MaxReports, 16<<20, c.triage, c.authorize)
	if c.primary.Load() {
		c.metrics.primaryG.Set(1)
	}
	if opts.Primary != "" {
		pc := fleet.NewClient(opts.Primary, "standby")
		pc.SetLogger(c.logger.With("primary", opts.Primary))
		if c.token != "" {
			pc.SetToken(c.token)
		}
		c.primaryClient = pc
	}
	for _, base := range opts.Partitions {
		c.parts = append(c.parts, c.newPartition(base))
	}
	c.updateMergedGauges()
	mux := http.NewServeMux()
	// The client-facing surface is lease-gated: a standby answers 503
	// until promoted. Topology and diagnostics (membership, status,
	// lease, health, metrics) always serve — they are how operators and
	// probes see the standby at all.
	mux.Handle("/v1/patches", c.gatePrimary(c.log.Handler(c.logger, c.metrics.patchPolls, c.metrics.patchNotMod)))
	mux.Handle("/v1/reports", c.gatePrimary(c.reports))
	mux.HandleFunc("/v1/membership", c.handleMembership)
	mux.Handle("/v1/rebalance", c.gatePrimary(http.HandlerFunc(c.handleRebalance)))
	mux.HandleFunc("/v1/status", c.handleStatus)
	mux.HandleFunc("/v1/lease", c.handleLease)
	mux.Handle("/v1/triage", c.gatePrimary(c.triage))
	mux.Handle("/v1/triage/", c.gatePrimary(c.triage))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.Handle("/metrics", c.reg.Handler())
	c.mux = mux
	return c, nil
}

// Metrics exposes the coordinator's registry (also served on the
// handler's GET /metrics).
func (c *Coordinator) Metrics() *telemetry.Registry { return c.reg }

// Handler returns the coordinator's HTTP handler (the client-facing
// subset of the fleet protocol — patches, reports, status, health —
// plus the cluster admin surface: membership and rebalance).
func (c *Coordinator) Handler() http.Handler { return c.mux }

// newPartition builds the coordinator's view of one fleetd instance and
// registers its per-partition series. A re-added partition re-binds the
// existing series to the fresh state (GaugeFunc replace semantics), so
// membership churn never double-registers.
func (c *Coordinator) newPartition(base string) *partition {
	client := fleet.NewClient(base, "coordinator")
	// The partition client logs its delta fetches with their
	// X-Request-ID, so one correlation ID greps from a partition's
	// journal serve through the coordinator's mirror application.
	client.SetLogger(c.logger.With("partition", base))
	if c.token != "" {
		client.SetToken(c.token)
	}
	p := &partition{
		base:   base,
		client: client,
		mirror: cumulative.NewHistory(c.cfg),
	}
	p.errsC = c.reg.Counter("cluster_poll_errors_total",
		"Failed delta polls, by partition.", telemetry.L("partition", base))
	c.reg.GaugeFunc("cluster_partition_seq",
		"Journal cursor mirrored from each partition.",
		func() float64 { return float64(p.seqGauge.Load()) },
		telemetry.L("partition", base))
	c.reg.GaugeFunc("cluster_partition_poll_age_seconds",
		"Delta-poll lag: seconds since each partition's last successful poll (0 until the first).",
		func() float64 {
			ns := p.lastPoll.Load()
			if ns == 0 {
				return 0
			}
			return time.Since(time.Unix(0, ns)).Seconds()
		},
		telemetry.L("partition", base))
	return p
}

// partitionsSnapshot returns the current partition slice (membership can
// change under Rebalance).
func (c *Coordinator) partitionsSnapshot() []*partition {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*partition(nil), c.parts...)
}

// setPartitions resets the poll set to exactly nodes, keeping existing
// partitions' mirrors and cursors where the base URL matches (new nodes
// start empty and full-resync on their first poll). The merged evidence
// is rebuilt from the surviving mirrors on the next correction pass.
func (c *Coordinator) setPartitions(nodes []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	have := make(map[string]*partition, len(c.parts))
	for _, p := range c.parts {
		have[p.base] = p
	}
	c.parts = c.parts[:0]
	for _, n := range nodes {
		p := have[n]
		if p == nil {
			p = c.newPartition(n)
		}
		c.parts = append(c.parts, p)
	}
	c.corrector.MarkFull()
	c.updateMergedGauges()
}

// findPartition returns the partition for base, or nil.
func (c *Coordinator) findPartition(base string) *partition {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range c.parts {
		if p.base == base {
			return p
		}
	}
	return nil
}

// Ring exposes the coordinator's membership ring (diagnostics, tests).
func (c *Coordinator) Ring() *Ring { return c.ring }

// PatchLog exposes the fleet-wide patch log.
func (c *Coordinator) PatchLog() *fleet.PatchLog { return c.log }

// PollOnce polls every partition's journal concurrently and applies the
// deltas. It reports whether any new evidence arrived (a correction pass
// is worthwhile) and joins per-partition errors; one unreachable
// partition delays only its own evidence, never the others'.
func (c *Coordinator) PollOnce(ctx context.Context) (changed bool, err error) {
	c.pollMu.Lock()
	defer c.pollMu.Unlock()
	return c.pollLocked(ctx)
}

// pollLocked is PollOnce's body; the caller holds pollMu (Rebalance
// holds it across its whole drain/backfill critical section, so no poll
// can observe — and run a correction pass over — the half-moved state).
func (c *Coordinator) pollLocked(ctx context.Context) (changed bool, err error) {
	c.metrics.polls.Inc()
	parts := c.partitionsSnapshot()
	type result struct {
		p     *partition
		delta *codec.Delta
		err   error
	}
	results := make([]result, len(parts))
	var wg sync.WaitGroup
	for i, p := range parts {
		wg.Add(1)
		go func(i int, p *partition, since, epoch uint64) {
			defer wg.Done()
			d, derr := p.client.Deltas(ctx, since, epoch)
			results[i] = result{p: p, delta: d, err: derr}
		}(i, p, p.seq, p.epoch)
	}
	wg.Wait()

	c.mu.Lock()
	defer c.mu.Unlock()
	var errs []error
	for _, res := range results {
		d, derr := res.delta, res.err
		if derr == nil && !d.Full && res.p.epoch != 0 && d.Epoch != res.p.epoch {
			// The poll carried our epoch, so a partition that restarted
			// answers with a resync; a window of another incarnation's
			// journal means nothing against this mirror.
			derr = fmt.Errorf("delta of epoch %d is not a resync of the mirror's epoch %d", d.Epoch, res.p.epoch)
		}
		if derr != nil {
			res.p.errs.Add(1)
			res.p.errsC.Inc()
			res.p.lastErr.Store(derr.Error())
			c.logger.Warn("delta poll failed",
				"partition", res.p.base, "error", derr.Error())
			errs = append(errs, fmt.Errorf("cluster: poll %s: %w", res.p.base, derr))
			continue
		}
		res.p.seq, res.p.epoch = d.Seq, d.Epoch
		res.p.seqGauge.Store(d.Seq)
		res.p.lastPoll.Store(time.Now().UnixNano())
		if !d.Full && len(d.Ops) == 0 {
			continue
		}
		// A resync replaces the mirror, never absorbs into it: evidence is
		// a multiset, so only replacement keeps re-polls and restarts
		// idempotent. The ops then apply in order; an eviction removes
		// the keys' entire evidence at that point in the stream.
		if d.Full {
			res.p.mirror = cumulative.NewHistory(c.cfg)
			c.metrics.resyncs.Inc()
		} else {
			c.metrics.deltas.Inc()
		}
		// A window of additions alone also folds each batch into the
		// merged evidence, under one hold of its one stripe, so only
		// these keys turn dirty for the next incremental identify pass.
		// Anything else rebuilds the merged evidence from the mirrors at
		// the next pass, which keeps the merge independent of the order
		// partitions' deltas land in.
		fold := !d.Full
		for _, op := range d.Ops {
			fold = fold && len(op.Evict) == 0
		}
		obs := 0
		for _, op := range d.Ops {
			if len(op.Evict) > 0 {
				res.p.mirror.Extract(op.Evict)
				continue
			}
			res.p.mirror.Absorb(op.Snapshot)
			if fold {
				c.store.AbsorbSnapshot(op.Snapshot)
			}
			obs += fleet.SnapshotObservations(op.Snapshot)
		}
		if !fold {
			c.corrector.MarkFull()
		}
		c.metrics.deltaObs.Add(float64(obs))
		c.logger.Info("delta applied",
			"partition", res.p.base, "seq", d.Seq, "epoch", d.Epoch,
			"full", d.Full, "ops", len(d.Ops),
			"observations", obs, "requestIds", d.ReqIDs)
		changed = true
	}
	c.updateMergedGauges()
	return changed, errors.Join(errs...)
}

// Correct runs one correction pass (see fleet.Corrector) over the merged
// evidence. A full pass — after a partition resync, a delta eviction, a
// membership change or a snapshot restore — first refills a fresh store
// from the mirrors, so every key is rescored and triage drops members
// that vanished; otherwise only dirty sites are rescored. The pass holds
// c.mu only for the refill: identify serializes against delta folds on
// the store's one stripe, and a /metrics scrape never waits behind
// clustering.
func (c *Coordinator) Correct() (uint64, bool) {
	v, changed := c.corrector.Correct(func(full bool) *fleet.Store {
		c.mu.Lock()
		defer c.mu.Unlock()
		if full {
			st := fleet.NewStore(1, c.cfg)
			for _, p := range c.parts {
				st.AbsorbSnapshot(p.mirror.Snapshot())
			}
			c.store = st
			c.metrics.rebuilds.Inc()
		}
		return c.store
	})
	c.mu.Lock()
	c.updateMergedGauges()
	c.mu.Unlock()
	return v, changed
}

// Triage exposes the coordinator's triage engine (rankings, alert
// delivery, snapshot persistence).
func (c *Coordinator) Triage() *triage.Engine { return c.triage }

// Run polls and corrects every interval (jittered ±10% so a fleet of
// coordinators and replicas never phase-locks; see fleet.JitterInterval)
// until ctx is done. A standby polls the same journals — mirrors warm,
// cursors advancing — but defers correction and alert delivery to its
// promotion: the patch log is a pure function of the mirrors, and
// running the alerter on a standby would double-fire every webhook the
// primary already sent. Each standby tick also probes the primary's
// lease and promotes after TakeoverAfter consecutive failures.
func (c *Coordinator) Run(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	t := time.NewTimer(fleet.JitterInterval(interval))
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			changed, _ := c.PollOnce(ctx)
			if c.primary.Load() {
				if changed {
					c.Correct()
				}
				c.triage.DeliverAlerts(ctx)
			} else {
				c.probePrimary(ctx)
			}
			t.Reset(fleet.JitterInterval(interval))
		}
	}
}

// Sync is PollOnce + Correct, for callers that want to drive the loop
// themselves (tests, demos).
func (c *Coordinator) Sync(ctx context.Context) (uint64, error) {
	changed, err := c.PollOnce(ctx)
	if changed {
		v, _ := c.Correct()
		return v, err
	}
	return c.log.Version(), err
}

// authorize enforces the cluster token on the coordinator's writes
// (reports, rebalance, manual promotion), answering 401 itself. With no
// token configured it always passes.
func (c *Coordinator) authorize(w http.ResponseWriter, r *http.Request) bool {
	if c.token == "" || fleet.BearerAuthorized(r, c.token) {
		return true
	}
	w.Header().Set("WWW-Authenticate", `Bearer realm="fleet"`)
	http.Error(w, "cluster: missing or invalid ingest token", http.StatusUnauthorized)
	return false
}

// ClusterStatus is the coordinator's GET /v1/status body: the standard
// fleet status (so generic tooling keeps working) plus per-partition
// mirror state.
type ClusterStatus struct {
	fleet.StatusReply
	Polls   int64 `json:"polls"`
	Resyncs int64 `json:"resyncs"`
	// MembershipVersion and Nodes are the current cluster topology
	// (GET /v1/membership returns the same pair); Rebalance is the
	// drain/backfill engine's state, including the moved-key count of
	// the most recent resize.
	MembershipVersion uint64            `json:"membershipVersion"`
	Nodes             []string          `json:"nodes"`
	Rebalance         RebalanceState    `json:"rebalance"`
	Partitions        []PartitionStatus `json:"partitions"`
	// Primary, LeaseEpoch and LeaseHolder mirror GET /v1/lease, so one
	// status scrape shows a pair's roles.
	Primary     bool   `json:"primary"`
	LeaseEpoch  uint64 `json:"leaseEpoch"`
	LeaseHolder string `json:"leaseHolder"`
}

// PartitionStatus is one partition's mirror state in ClusterStatus.
type PartitionStatus struct {
	Base      string `json:"base"`
	Seq       uint64 `json:"seq"`
	Epoch     uint64 `json:"epoch"`
	Sites     int    `json:"sites"`
	Runs      int    `json:"runs"`
	Errors    int64  `json:"errors"`
	LastError string `json:"lastError,omitempty"`
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	reqID := fleet.EchoRequestID(w, r)
	c.logger.Debug("status served", "requestId", reqID)
	fleet.WriteJSON(w, c.Status())
}

// handleMembership serves the current cluster topology: writers
// (cluster.Sink, Router owners) adopt it via Ring.SetMembership after a
// stale-ring rejection or on their regular patch-poll path.
func (c *Coordinator) handleMembership(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	reqID := fleet.EchoRequestID(w, r)
	version, nodes := c.ring.Membership()
	c.logger.Debug("membership served",
		"membershipVersion", version, "requestId", reqID)
	fleet.WriteJSON(w, fleet.MembershipReply{Version: version, Nodes: nodes})
}

// Status assembles the coordinator's status reply.
func (c *Coordinator) Status() *ClusterStatus {
	build := version.String()
	memberVersion, nodes := c.ring.Membership()
	c.mu.Lock()
	st := &ClusterStatus{
		StatusReply: fleet.StatusReply{
			Build:       build,
			Version:     c.log.Version(),
			Sites:       c.store.Sites(),
			Runs:        c.store.Runs(),
			FailedRuns:  c.store.FailedRuns(),
			CorruptRuns: c.store.CorruptRuns(),
			Reports:     c.reports.Seen(),
			PatchLen:    c.log.Len(),
			UptimeSec:   int64(time.Since(c.start).Seconds()),
			Corrections: c.corrector.Passes(),
			DirtyKeys:   c.store.DirtyKeys(),
		},
		Polls:             int64(c.metrics.polls.Value()),
		Resyncs:           int64(c.metrics.resyncs.Value()),
		MembershipVersion: memberVersion,
		Nodes:             nodes,
		Rebalance:         c.rebalState,
		Primary:           c.primary.Load(),
		LeaseEpoch:        c.log.Epoch(),
		LeaseHolder:       c.holder,
	}
	for _, p := range c.parts {
		ps := PartitionStatus{
			Base:   p.base,
			Seq:    p.seq,
			Epoch:  p.epoch,
			Sites:  p.mirror.Sites(),
			Runs:   p.mirror.Runs,
			Errors: p.errs.Load(),
		}
		if v, ok := p.lastErr.Load().(string); ok {
			ps.LastError = v
		}
		st.Partitions = append(st.Partitions, ps)
	}
	c.mu.Unlock()
	return st
}
