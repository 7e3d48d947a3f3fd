package fleet

import (
	"compress/gzip"
	"context"
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"exterminator/internal/cumulative"
	"exterminator/internal/fleet/codec"
	"exterminator/internal/site"
	"exterminator/internal/telemetry"
	"exterminator/internal/triage"
	"exterminator/internal/version"
)

// ServerOptions configures an aggregation server.
type ServerOptions struct {
	// Shards is the evidence-store stripe count (0 = DefaultShards).
	Shards int
	// Config parameterizes the Bayesian classifier (zero = paper defaults).
	Config cumulative.Config
	// CorrectEvery triggers a synchronous correction pass once more than
	// this many ingested batches are pending, in addition to any
	// background loop. 0 means every batch (evidence is never left
	// sitting); negative disables inline correction entirely (background
	// loop only).
	CorrectEvery int
	// MaxReports bounds the retained bug-report ring (0 = 128).
	MaxReports int
	// MaxBodyBytes bounds request bodies (0 = 16 MiB).
	MaxBodyBytes int64
	// Token, when non-empty, is required as `Authorization: Bearer
	// <token>` on the write endpoints (/v1/observations, /v1/reports).
	// Reads stay open.
	Token string
	// RatePerSec enables a per-remote-host token-bucket limit on
	// /v1/observations (0 disables). Over-limit requests get 429 with a
	// Retry-After header.
	RatePerSec float64
	// RateBurst is the token-bucket capacity (0 = 2×RatePerSec, min 1).
	RateBurst int
	// JournalLen bounds the evidence journal behind GET /v1/deltas
	// (0 = 1024 batches; negative disables retention — single-node
	// deployments that nothing delta-polls then hold no snapshot
	// references, and any poll is answered with a full resync).
	// Coordinators that fall further behind than the window receive a
	// full resync.
	JournalLen int
	// CorrectWorkers is the correction pool width: how many evidence
	// shards an Identify pass rescores concurrently. 0 sizes the pool
	// elastically — min(GOMAXPROCS, Shards) — so many-core hosts use
	// their cores without the operator re-deriving the number from the
	// replica count; 1 (or negative) keeps passes serial. Findings are
	// merged in shard order, so the pool width never changes results.
	CorrectWorkers int
	// DisableCorrection turns Correct into a no-op (cluster partition
	// mode): the server stores and journals evidence but never derives
	// patches. A partition holds only its ring slice of the sites, so
	// its local N would understate the Bayesian prior — only the
	// coordinator, which sees the merged pool and the true N, may run
	// the hypothesis test.
	DisableCorrection bool
	// DedupWindow bounds the exactly-once ingest window: the number of
	// recently absorbed batch IDs retained (<= 0 = 4096). An upload whose
	// batch ID is already in the window is acknowledged without being
	// re-absorbed, so a client retrying after a lost ack cannot
	// double-count evidence. The window is persisted in snapshots, so the
	// guarantee survives restarts.
	DedupWindow int
	// Triage configures the triage engine behind GET /v1/triage
	// (clustered top-offender rankings) and its webhook alerter. The
	// zero value serves rankings with alerting off. Partition-mode
	// servers (DisableCorrection) skip triage passes for the same
	// reason they skip correction — a ring slice's local view would
	// mis-rank — and serve empty rankings.
	Triage triage.Config
	// Metrics is the telemetry registry the server instruments into and
	// serves on GET /metrics (nil = a fresh private registry — /metrics
	// still works, nothing else shares it).
	Metrics *telemetry.Registry
	// Logger receives the server's structured log stream (ingest,
	// dedup/stale/eviction decisions, correction passes, snapshots), each
	// record carrying the upload's X-Request-ID correlation field where
	// one applies. Nil discards.
	Logger *slog.Logger
}

// Server is the fleet aggregation service: sharded evidence store,
// versioned patch log, correction loop, and the HTTP API over them.
type Server struct {
	store  *Store
	log    *PatchLog
	triage *triage.Engine // nil in partition mode

	corrector    *Corrector
	correctEvery int
	noCorrect    bool
	maxBody      int64
	pending      atomic.Int64 // batches since the last correction pass

	token   string
	limiter *rateLimiter

	// dedup is the exactly-once ingest window. IDs are admitted *before*
	// the absorb, so a concurrent duplicate is acked while the first
	// delivery is still folding in.
	dedup *dedupWindow

	// ringVersion is the required cluster membership version (0 = none
	// announced; versioned uploads below it are rejected with 409 +
	// StaleRing). It is only ever raised — under deltaMu exclusively, so
	// an ingest that passed the check before a rebalance's announcement
	// either lands before the announce completes (and is then drained by
	// the eviction that follows it) or re-checks under the shared lock
	// and is rejected. evicts backs POST /v1/evict.
	ringVersion atomic.Uint64
	evicts      *evictCache

	// journal records absorbed batches for GET /v1/deltas. deltaMu makes
	// (absorb into store + append to journal) atomic with respect to a
	// full-resync read: ingest holds it shared (absorbs stay concurrent
	// across shards), a full snapshot holds it exclusively, so the
	// snapshot it takes corresponds exactly to a journal position.
	journal *journal
	deltaMu sync.RWMutex

	reports *Reports

	reg     *telemetry.Registry
	metrics serverMetrics
	logger  *slog.Logger

	start time.Time
	epoch uint64
	mux   *http.ServeMux
}

// serverMetrics is the fleet server's instrument set (see
// docs/OBSERVABILITY.md for the full reference).
type serverMetrics struct {
	batches      *telemetry.Counter
	observations *telemetry.Counter
	runs         *telemetry.Counter
	wireBytes    *telemetry.Counter
	bodyBytes    *telemetry.Counter
	dedupHits    *telemetry.Counter
	staleRing    *telemetry.Counter
	rateLimited  *telemetry.Counter
	unauthorized *telemetry.Counter
	evictions    *telemetry.Counter
	corrections  *telemetry.Counter
	ingestSec    *telemetry.Histogram
	correctSec   *telemetry.Histogram
}

// register instruments the server into reg: the ingest counter set, the
// correction-pass latency histogram, and scrape-time gauges over the
// live store/journal/patch-log state.
func (m *serverMetrics) register(reg *telemetry.Registry, s *Server) {
	m.batches = reg.Counter("fleet_ingest_batches_total",
		"Observation batches absorbed (duplicates and rejections excluded).")
	m.observations = reg.Counter("fleet_ingest_observations_total",
		"Individual overflow/dangling observations absorbed.")
	m.runs = reg.Counter("fleet_ingest_runs_total",
		"Run-counter increments absorbed with batches.")
	m.wireBytes = reg.Counter("fleet_ingest_wire_bytes_total",
		"Ingest request-body bytes read off the wire (compressed when the client gzips).")
	m.bodyBytes = reg.Counter("fleet_ingest_body_bytes_total",
		"Ingest request-body bytes after decompression; divide wire by body for the gzip ratio.")
	m.dedupHits = reg.Counter("fleet_dedup_hits_total",
		"Uploads acknowledged as duplicates without being re-absorbed (exactly-once window hits).")
	m.staleRing = reg.Counter("fleet_stale_ring_rejects_total",
		"Uploads rejected with 409 for being split under an outdated cluster membership.")
	m.rateLimited = reg.Counter("fleet_rate_limited_total",
		"Uploads rejected with 429 by the per-host token bucket.")
	m.unauthorized = reg.Counter("fleet_unauthorized_total",
		"Write requests rejected with 401 (missing or invalid ingest token).")
	m.evictions = reg.Counter("fleet_evictions_total",
		"Rebalance drains served via POST /v1/evict (token replays not counted).")
	m.corrections = reg.Counter("fleet_corrections_total",
		"Completed correction passes.")
	m.ingestSec = reg.Histogram("fleet_ingest_seconds",
		"POST /v1/observations handling latency in seconds.", nil)
	m.correctSec = reg.Histogram("fleet_correct_seconds",
		"Whole correction-pass latency (identify + patch fold + triage), in seconds.", nil)
	reg.GaugeFunc("fleet_dirty_keys",
		"Evidence keys the next correction pass must rescore (recompute backlog).",
		func() float64 { return float64(s.store.DirtyKeys()) })
	reg.GaugeFunc("fleet_journal_seq",
		"Evidence journal sequence number (the cursor coordinators poll with).",
		func() float64 { return float64(s.journal.seqNow()) })
	reg.GaugeFunc("fleet_journal_entries",
		"Evidence journal entries currently retained (delta-poll window depth).",
		func() float64 { return float64(s.journal.length()) })
	reg.GaugeFunc("fleet_patch_version",
		"Patch log version.",
		func() float64 { return float64(s.log.Version()) })
	reg.GaugeFunc("fleet_patch_entries",
		"Patch log entry count.",
		func() float64 { return float64(s.log.Len()) })
	reg.GaugeFunc("fleet_evidence_sites",
		"Distinct allocation sites in the evidence store (N in the Bayesian prior).",
		func() float64 { return float64(s.store.Sites()) })
	reg.GaugeFunc("fleet_evidence_runs",
		"Fleet-wide run count in the evidence store.",
		func() float64 { return float64(s.store.Runs()) })
	telemetry.RegisterBuildInfo(reg)
}

// NewServer returns a ready-to-serve aggregation server.
func NewServer(opts ServerOptions) *Server {
	cfg := opts.Config
	if cfg.C == 0 && cfg.P == 0 {
		cfg = cumulative.DefaultConfig()
	}
	burst := opts.RateBurst
	if burst <= 0 {
		burst = int(2 * opts.RatePerSec)
	}
	s := &Server{
		store:        NewStore(opts.Shards, cfg),
		log:          NewPatchLog(),
		correctEvery: opts.CorrectEvery,
		noCorrect:    opts.DisableCorrection,
		maxBody:      opts.MaxBodyBytes,
		token:        opts.Token,
		limiter:      newRateLimiter(opts.RatePerSec, burst),
		dedup:        newDedupWindow(opts.DedupWindow),
		evicts:       newEvictCache(0),
		journal:      newJournal(opts.JournalLen),
		reg:          opts.Metrics,
		logger:       opts.Logger,
		start:        time.Now(),
		epoch:        uint64(time.Now().UnixNano()),
	}
	s.log.SetEpoch(s.epoch)
	if s.maxBody <= 0 {
		s.maxBody = 16 << 20
	}
	switch {
	case opts.CorrectWorkers == 0:
		s.store.SetIdentifyWorkers(min(runtime.GOMAXPROCS(0), s.store.NumShards()))
	case opts.CorrectWorkers > 1:
		s.store.SetIdentifyWorkers(opts.CorrectWorkers)
	}
	if s.reg == nil {
		s.reg = telemetry.NewRegistry()
	}
	if s.logger == nil {
		s.logger = slog.New(slog.DiscardHandler)
	}
	if !s.noCorrect {
		tcfg := opts.Triage
		tcfg.Source = "fleetd"
		s.triage = triage.New(tcfg)
		s.triage.SetLogger(s.logger)
		s.triage.SetMetrics(s.reg)
	}
	s.logger = s.logger.With("component", "fleet")
	s.metrics.register(s.reg, s)
	s.corrector = NewCorrector(s.log, s.triage, s.logger, s.metrics.corrections, s.metrics.correctSec)
	s.reports = NewReports(opts.MaxReports, s.maxBody, s.triage, s.authorize)
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/observations", s.handleObservations)
	mux.Handle("/v1/reports", s.reports)
	mux.Handle("/v1/patches", s.log.Handler(s.logger, nil, nil))
	mux.HandleFunc("/v1/deltas", s.handleDeltas)
	mux.HandleFunc("/v1/evict", s.handleEvict)
	mux.HandleFunc("/v1/ring", s.handleRing)
	mux.HandleFunc("/v1/status", s.handleStatus)
	// s.triage may be a typed nil (partition mode): Engine.ServeHTTP is
	// nil-receiver-safe and answers with an empty ranking.
	mux.Handle("/v1/triage", s.triage)
	mux.Handle("/v1/triage/", s.triage)
	mux.Handle("/metrics", s.reg.Handler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	s.mux = mux
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns the registry the server instruments into (fleetd also
// serves it on the -debug-addr listener).
func (s *Server) Metrics() *telemetry.Registry { return s.reg }

// Store exposes the evidence store (tests and fleetd snapshots).
func (s *Server) Store() *Store { return s.store }

// PatchLog exposes the versioned patch log.
func (s *Server) PatchLog() *PatchLog { return s.log }

// Correct runs one correction pass (see Corrector) over the sharded
// store. It returns the current version and whether it changed. Passes
// are incremental — only sites whose evidence changed since the previous
// pass are rescored and only their clusters re-triaged — and serialize;
// ingest is never blocked by a running pass.
func (s *Server) Correct() (uint64, bool) {
	if s.noCorrect {
		// Partition mode: every derivation path — inline, background
		// loop, snapshot restore — is suppressed here, at the server, so
		// no caller can accidentally publish partition-local patches.
		return s.log.Version(), false
	}
	return s.corrector.Correct(func(bool) *Store {
		s.pending.Store(0)
		return s.store
	})
}

// Triage exposes the triage engine (nil in partition mode).
func (s *Server) Triage() *triage.Engine { return s.triage }

// RunCorrectionLoop reruns Correct every interval until ctx is done — the
// background half of "rerun the test as evidence arrives". It only pays
// for a pass when new batches actually arrived since the last one.
func (s *Server) RunCorrectionLoop(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if s.pending.Load() > 0 {
				s.Correct()
			}
			// Alert delivery is decoupled from passes: due retries
			// drain every tick even when no new evidence arrived.
			s.triage.DeliverAlerts(ctx)
		}
	}
}

// BearerAuthorized reports whether the request carries `Authorization:
// Bearer <token>`, compared in constant time. Exported so other fleet
// tiers (the cluster coordinator) enforce exactly the same check.
func BearerAuthorized(r *http.Request, token string) bool {
	auth := r.Header.Get("Authorization")
	const prefix = "Bearer "
	return len(auth) > len(prefix) && strings.EqualFold(auth[:len(prefix)], prefix) &&
		subtle.ConstantTimeCompare([]byte(auth[len(prefix):]), []byte(token)) == 1
}

// authorize enforces the shared ingest token on write endpoints. With no
// token configured it always passes.
func (s *Server) authorize(w http.ResponseWriter, r *http.Request) bool {
	if s.token == "" || BearerAuthorized(r, s.token) {
		return true
	}
	s.metrics.unauthorized.Inc()
	s.logger.Warn("unauthorized write rejected",
		"path", r.URL.Path, "remote", r.RemoteAddr, "requestId", r.Header.Get(RequestIDHeader))
	w.Header().Set("WWW-Authenticate", `Bearer realm="fleet"`)
	http.Error(w, "fleet: missing or invalid ingest token", http.StatusUnauthorized)
	return false
}

// throttle applies the per-remote-host token bucket to the ingest path.
func (s *Server) throttle(w http.ResponseWriter, r *http.Request) bool {
	if s.limiter == nil {
		return true
	}
	ok, wait := s.limiter.allow(limiterKey(r.RemoteAddr), time.Now())
	if ok {
		return true
	}
	s.metrics.rateLimited.Inc()
	secs := int64(wait/time.Second) + 1
	s.logger.Warn("ingest rate limited",
		"remote", r.RemoteAddr, "retryAfterSec", secs, "requestId", r.Header.Get(RequestIDHeader))
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	http.Error(w, "fleet: ingest rate limit exceeded", http.StatusTooManyRequests)
	return false
}

// requestID extracts the upload's X-Request-ID correlation field,
// minting one for requests that arrive without it (legacy clients), so
// every ingest log record and journal entry carries a grep-able handle.
func requestID(r *http.Request) string {
	if id := strings.TrimSpace(r.Header.Get(RequestIDHeader)); id != "" {
		if len(id) > 128 {
			id = id[:128]
		}
		return id
	}
	return telemetry.NewRequestID()
}

// EchoRequestID extracts (or mints) the request's correlation ID and
// echoes it on the response — the read-path half of the X-Request-ID
// contract, so failed fetches grep across tiers just like uploads.
// Exported so the cluster coordinator's read handlers share it.
func EchoRequestID(w http.ResponseWriter, r *http.Request) string {
	id := requestID(r)
	w.Header().Set(RequestIDHeader, id)
	return id
}

// handleObservations is the ingest path. The body must be a v2 batch
// frame carrying a batch ID. It is decoded whole (codec.DecodeBatch)
// before deltaMu is even touched, so decoding cost never extends lock
// hold time; the store then absorbs the snapshot key by key, each under
// its own stripe's lock (Store.AbsorbSnapshot), and the journal keeps
// the same snapshot for delta polls. Replies are JSON on success and
// failure.
func (s *Server) handleObservations(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	start := time.Now()
	defer s.metrics.ingestSec.ObserveSince(start)
	if !s.authorize(w, r) || !s.throttle(w, r) {
		return
	}
	reqID := requestID(r)
	w.Header().Set(RequestIDHeader, reqID)
	if ct := r.Header.Get("Content-Type"); !strings.HasPrefix(strings.TrimSpace(ct), codec.ContentTypeV2) {
		http.Error(w, fmt.Sprintf("fleet: observations must be %s frames, not %q", codec.ContentTypeV2, ct),
			http.StatusUnsupportedMediaType)
		return
	}
	buf := codec.GetBuffer()
	wireBytes, bodyBytes, err := readBodyMetered(w, r, s.maxBody, buf)
	s.metrics.wireBytes.Add(float64(wireBytes))
	s.metrics.bodyBytes.Add(float64(bodyBytes))
	if err != nil {
		codec.PutBuffer(buf)
		s.logger.Warn("ingest body rejected", "requestId", reqID, "error", err.Error())
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	batch, err := codec.DecodeBatch(buf.B)
	codec.PutBuffer(buf) // decoded values never alias the frame bytes
	if err != nil {
		s.logger.Warn("ingest frame rejected", "requestId", reqID, "error", err.Error())
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if batch.Snapshot == nil {
		http.Error(w, "fleet: batch has no snapshot", http.StatusBadRequest)
		return
	}
	if batch.BatchID == "" {
		http.Error(w, "fleet: batch has no batchId", http.StatusBadRequest)
		return
	}
	// Exactly-once ingest: a batch whose content-addressed ID is already
	// in the dedup window was absorbed by an earlier delivery whose ack
	// was lost — acknowledge it (Duplicate set) without re-absorbing. The
	// duplicate check comes BEFORE the stale-ring check: a retry of a
	// batch absorbed before a rebalance must ack as a duplicate (its
	// evidence was drained to the new owner), not make the client
	// re-split and double-deliver it.
	if s.dedup.has(batch.BatchID) {
		s.ackDuplicate(w, batch, reqID)
		return
	}
	// Cheap pre-check; the authoritative stale-ring check runs under the
	// shared deltaMu below, ordered against the rebalance announcement.
	if s.writeIfStale(w, batch, reqID) {
		return
	}
	// Shared deltaMu: absorbs from many clients stay concurrent, but a
	// full-resync read (which takes it exclusively) sees store and
	// journal at one consistent point — and the ring-version requirement
	// (raised exclusively) is re-checked here, so no stale batch can slip
	// in behind a rebalance's drain.
	s.deltaMu.RLock()
	if s.writeIfStale(w, batch, reqID) {
		s.deltaMu.RUnlock()
		return
	}
	if !s.dedup.admit(batch.BatchID) {
		s.deltaMu.RUnlock()
		s.ackDuplicate(w, batch, reqID)
		return
	}
	s.store.AbsorbSnapshot(batch.Snapshot)
	seq := s.journal.appendBatch(batch.Snapshot, reqID)
	s.deltaMu.RUnlock()
	s.store.NoteClient(batch.Client)
	runs, obs := batch.Snapshot.Runs, SnapshotObservations(batch.Snapshot)
	s.metrics.batches.Inc()
	s.metrics.observations.Add(float64(obs))
	s.metrics.runs.Add(float64(runs))
	s.logger.Info("ingest absorbed",
		"requestId", reqID, "batchId", batch.BatchID, "client", batch.Client,
		"runs", runs, "observations", obs, "seq", seq,
		"wireBytes", wireBytes, "bodyBytes", bodyBytes)
	version := s.log.Version()
	if n := s.pending.Add(1); s.correctEvery >= 0 && n > int64(s.correctEvery) {
		version, _ = s.Correct()
	}
	WriteJSON(w, IngestReply{
		OK:          true,
		RequestID:   reqID,
		Version:     version,
		Sites:       s.store.Sites(),
		Runs:        s.store.Runs(),
		RingVersion: s.ringVersion.Load(),
	})
}

// ackDuplicate acknowledges a batch the dedup window already holds,
// without re-absorbing it.
func (s *Server) ackDuplicate(w http.ResponseWriter, batch *codec.Batch, reqID string) {
	s.metrics.dedupHits.Inc()
	s.logger.Info("ingest duplicate acknowledged",
		"requestId", reqID, "batchId", batch.BatchID, "client", batch.Client)
	WriteJSON(w, IngestReply{
		OK:          true,
		Duplicate:   true,
		RequestID:   reqID,
		Version:     s.log.Version(),
		Sites:       s.store.Sites(),
		Runs:        s.store.Runs(),
		RingVersion: s.ringVersion.Load(),
	})
}

// writeIfStale rejects a versioned batch split under an older membership
// than this partition requires (409 + StaleRing), reporting whether it
// wrote the response. Unversioned batches always pass.
func (s *Server) writeIfStale(w http.ResponseWriter, batch *codec.Batch, reqID string) bool {
	cur := s.ringVersion.Load()
	if batch.RingVersion == 0 || cur == 0 || batch.RingVersion >= cur {
		return false
	}
	s.metrics.staleRing.Inc()
	s.logger.Warn("stale-ring upload rejected",
		"requestId", reqID, "batchId", batch.BatchID, "client", batch.Client,
		"batchRingVersion", batch.RingVersion, "requiredRingVersion", cur)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusConflict)
	json.NewEncoder(w).Encode(IngestReply{StaleRing: true, RequestID: reqID, RingVersion: cur})
	return true
}

// RequireRingVersion raises the partition's required membership version
// (it never regresses) and returns the version now in force. The raise
// is ordered against ingest through deltaMu: once it returns, every
// in-flight stale batch has either fully absorbed (and will be drained
// by the eviction that follows the announcement) or will be rejected.
func (s *Server) RequireRingVersion(v uint64) uint64 {
	s.deltaMu.Lock()
	defer s.deltaMu.Unlock()
	if cur := s.ringVersion.Load(); v > cur {
		s.ringVersion.Store(v)
	}
	return s.ringVersion.Load()
}

// handleRing is the rebalance announcement endpoint: POST /v1/ring
// {version} raises the required membership version.
func (s *Server) handleRing(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if !s.authorize(w, r) {
		return
	}
	var upd RingUpdate
	if err := DecodeJSONBody(w, r, s.maxBody, &upd); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if upd.Version == 0 {
		http.Error(w, "fleet: ring version must be positive", http.StatusBadRequest)
		return
	}
	v := s.RequireRingVersion(upd.Version)
	s.logger.Info("ring version announced", "announced", upd.Version, "required", v)
	WriteJSON(w, RingReply{OK: true, Version: v})
}

// Evict atomically removes and returns the canonical evidence for a key
// set (a rebalance drain), journaling the removal so delta pollers see
// it; with counters set it also drains the global run counters into the
// snapshot (a node leaving the cluster takes its totals with it). The
// extraction is exclusive against ingest (deltaMu), so the returned
// snapshot plus the remaining store partition the evidence exactly.
// Results are cached under token: re-evicting with the same token
// returns the original snapshot without touching the store or the
// eviction counter, which is what makes a crashed coordinator's re-drive
// lossless.
func (s *Server) Evict(token string, keys []site.ID, counters bool) (snap *cumulative.Snapshot, cached bool) {
	s.deltaMu.Lock()
	defer s.deltaMu.Unlock()
	if prev, ok := s.evicts.get(token); ok {
		return prev, true
	}
	snap = s.store.Extract(keys)
	if len(snap.Overflow)+len(snap.Dangling) > 0 {
		// The drained evidence keys' triage members are gone with them.
		s.corrector.MarkFull()
	}
	switch {
	case counters:
		r, f, cr := s.store.DrainCounters()
		snap.Runs, snap.FailedRuns, snap.CorruptRuns = int(r), int(f), int(cr)
		// Counter movement cannot be expressed as a journal op (run
		// counters only ever add), so a journal replay from before this
		// point would re-count the drained runs if the node ever rejoins.
		// Invalidate every cursor instead: pollers full-resync against
		// the post-drain store, which is the truth.
		s.journal.invalidate()
	case len(keys) > 0:
		// Empty key drains (nothing to move) need no journal entry —
		// there is no removal for a mirror to apply.
		s.journal.appendEvict(keys)
	}
	s.evicts.put(token, snap)
	s.metrics.evictions.Inc()
	s.logger.Info("rebalance drain served",
		"token", token, "keys", len(keys), "counters", counters)
	return snap, false
}

// handleEvict serves POST /v1/evict (see Evict). It is a write endpoint:
// token-authenticated when the server has an ingest token. The request
// is JSON; the answer is one batch frame stamped with the token as its
// batch ID and the required ring version, carrying the drained evidence.
func (s *Server) handleEvict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if !s.authorize(w, r) {
		return
	}
	var req EvictRequest
	if err := DecodeJSONBody(w, r, s.maxBody, &req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if req.Token == "" {
		http.Error(w, "fleet: evict needs an idempotency token", http.StatusBadRequest)
		return
	}
	snap, _ := s.Evict(req.Token, req.Keys, req.Counters)
	buf := codec.GetBuffer()
	defer codec.PutBuffer(buf)
	writeFrame(w, codec.EncodeBatch(buf, &codec.Batch{BatchID: req.Token, RingVersion: s.ringVersion.Load(), Snapshot: snap}))
}

// handleDeltas serves the partition→coordinator evidence feed: the
// batches absorbed after journal position ?since=S, one after another in
// journal order. Cursors outside the retained window (or from a previous
// incarnation) are answered with a Full resync taken at a consistent
// journal position.
func (s *Server) handleDeltas(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	var since uint64
	if q := r.URL.Query().Get("since"); q != "" {
		v, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			http.Error(w, "fleet: bad since: "+err.Error(), http.StatusBadRequest)
			return
		}
		since = v
	}
	reqID := EchoRequestID(w, r)
	entries, seq, ok := s.journal.since(since)
	if !ok {
		// Full resync: exclude in-flight ingest so the snapshot matches
		// the sequence number exactly.
		s.deltaMu.Lock()
		seq = s.journal.seqNow()
		hist := s.store.Combined()
		s.deltaMu.Unlock()
		s.logger.Info("delta poll answered with full resync",
			"since", since, "seq", seq, "requestId", reqID)
		writeDelta(w, &codec.Delta{Epoch: s.epoch, Seq: seq, Full: true, Snapshot: hist.Snapshot()})
		return
	}
	reply := codec.Delta{Epoch: s.epoch, Seq: seq}
	// Carry the window's correlation IDs so the coordinator's delta log
	// lines up with this partition's ingest log, upload by upload.
	for _, e := range entries {
		if e.reqID != "" && len(reply.ReqIDs) < maxDeltaReqIDs {
			reply.ReqIDs = append(reply.ReqIDs, e.reqID)
		}
	}
	// Each run of consecutive additions becomes one snapshot; a
	// rebalance eviction ends the run (ordering matters: evidence added
	// before the drain was drained, evidence added after it was not).
	// Windows without evictions carry a single snapshot.
	var ops []codec.DeltaOp
	for i := 0; i < len(entries); {
		if len(entries[i].evict) > 0 {
			ops = append(ops, codec.DeltaOp{Evict: entries[i].evict})
			i++
			continue
		}
		j := i + 1
		for j < len(entries) && len(entries[j].evict) == 0 {
			j++
		}
		ops = append(ops, codec.DeltaOp{Snapshot: concatBatches(s.store.cfg, entries[i:j])})
		i = j
	}
	if len(ops) == 1 && ops[0].Snapshot != nil {
		reply.Snapshot = ops[0].Snapshot
	} else {
		reply.Ops = ops
	}
	s.logger.Debug("deltas served",
		"since", since, "seq", seq, "entries", len(entries), "requestId", reqID)
	writeDelta(w, &reply)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	reqID := EchoRequestID(w, r)
	s.logger.Debug("status served", "requestId", reqID)
	WriteJSON(w, StatusReply{
		Build:       version.String(),
		Version:     s.log.Version(),
		Sites:       s.store.Sites(),
		Runs:        s.store.Runs(),
		FailedRuns:  s.store.FailedRuns(),
		CorruptRuns: s.store.CorruptRuns(),
		Batches:     s.store.Batches(),
		Clients:     s.store.Clients(),
		Reports:     s.reports.Seen(),
		PatchLen:    s.log.Len(),
		UptimeSec:   int64(time.Since(s.start).Seconds()),
		Corrections: s.corrector.Passes(),
		RateLimited: int64(s.metrics.rateLimited.Value()),
		DirtyKeys:   s.store.DirtyKeys(),
		Deduped:     int64(s.metrics.dedupHits.Value()),
		Seq:         s.journal.seqNow(),
		RingVersion: s.ringVersion.Load(),
		Evictions:   int64(s.metrics.evictions.Value()),
		Shards:      s.store.ShardStats(),
	})
}

// DecodeJSONBody strictly decodes one JSON document from the request
// body, opened by openBody. Exported so every fleet tier (the cluster
// coordinator included) accepts exactly the request bodies fleet.Client
// sends.
func DecodeJSONBody(w http.ResponseWriter, r *http.Request, limit int64, dst any) error {
	body, _, err := openBody(w, r, limit)
	if err != nil {
		return err
	}
	dec := json.NewDecoder(body)
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("fleet: decode body: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("fleet: decode body: trailing data")
	}
	return nil
}

// openBody opens a request body for reading, transparently
// decompressing Content-Encoding: gzip (the client's upload encoding
// for larger bodies). limit bounds both the bytes read off the wire and
// the decompressed bytes, so a decompression bomb cannot expand past
// it; any other encoding is an error. wire counts the bytes read off
// the wire. A gzip.Reader holds nothing its Close would release, so
// there is nothing to close.
func openBody(w http.ResponseWriter, r *http.Request, limit int64) (body io.Reader, wire *countReader, err error) {
	wire = &countReader{r: http.MaxBytesReader(w, r.Body, limit)}
	enc := r.Header.Get("Content-Encoding")
	if enc == "" {
		return wire, wire, nil
	}
	if !strings.EqualFold(enc, "gzip") {
		return nil, wire, fmt.Errorf("fleet: unsupported Content-Encoding %q", enc)
	}
	zr, err := gzip.NewReader(wire)
	if err != nil {
		return nil, wire, fmt.Errorf("fleet: decode gzip body: %w", err)
	}
	// Stream, no full-body buffer, but fail as soon as the decompressed
	// stream exceeds the limit.
	return &boundedReader{r: zr, remaining: limit + 1, limit: limit}, wire, nil
}

// readBodyMetered reads a whole request body, opened by openBody, into
// buf, so the ingest path can decode a frame from one pooled buffer. It
// reports the bytes read off the wire (compressed, when the client
// gzips) and the decoded body bytes — the pair behind the ingest
// byte/gzip-ratio metrics. The counts are valid even on error: they
// cover whatever was consumed before the failure.
func readBodyMetered(w http.ResponseWriter, r *http.Request, limit int64, buf *codec.Buffer) (wireBytes, bodyBytes int64, err error) {
	body, wire, err := openBody(w, r, limit)
	if err != nil {
		return wire.n, 0, err
	}
	decoded := &countReader{r: body}
	for {
		if len(buf.B) == cap(buf.B) {
			buf.B = append(buf.B, 0)[:len(buf.B)]
		}
		n, rerr := decoded.Read(buf.B[len(buf.B):cap(buf.B)])
		buf.B = buf.B[:len(buf.B)+n]
		if rerr == io.EOF {
			return wire.n, decoded.n, nil
		}
		if rerr != nil {
			return wire.n, decoded.n, fmt.Errorf("fleet: read body: %w", rerr)
		}
	}
}

// countReader counts the bytes read through it.
type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// boundedReader errors once more than limit bytes have been read — the
// decompressed-size analogue of http.MaxBytesReader, with O(1) memory.
type boundedReader struct {
	r         io.Reader
	remaining int64 // limit+1: consuming the extra byte is the violation
	limit     int64
}

func (b *boundedReader) Read(p []byte) (int, error) {
	if b.remaining <= 0 {
		return 0, fmt.Errorf("fleet: decompressed body exceeds %d bytes", b.limit)
	}
	if int64(len(p)) > b.remaining {
		p = p[:b.remaining]
	}
	n, err := b.r.Read(p)
	b.remaining -= int64(n)
	if b.remaining <= 0 && (err == nil || err == io.EOF) {
		// The stream delivered limit+1 bytes (even if it ended exactly
		// there): over the cap either way.
		err = fmt.Errorf("fleet: decompressed body exceeds %d bytes", b.limit)
	}
	return n, err
}

// WriteJSON encodes v as the response body with the JSON content type —
// the response-side twin of DecodeJSONBody, shared by every fleet tier.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// SaveSnapshot writes the server's durable state to path as one
// codec.State frame (WriteState): the evidence store, the dedup window,
// the required ring version, the evict cache and the triage alerter's
// exactly-once state. Persisting the window alongside the evidence is
// what carries exactly-once ingest across restarts: a batch absorbed
// before the snapshot and retried after the restore is still recognized
// as a duplicate. Everything but the alert state is captured under
// deltaMu held exclusively, so the dedup IDs correspond exactly to the
// evidence: no batch can slip between the two captures, which is what
// makes restore-and-retry lossless (an ID in the window without its
// evidence would make the server drop the retry as a duplicate).
func (s *Server) SaveSnapshot(path string) error {
	s.deltaMu.Lock()
	st := codec.State{
		RingVersion: s.ringVersion.Load(),
		Dedup:       s.dedup.ids(),
		Evicts:      s.evicts.entries(),
	}
	hist := s.store.Combined()
	s.deltaMu.Unlock()
	st.Evidence = hist.Snapshot()

	alerts, err := s.triage.AlertState()
	if err != nil {
		return fmt.Errorf("fleet: snapshot: %w", err)
	}
	st.Alerts = alerts
	if err := WriteState(path, &st); err != nil {
		return fmt.Errorf("fleet: snapshot: %w", err)
	}
	return nil
}

// LoadSnapshot restores the state SaveSnapshot wrote to path and runs a
// correction pass so the patch log is warm before the first poll. The
// alert state lands before that pass, so it does not re-arm (and later
// re-fire) an alert the previous incarnation delivered. A missing file
// is not an error (fresh start); a file that is not a state frame is,
// and nothing is restored from it.
func (s *Server) LoadSnapshot(path string) error {
	st, err := ReadState(path)
	if err != nil {
		return fmt.Errorf("fleet: restore %s: %w", path, err)
	}
	if st == nil {
		return nil
	}
	if err := s.triage.RestoreAlertState(st.Alerts); err != nil {
		return fmt.Errorf("fleet: restore %s: %w", path, err)
	}
	s.dedup.restore(st.Dedup)
	s.evicts.restore(st.Evicts)
	if st.RingVersion > 0 {
		s.RequireRingVersion(st.RingVersion)
	}
	// Restored evidence enters the store without a journal entry, so any
	// journal cursor issued before this point (including 0) can no longer
	// reconstruct the store from deltas — invalidate them all, forcing
	// pollers onto the full-resync path.
	s.deltaMu.Lock()
	s.store.AbsorbSnapshot(st.Evidence)
	s.journal.invalidate()
	s.deltaMu.Unlock()
	// The warm-up pass hands triage the complete candidate set.
	s.corrector.MarkFull()
	s.Correct()
	return nil
}

// WriteState writes st to path as one codec.State frame, through
// codec.WriteFile: a crash mid-write never corrupts the previous file,
// and a state too large for one frame (codec.MaxFrameBytes) is an error
// that leaves the previous file in place, since a restart could not read
// it. fleetd and the cluster coordinator both persist through it.
func WriteState(path string, st *codec.State) error {
	buf := codec.GetBuffer()
	defer codec.PutBuffer(buf)
	if err := codec.WriteFile(path, codec.EncodeState(buf, st)); err != nil {
		return fmt.Errorf("state: %w", err)
	}
	return nil
}

// ReadState reads a file WriteState wrote. A missing file returns nil
// and no error; a file that is not a current state frame is an error.
func ReadState(path string) (*codec.State, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	return codec.DecodeState(data)
}
