package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"exterminator/internal/fleet"
	"exterminator/internal/telemetry"
	"exterminator/internal/version"
)

// Replica is the read-path fan-out tier: a stateless cache that polls a
// coordinator's patch log and re-serves it to any number of pollers,
// CDN-style. Patch distribution is overwhelmingly read-heavy — millions
// of installations poll, one merge tier writes — so replicas absorb the
// fan-in. The cache is a fleet.PatchLog that follows the upstream's: it
// keeps the *upstream's* version numbers and epoch (a poller talking to
// a replica sees exactly what the coordinator would have served) and
// answers GET /v1/patches through the same handler, ETag and 304
// included. Losing a replica loses nothing: its entire state is rebuilt
// from one upstream poll. The rare GET /v1/triage is forwarded upstream
// with its query, so every tier answers a ranking query with the same
// bytes and the replica keeps no copy of the ranking.
//
// Upstream requests go through one fleet.Client, so replicas follow a
// failover pair transparently: configure the primary and standby as
// upstreams, and the client rotates on transport failure or 503,
// resyncs when the epoch rises, and never adopts a lower epoch (a
// zombie primary).
type Replica struct {
	client   *fleet.Client
	log      *fleet.PatchLog
	interval time.Duration
	logger   *slog.Logger
	reg      *telemetry.Registry
	metrics  replicaMetrics
	mux      *http.ServeMux
	start    time.Time
	// synced is false until the first successful upstream poll; until
	// then every patch read answers 503.
	synced atomic.Bool
}

// ReplicaOptions configures a read replica.
type ReplicaOptions struct {
	// Upstreams are the coordinator base URLs in failover order
	// (primary first, standby after). At least one is required.
	Upstreams []string
	// PollInterval is the upstream refresh cadence, jittered ±10%
	// (0 = 1s).
	PollInterval time.Duration
	// Token authenticates upstream polls when the cluster is
	// token-hardened (optional; the replica's own read surface is
	// unauthenticated, like every patch read path).
	Token string
	// WireV2 is ignored: upstream patch polls always ask for v2 frames.
	//
	// Deprecated: the benchmark module (bench/) still sets it; the next
	// change to the benchmark drops that, and then this field is deleted.
	WireV2 bool
	// Metrics is the registry the replica's instruments register into
	// (nil gets a private one); Logger receives its structured log
	// (nil discards).
	Metrics *telemetry.Registry
	Logger  *slog.Logger
}

// replicaMetrics is the fan-out tier's instrument set. Upstream
// rotations are counted by the embedded client, as
// fleet_client_failovers_total in the same registry.
type replicaMetrics struct {
	polls       *telemetry.Counter
	pollErrs    *telemetry.Counter
	patchReqs   *telemetry.Counter
	patchNotMod *telemetry.Counter
	triageReqs  *telemetry.Counter
	versionG    *telemetry.Gauge
}

func (m *replicaMetrics) register(reg *telemetry.Registry) {
	m.polls = reg.Counter("cluster_replica_polls_total",
		"Upstream refresh rounds (patch log).")
	m.pollErrs = reg.Counter("cluster_replica_poll_errors_total",
		"Failed upstream refreshes (the cache keeps serving its last state).")
	m.patchReqs = reg.Counter("cluster_replica_patch_requests_total",
		"GET /v1/patches requests served from the cache.")
	m.patchNotMod = reg.Counter("cluster_replica_patch_not_modified_total",
		"Patch polls answered 304 off the If-None-Match validator (the replica hit ratio's numerator).")
	m.triageReqs = reg.Counter("cluster_replica_triage_requests_total",
		"GET /v1/triage requests forwarded upstream.")
	m.versionG = reg.Gauge("cluster_replica_patch_version",
		"Upstream patch-log version the cache currently mirrors.")
	telemetry.RegisterBuildInfo(reg)
}

// NewReplica returns a read replica over the given upstreams.
func NewReplica(opts ReplicaOptions) (*Replica, error) {
	if len(opts.Upstreams) == 0 {
		return nil, fmt.Errorf("cluster: replica needs at least one upstream")
	}
	r := &Replica{
		client:   fleet.NewClient(opts.Upstreams[0], "replica"),
		log:      fleet.NewPatchLog(),
		interval: opts.PollInterval,
		start:    time.Now(),
	}
	r.client.SetFallbacks(opts.Upstreams[1:]...)
	r.client.SetToken(opts.Token)
	if r.interval <= 0 {
		r.interval = time.Second
	}
	r.client.SetLogger(opts.Logger)
	r.logger = opts.Logger
	if r.logger == nil {
		r.logger = slog.New(slog.DiscardHandler)
	}
	r.logger = r.logger.With("component", "replica")
	r.reg = opts.Metrics
	if r.reg == nil {
		r.reg = telemetry.NewRegistry()
	}
	r.metrics.register(r.reg)
	r.client.SetMetrics(r.reg)
	patches := r.log.Handler(r.logger, r.metrics.patchReqs, r.metrics.patchNotMod)
	mux := http.NewServeMux()
	mux.Handle("/v1/patches", http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.synced.Load() {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "cluster: replica warming (no upstream state yet)", http.StatusServiceUnavailable)
			return
		}
		patches.ServeHTTP(w, req)
	}))
	mux.HandleFunc("/v1/triage", r.handleTriage)
	mux.HandleFunc("/v1/status", r.handleStatus)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.Handle("/metrics", r.reg.Handler())
	r.mux = mux
	return r, nil
}

// Handler returns the replica's HTTP handler.
func (r *Replica) Handler() http.Handler { return r.mux }

// Metrics exposes the replica's registry (also served on GET /metrics).
func (r *Replica) Metrics() *telemetry.Registry { return r.reg }

// Run refreshes the cache every poll interval (jittered ±10% — a
// replica fleet must not poll the coordinator in phase) until ctx is
// done.
func (r *Replica) Run(ctx context.Context) {
	t := time.NewTimer(fleet.JitterInterval(r.interval))
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if err := r.PollOnce(ctx); err != nil {
				r.logger.Warn("upstream refresh failed", "error", err.Error())
			}
			t.Reset(fleet.JitterInterval(r.interval))
		}
	}
}

// PollOnce refreshes the patch cache from the upstream: one conditional
// patch poll. A failed refresh leaves the cache serving its previous
// state.
func (r *Replica) PollOnce(ctx context.Context) error {
	r.metrics.polls.Inc()
	synced := r.synced.Load()
	since := uint64(0)
	if synced {
		since = r.log.Version()
	}
	delta, v, err := r.client.PatchesContext(ctx, since)
	if err != nil {
		r.metrics.pollErrs.Inc()
		return err
	}
	if epoch := r.client.Epoch(); !synced || epoch != r.log.Epoch() {
		// First poll, or a failover or restart upstream: the client
		// resynced from version 0 under the new epoch.
		r.log.Resync(delta, v, epoch)
		r.logger.Info("cache resynced from upstream", "epoch", epoch, "version", v)
	} else {
		r.log.Follow(delta, v)
	}
	r.synced.Store(true)
	r.metrics.versionG.Set(float64(r.log.Version()))
	return nil
}

// handleTriage forwards GET /v1/triage upstream with the request's
// offset and limit, read as triage.Engine.ServeHTTP reads them (a value
// that does not parse counts as 0), under the X-Request-ID it echoes,
// and answers the upstream's page as written once it parses. No upstream
// answering a page that parses is a 502; the replica keeps nothing
// either way.
func (r *Replica) handleTriage(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	reqID := fleet.EchoRequestID(w, req)
	r.metrics.triageReqs.Inc()
	q := req.URL.Query()
	offset, _ := strconv.Atoi(q.Get("offset"))
	limit, _ := strconv.Atoi(q.Get("limit"))
	body, err := r.client.TriagePage(req.Context(), offset, limit, reqID)
	if err == nil && !json.Valid(body) {
		err = errors.New("cluster: upstream triage page is not JSON")
	}
	if err != nil {
		r.logger.Warn("triage forward failed", "requestId", reqID, "error", err.Error())
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	// The page declares its length, as the coordinator's does: one over
	// net/http's 2 KB buffer would otherwise go out chunked.
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	r.logger.Debug("triage forwarded", "requestId", reqID)
	w.Write(body)
}

// ReplicaStatus is the replica's GET /v1/status body.
type ReplicaStatus struct {
	// Build identifies the serving binary; Upstream is the base URL
	// currently polled.
	Build    string `json:"build,omitempty"`
	Upstream string `json:"upstream"`
	// ReplicaVersion and ReplicaEpoch mirror the upstream patch-log
	// cursor the cache is valid at; Synced is false until the first
	// successful upstream poll.
	ReplicaVersion uint64 `json:"replicaVersion"`
	ReplicaEpoch   uint64 `json:"replicaEpoch"`
	Synced         bool   `json:"synced"`
	// PatchRequests / PatchNotModified are the served-read counters
	// (their ratio is the cache hit ratio); Polls / PollErrors count
	// upstream refreshes.
	PatchRequests    int64 `json:"patchRequests"`
	PatchNotModified int64 `json:"patchNotModified"`
	Polls            int64 `json:"polls"`
	PollErrors       int64 `json:"pollErrors"`
	UptimeSec        int64 `json:"uptimeSec"`
}

// Status assembles the replica's GET /v1/status body.
func (r *Replica) Status() *ReplicaStatus {
	return &ReplicaStatus{
		Build:            version.String(),
		Upstream:         r.client.Base(),
		ReplicaVersion:   r.log.Version(),
		ReplicaEpoch:     r.log.Epoch(),
		Synced:           r.synced.Load(),
		PatchRequests:    int64(r.metrics.patchReqs.Value()),
		PatchNotModified: int64(r.metrics.patchNotMod.Value()),
		Polls:            int64(r.metrics.polls.Value()),
		PollErrors:       int64(r.metrics.pollErrs.Value()),
		UptimeSec:        int64(time.Since(r.start).Seconds()),
	}
}

func (r *Replica) handleStatus(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	reqID := fleet.EchoRequestID(w, req)
	st := r.Status()
	r.logger.Debug("status served", "requestId", reqID)
	fleet.WriteJSON(w, st)
}
