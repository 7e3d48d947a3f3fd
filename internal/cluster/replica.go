package cluster

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"exterminator/internal/fleet"
	"exterminator/internal/fleet/codec"
	"exterminator/internal/patch"
	"exterminator/internal/telemetry"
	"exterminator/internal/version"
)

// Replica is the read-path fan-out tier: a stateless cache that polls a
// coordinator's patch log and triage ranking and re-serves them to any
// number of pollers, CDN-style. Patch distribution is overwhelmingly
// read-heavy — millions of installations poll, one merge tier writes —
// so replicas absorb the fan-in: each keeps a delta ring keyed by the
// *upstream's* version numbers (a poller talking to a replica sees the
// exact versions and epoch the coordinator would have served), stamps
// every response with the upstream ETag validator, and answers an
// unchanged poll with a bodyless 304. Losing a replica loses nothing:
// its entire state is rebuilt from one upstream poll.
//
// Replicas follow a failover pair transparently: configure the primary
// and standby as upstreams, and the replica rotates on transport
// failure or 503 and adopts the promoted standby's higher epoch (lower
// epochs — a zombie primary — are rejected, never cached).
type Replica struct {
	upstreams []string
	hc        *http.Client
	interval  time.Duration
	maxDeltas int
	logger    *slog.Logger
	reg       *telemetry.Registry
	metrics   replicaMetrics
	mux       *http.ServeMux
	start     time.Time

	mu     sync.Mutex
	active int // upstream currently polled (sticky rotation)
	synced bool
	epoch  uint64
	vers   uint64
	full   *patch.Set
	// entries is the delta ring: entries[i] holds exactly the patch
	// entries upstream versions (from, to] introduced, contiguous and
	// in order. Polls with a cursor inside the ring get the merged
	// suffix; older cursors get the full set (over-answering is safe —
	// patches compose by maxima).
	entries    []replicaDelta
	triageBody []byte
	triageETag string
}

type replicaDelta struct {
	from, to uint64
	set      *patch.Set
}

// ReplicaOptions configures a read replica.
type ReplicaOptions struct {
	// Upstreams are the coordinator base URLs in failover order
	// (primary first, standby after). At least one is required.
	Upstreams []string
	// PollInterval is the upstream refresh cadence, jittered ±10%
	// (0 = 1s).
	PollInterval time.Duration
	// MaxDeltas bounds the retained delta ring (0 = 64); pollers whose
	// cursor falls off the ring resync from the full set.
	MaxDeltas int
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

// replicaTriageLimit is the ranking depth a replica caches and serves.
// Replicas answer every GET /v1/triage with this cached body; paginated
// or per-cluster triage reads belong on the coordinator.
const replicaTriageLimit = 200

// replicaMetrics is the fan-out tier's instrument set.
type replicaMetrics struct {
	polls       *telemetry.Counter
	pollErrs    *telemetry.Counter
	failovers   *telemetry.Counter
	patchReqs   *telemetry.Counter
	patchNotMod *telemetry.Counter
	triageReqs  *telemetry.Counter
	triageNM    *telemetry.Counter
	versionG    *telemetry.Gauge
}

func (m *replicaMetrics) register(reg *telemetry.Registry) {
	m.polls = reg.Counter("cluster_replica_polls_total",
		"Upstream refresh rounds (patch log + triage ranking).")
	m.pollErrs = reg.Counter("cluster_replica_poll_errors_total",
		"Failed upstream refreshes (the cache keeps serving its last state).")
	m.failovers = reg.Counter("cluster_replica_upstream_failovers_total",
		"Upstream rotations after a transport failure, 503, or stale (lower-epoch) answer.")
	m.patchReqs = reg.Counter("cluster_replica_patch_requests_total",
		"GET /v1/patches requests served from the cache.")
	m.patchNotMod = reg.Counter("cluster_replica_patch_not_modified_total",
		"Patch polls answered 304 off the If-None-Match validator (the replica hit ratio's numerator).")
	m.triageReqs = reg.Counter("cluster_replica_triage_requests_total",
		"GET /v1/triage requests served from the cache.")
	m.triageNM = reg.Counter("cluster_replica_triage_not_modified_total",
		"Triage reads answered 304 off the If-None-Match validator.")
	m.versionG = reg.Gauge("cluster_replica_patch_version",
		"Upstream patch-log version the cache currently mirrors.")
	telemetry.RegisterBuildInfo(reg)
}

// NewReplica returns a read replica over the given upstreams.
func NewReplica(opts ReplicaOptions) (*Replica, error) {
	var ups []string
	for _, u := range opts.Upstreams {
		if u = strings.TrimRight(strings.TrimSpace(u), "/"); u != "" {
			ups = append(ups, u)
		}
	}
	if len(ups) == 0 {
		return nil, fmt.Errorf("cluster: replica needs at least one upstream")
	}
	r := &Replica{
		upstreams: ups,
		hc:        &http.Client{Timeout: 15 * time.Second},
		interval:  opts.PollInterval,
		maxDeltas: opts.MaxDeltas,
		full:      patch.New(),
		start:     time.Now(),
	}
	if r.interval <= 0 {
		r.interval = time.Second
	}
	if r.maxDeltas <= 0 {
		r.maxDeltas = 64
	}
	if opts.Token != "" {
		r.hc.Transport = &bearerTransport{token: opts.Token, base: http.DefaultTransport}
	}
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
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/patches", r.handlePatches)
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

// bearerTransport stamps upstream polls with the cluster's ingest token.
type bearerTransport struct {
	token string
	base  http.RoundTripper
}

func (t *bearerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	req.Header.Set("Authorization", "Bearer "+t.token)
	return t.base.RoundTrip(req)
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

// PollOnce refreshes the patch and triage caches from the upstream. All
// network I/O happens before the replica's lock is taken; a failed
// refresh leaves the cache serving its previous state.
func (r *Replica) PollOnce(ctx context.Context) error {
	r.metrics.polls.Inc()
	r.mu.Lock()
	since := uint64(0)
	if r.synced {
		since = r.vers
	}
	epoch := r.epoch
	r.mu.Unlock()

	w, err := r.fetchPatches(ctx, since)
	if err != nil {
		r.metrics.pollErrs.Inc()
		return err
	}
	if epoch != 0 && w.Epoch != 0 && w.Epoch != epoch {
		if w.Epoch < epoch {
			// Zombie primary: rotate away and refuse the stale state.
			r.rotate()
			r.metrics.pollErrs.Inc()
			return fmt.Errorf("cluster: replica upstream answered stale epoch %d (have %d)", w.Epoch, epoch)
		}
		// Failover (or coordinator restart): version numbering restarted
		// under the new epoch, so rebuild the cache from a full fetch.
		if w, err = r.fetchPatches(ctx, 0); err != nil {
			r.metrics.pollErrs.Inc()
			return err
		}
		since = 0
		r.logger.Info("upstream epoch changed; cache rebuilt", "epoch", w.Epoch, "version", w.Version)
	}

	tbody, terr := r.fetchTriage(ctx)
	if terr != nil {
		// Patch state still applies; triage keeps its last body.
		r.logger.Warn("triage refresh failed", "error", terr.Error())
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if since == 0 {
		r.full = w.Set()
		r.entries = nil
		r.epoch, r.vers, r.synced = w.Epoch, w.Version, true
	} else if w.Version > r.vers {
		delta := w.Set()
		r.full.Merge(delta)
		r.entries = append(r.entries, replicaDelta{from: r.vers, to: w.Version, set: delta})
		if len(r.entries) > r.maxDeltas {
			r.entries = append([]replicaDelta(nil), r.entries[len(r.entries)-r.maxDeltas:]...)
		}
		r.vers = w.Version
		if w.Epoch != 0 {
			r.epoch = w.Epoch
		}
	}
	r.metrics.versionG.Set(float64(r.vers))
	if terr == nil && len(tbody) > 0 {
		r.triageBody = tbody
		h := fnv.New64a()
		h.Write(tbody)
		r.triageETag = fmt.Sprintf("%q", fmt.Sprintf("t%x", h.Sum64()))
	}
	return nil
}

// rotate advances to the next upstream (sticky).
func (r *Replica) rotate() {
	r.mu.Lock()
	r.active = (r.active + 1) % len(r.upstreams)
	r.mu.Unlock()
	r.metrics.failovers.Inc()
}

func (r *Replica) upstream() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.upstreams[r.active]
}

// fetchPatches polls one upstream, rotating through the failover set on
// transport errors and 503s (a standby answering before promotion).
func (r *Replica) fetchPatches(ctx context.Context, since uint64) (*fleet.WirePatchSet, error) {
	var lastErr error
	for i := 0; i < len(r.upstreams); i++ {
		base := r.upstream()
		resp, err := r.getURL(ctx, fmt.Sprintf("%s/v1/patches?since=%d", base, since), codec.ContentTypeV2)
		if err != nil {
			lastErr = err
			r.rotate()
			continue
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			lastErr = fmt.Errorf("cluster: replica upstream %s unavailable (503)", base)
			r.rotate()
			continue
		}
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			resp.Body.Close()
			return nil, fmt.Errorf("cluster: replica poll %s: %s: %s", base, resp.Status, strings.TrimSpace(string(msg)))
		}
		w, err := fleet.DecodePatchSetResponse(resp)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("cluster: replica poll %s: %w", base, err)
		}
		return w, nil
	}
	return nil, lastErr
}

// fetchTriage polls the upstream ranking body the replica re-serves.
func (r *Replica) fetchTriage(ctx context.Context) ([]byte, error) {
	base := r.upstream()
	resp, err := r.getURL(ctx, fmt.Sprintf("%s/v1/triage?limit=%d", base, replicaTriageLimit), "")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("cluster: replica triage poll %s: %s: %s", base, resp.Status, strings.TrimSpace(string(msg)))
	}
	return io.ReadAll(io.LimitReader(resp.Body, 16<<20))
}

func (r *Replica) getURL(ctx context.Context, url, accept string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set(fleet.RequestIDHeader, telemetry.NewRequestID())
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	return r.hc.Do(req)
}

func (r *Replica) handlePatches(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	reqID := fleet.EchoRequestID(w, req)
	r.metrics.patchReqs.Inc()
	var since uint64
	if q := req.URL.Query().Get("since"); q != "" {
		v, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			http.Error(w, "cluster: bad since: "+err.Error(), http.StatusBadRequest)
			return
		}
		since = v
	}

	// Assemble the response under the lock, write it after release (no
	// blocking I/O under a data lock).
	r.mu.Lock()
	if !r.synced {
		r.mu.Unlock()
		w.Header().Set("Retry-After", "1")
		http.Error(w, "cluster: replica warming (no upstream state yet)", http.StatusServiceUnavailable)
		return
	}
	epoch, vers := r.epoch, r.vers
	var ps *patch.Set
	switch {
	case since >= vers:
		if since > vers {
			// A cursor this incarnation never issued: resync, exactly
			// like the coordinator would.
			ps = r.full.Clone()
		} else {
			ps = patch.New()
		}
	case len(r.entries) == 0 || since < r.entries[0].from:
		ps = r.full.Clone()
	default:
		ps = patch.New()
		for _, e := range r.entries {
			if e.to > since {
				ps.Merge(e.set)
			}
		}
	}
	r.mu.Unlock()

	if fleet.MatchETag(w, req, fleet.PatchETag(epoch, vers)) {
		r.metrics.patchNotMod.Inc()
		r.logger.Debug("patches revalidated (304)", "since", since, "version", vers, "requestId", reqID)
		return
	}
	wire := fleet.ToWire(ps, vers)
	wire.Epoch = epoch
	r.logger.Debug("patches served", "since", since, "version", vers, "requestId", reqID)
	fleet.WritePatchSet(w, req, wire)
}

func (r *Replica) handleTriage(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	reqID := fleet.EchoRequestID(w, req)
	r.metrics.triageReqs.Inc()
	r.mu.Lock()
	body, etag := r.triageBody, r.triageETag
	r.mu.Unlock()
	if len(body) == 0 {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "cluster: replica warming (no triage state yet)", http.StatusServiceUnavailable)
		return
	}
	if fleet.MatchETag(w, req, etag) {
		r.metrics.triageNM.Inc()
		r.logger.Debug("triage revalidated (304)", "requestId", reqID)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	r.logger.Debug("triage served", "requestId", reqID)
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
	r.mu.Lock()
	defer r.mu.Unlock()
	return &ReplicaStatus{
		Build:            version.String(),
		Upstream:         r.upstreams[r.active],
		ReplicaVersion:   r.vers,
		ReplicaEpoch:     r.epoch,
		Synced:           r.synced,
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
