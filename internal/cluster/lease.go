package cluster

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"exterminator/internal/fleet"
)

// Coordinator high availability: a warm standby runs the same merge
// tier against the same partition journals — mirrors warm, cursors
// advancing — but gates its client-facing read/write surface behind a
// 503 until it holds the lease. Takeover is an epoch handoff, not a
// state transfer: the patch log is a pure function of the partition
// journals (a join-semilattice folded by maxima), so the standby's log
// converges to the primary's by construction and the only thing that
// must move is the *authority* to serve it. Authority is the epoch:
// every patch response is stamped with it, clients track the highest
// epoch they have integrated, and a promoted standby takes an epoch
// strictly above anything the old primary ever issued — a zombie
// primary keeps answering, but nobody believes it.

// leaseProbeDefault is the consecutive failed lease probes after which
// a standby with no explicit TakeoverAfter promotes itself.
const leaseProbeDefault = 3

// Primary reports whether this coordinator currently holds the lease
// (serves the patch/triage/report/rebalance surface).
func (c *Coordinator) Primary() bool { return c.primary.Load() }

// Epoch returns the incarnation stamp this coordinator puts in patch
// responses. It rises monotonically across failovers.
func (c *Coordinator) Epoch() uint64 { return c.log.Epoch() }

// Lease assembles the GET /v1/lease body.
func (c *Coordinator) Lease() *fleet.LeaseReply {
	return &fleet.LeaseReply{
		Epoch:        c.log.Epoch(),
		Holder:       c.holder,
		Primary:      c.primary.Load(),
		PatchVersion: c.log.Version(),
	}
}

// Promote makes a standby the primary. The epoch is bumped strictly
// above both wall-clock now and the highest epoch observed from the old
// primary's lease, any rebalance journal the old primary left mid-drain
// is re-driven, and a correction pass warms the patch log — then the
// gate opens and the first client poll is served current state. Calling
// Promote on a coordinator that is already primary is a no-op.
func (c *Coordinator) Promote(ctx context.Context) error {
	if c.primary.Swap(true) {
		return nil
	}
	epoch := uint64(time.Now().UnixNano())
	if seen := c.seenPrimaryEpoch.Load(); seen >= epoch {
		epoch = seen + 1
	}
	c.log.SetEpoch(epoch)
	c.metrics.failovers.Inc()
	c.metrics.primaryG.Set(1)
	c.logger.Info("promoted to primary", "epoch", epoch, "holder", c.holder)
	if c.rebalPath != "" {
		// The old primary may have died between drain and backfill; the
		// journal is shared state (operators point both coordinators at
		// the same file or a copy of it), so the re-drive is lossless
		// wherever the crash landed. A failed re-drive does not block
		// promotion — the operator retries with POST /v1/rebalance {}.
		if res, err := c.ResumeRebalance(ctx); err != nil {
			c.logger.Warn("rebalance re-drive failed after promotion", "error", err.Error())
		} else if res != nil {
			c.logger.Info("re-drove interrupted rebalance after promotion",
				"membershipVersion", res.Version, "movedKeys", res.MovedKeys)
		}
	}
	c.Correct()
	return nil
}

// probePrimary runs one standby lease probe against the primary. It
// tracks the primary's epoch (the floor a later promotion must clear)
// and counts consecutive failures; once the threshold is reached the
// standby promotes itself. Called from Run's standby branch only —
// probeFails needs no lock.
func (c *Coordinator) probePrimary(ctx context.Context) {
	if c.primaryClient == nil || c.primary.Load() {
		return
	}
	c.metrics.leaseProbes.Inc()
	lr, err := c.primaryClient.Lease(ctx)
	if err != nil {
		c.probeFails++
		c.metrics.leaseProbeErrs.Inc()
		c.logger.Warn("primary lease probe failed",
			"consecutiveFailures", c.probeFails, "takeoverAfter", c.takeoverAfter, "error", err.Error())
		if c.probeFails >= c.takeoverAfter {
			c.Promote(ctx)
		}
		return
	}
	c.probeFails = 0
	if lr.Epoch > c.seenPrimaryEpoch.Load() {
		c.seenPrimaryEpoch.Store(lr.Epoch)
	}
}

// handleLease serves GET /v1/lease (lease state) and POST /v1/lease
// (manual promotion — the operator's forced-failover lever; token-gated
// like every other write when the cluster is token-hardened).
func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	reqID := fleet.EchoRequestID(w, r)
	switch r.Method {
	case http.MethodGet:
		c.logger.Debug("lease served", "requestId", reqID)
		fleet.WriteJSON(w, c.Lease())
	case http.MethodPost:
		if !c.authorize(w, r) {
			return
		}
		if err := c.Promote(r.Context()); err != nil {
			http.Error(w, "cluster: promote: "+err.Error(), http.StatusInternalServerError)
			return
		}
		c.logger.Info("manual promotion via POST /v1/lease", "requestId", reqID)
		fleet.WriteJSON(w, c.Lease())
	default:
		http.Error(w, "GET or POST only", http.StatusMethodNotAllowed)
	}
}

// gatePrimary wraps a client-facing handler so a standby answers 503
// (with Retry-After) instead of serving or mutating state it does not
// own. Clients with the standby configured as a fallback rotate straight
// back to the primary; after a takeover the gate is open and the same
// rotation lands here.
func (c *Coordinator) gatePrimary(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !c.primary.Load() {
			w.Header().Set("Retry-After", "1")
			http.Error(w, fmt.Sprintf("cluster: %s is standing by (not primary)", c.holder),
				http.StatusServiceUnavailable)
			return
		}
		next.ServeHTTP(w, r)
	})
}
