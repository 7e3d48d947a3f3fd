package triage

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"exterminator/internal/telemetry"
)

// Webhook alerting. Pass arms alerts under the engine lock (cheap map
// work only); delivery happens in DeliverAlerts, driven by the owning
// tier's background loop, which POSTs while holding NO triage lock —
// blocking I/O under a mutex is a lockio violation and would stall
// passes behind a slow webhook.
//
// Exactly-once: arming a cluster records it in the fired map *and*
// enqueues the payload in the pending queue atomically (one mutex), and
// both halves marshal into the owning tier's state file (the alerts
// section of a codec.State, on fleetd and the coordinator). A restart
// therefore neither re-arms an already-fired crossing (fired map
// restored) nor loses an armed-but-undelivered alert (pending queue
// restored and re-driven).

// Alert delivery defaults.
const (
	DefaultAlertCooldown = time.Hour
	DefaultMaxAttempts   = 5
	DefaultBackoff       = 2 * time.Second
	alertTimeout         = 10 * time.Second
)

// AlertConfig configures the webhook alerter. The zero value disables
// alerting entirely.
type AlertConfig struct {
	// URL is the webhook endpoint; empty disables alerting.
	URL string

	// BayesThreshold arms an alert when a cluster's pooled log10
	// Bayes factor reaches it; 0 disables the trigger.
	BayesThreshold float64

	// MinOccurrences arms an alert when a cluster's pooled observation
	// count reaches it (gasoline's "compound alert at N occurrences");
	// 0 disables the trigger.
	MinOccurrences int

	// Cooldown is the per-cluster re-arm floor (regressions re-arm a
	// cluster, but never faster than this). 0 means
	// DefaultAlertCooldown.
	Cooldown time.Duration

	// MaxAttempts bounds delivery retries per alert (0 means
	// DefaultMaxAttempts); Backoff is the base delay, doubled per
	// failed attempt (0 means DefaultBackoff).
	MaxAttempts int
	Backoff     time.Duration
}

func (c AlertConfig) withDefaults() AlertConfig {
	if c.Cooldown <= 0 {
		c.Cooldown = DefaultAlertCooldown
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = DefaultMaxAttempts
	}
	if c.Backoff <= 0 {
		c.Backoff = DefaultBackoff
	}
	return c
}

// Enabled reports whether any trigger can ever arm.
func (c AlertConfig) Enabled() bool {
	return c.URL != "" && (c.BayesThreshold > 0 || c.MinOccurrences > 0)
}

// firedRecord remembers that a cluster's crossing already alerted.
type firedRecord struct {
	Pass        uint64 `json:"pass"`
	Regressions int    `json:"regressions"`
	At          int64  `json:"at"` // unix nanoseconds
}

// pendingAlert is one queued delivery.
type pendingAlert struct {
	Payload   AlertPayload `json:"payload"`
	Attempts  int          `json:"attempts"`
	NotBefore int64        `json:"notBefore"` // unix nanoseconds
}

// alertState is the persisted form (AlertState's blob).
type alertState struct {
	Fired   map[string]firedRecord `json:"fired"`
	Pending []pendingAlert         `json:"pending"`
}

// Alerter owns alert dedup state and the delivery queue.
type Alerter struct {
	cfg    AlertConfig
	source string
	hc     *http.Client
	logger *slog.Logger
	m      *metricsSet
	now    func() time.Time

	mu      sync.Mutex
	fired   map[string]firedRecord
	pending []pendingAlert
}

func newAlerter(cfg AlertConfig, source string) *Alerter {
	return &Alerter{
		cfg:    cfg.withDefaults(),
		source: source,
		hc:     &http.Client{Timeout: alertTimeout},
		logger: slog.New(slog.DiscardHandler),
		now:    time.Now,
		fired:  make(map[string]firedRecord),
	}
}

// consider arms an alert for the cluster when a trigger holds and
// neither the dedup record nor the cooldown suppresses it. held reports
// a regression that only the cooldown suppressed: it arms on a later
// pass without new evidence, so the engine reconsiders it every pass.
// Called from Pass under the engine lock; takes only the alerter lock
// and does no I/O.
func (a *Alerter) consider(c ClusterSummary, pass uint64) (queued bool, reason string, held bool) {
	if !a.cfg.Enabled() {
		return false, "", false
	}
	switch {
	case a.cfg.BayesThreshold > 0 && c.PooledBayes >= a.cfg.BayesThreshold:
		reason = "bayes"
	case a.cfg.MinOccurrences > 0 && c.Occurrences >= a.cfg.MinOccurrences:
		reason = "occurrences"
	default:
		return false, "", false
	}
	now := a.now()
	a.mu.Lock()
	defer a.mu.Unlock()
	if rec, ok := a.fired[c.ID]; ok {
		// Already alerted: only a fresh regression re-arms, and never
		// inside the cooldown window.
		if c.Regressions <= rec.Regressions {
			return false, "", false
		}
		if now.Sub(time.Unix(0, rec.At)) < a.cfg.Cooldown {
			return false, "", true
		}
		reason = "regression"
	}
	a.fired[c.ID] = firedRecord{Pass: pass, Regressions: c.Regressions, At: now.UnixNano()}
	a.pending = append(a.pending, pendingAlert{
		Payload:   AlertPayload{Source: a.source, Reason: reason, Pass: pass, Cluster: c},
		NotBefore: now.UnixNano(),
	})
	return true, reason, false
}

// status reports a cluster's alert state for detail replies. Returns
// nil when alerting is off.
func (a *Alerter) status(id string) *AlertStatus {
	if !a.cfg.Enabled() {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	st := &AlertStatus{}
	if rec, ok := a.fired[id]; ok {
		st.Fired = true
		st.FiredPass = rec.Pass
	}
	for _, p := range a.pending {
		if p.Payload.Cluster.ID == id {
			st.Pending++
		}
	}
	return st
}

// DeliverAlerts drains the due half of the pending queue, POSTing each
// payload to the webhook with bounded retry+backoff. It returns the
// number delivered. No lock is held across a POST.
func (e *Engine) DeliverAlerts(ctx context.Context) int {
	if e == nil {
		return 0
	}
	return e.alerter.deliver(ctx)
}

// PendingAlerts reports the queued-but-undelivered alert count.
func (e *Engine) PendingAlerts() int {
	if e == nil {
		return 0
	}
	e.alerter.mu.Lock()
	defer e.alerter.mu.Unlock()
	return len(e.alerter.pending)
}

func (a *Alerter) deliver(ctx context.Context) int {
	if a.cfg.URL == "" {
		return 0
	}
	delivered := 0
	for ctx.Err() == nil {
		now := a.now()
		a.mu.Lock()
		idx := -1
		for i, p := range a.pending {
			if p.NotBefore <= now.UnixNano() {
				idx = i
				break
			}
		}
		if idx < 0 {
			a.mu.Unlock()
			break
		}
		p := a.pending[idx]
		a.pending = append(a.pending[:idx], a.pending[idx+1:]...)
		a.mu.Unlock()

		err := a.post(ctx, p.Payload)
		if err == nil {
			delivered++
			if a.m != nil {
				a.m.alertsFired.Inc()
			}
			a.logger.Info("alert delivered",
				"cluster", p.Payload.Cluster.ID, "reason", p.Payload.Reason,
				"attempt", p.Attempts+1)
			continue
		}
		p.Attempts++
		if p.Attempts >= a.cfg.MaxAttempts {
			if a.m != nil {
				a.m.alertDrops.Inc()
			}
			a.logger.Error("alert dropped after max attempts",
				"cluster", p.Payload.Cluster.ID, "attempts", p.Attempts, "error", err)
			continue
		}
		if a.m != nil {
			a.m.alertRetries.Inc()
		}
		backoff := a.cfg.Backoff << (p.Attempts - 1)
		p.NotBefore = now.Add(backoff).UnixNano()
		a.logger.Warn("alert delivery failed; will retry",
			"cluster", p.Payload.Cluster.ID, "attempt", p.Attempts,
			"backoffSec", backoff.Seconds(), "error", err)
		a.mu.Lock()
		a.pending = append(a.pending, p)
		a.mu.Unlock()
	}
	return delivered
}

func (a *Alerter) post(ctx context.Context, payload AlertPayload) error {
	body, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("triage: encode alert: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, a.cfg.URL, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("triage: alert request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(requestIDHeader, telemetry.NewRequestID())
	resp, err := a.hc.Do(req)
	if err != nil {
		return fmt.Errorf("triage: post alert: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return fmt.Errorf("triage: post alert: %s", resp.Status)
	}
	return nil
}

// AlertState marshals the alerter's dedup map and pending queue for
// snapshot persistence. A nil engine (a partition, which runs no
// triage) has no state and returns nil.
func (e *Engine) AlertState() ([]byte, error) {
	if e == nil {
		return nil, nil
	}
	a := e.alerter
	a.mu.Lock()
	defer a.mu.Unlock()
	return json.Marshal(alertState{Fired: a.fired, Pending: a.pending})
}

// RestoreAlertState replaces the alerter's state from a snapshot blob.
// Empty input (a state written without an alerter) is a no-op. The
// next pass reconsiders every cluster against the restored records.
func (e *Engine) RestoreAlertState(data []byte) error {
	if e == nil || len(data) == 0 {
		return nil
	}
	var st alertState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("triage: decode alert state: %w", err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.recheck = true
	a := e.alerter
	a.mu.Lock()
	defer a.mu.Unlock()
	a.fired = st.Fired
	if a.fired == nil {
		a.fired = make(map[string]firedRecord)
	}
	a.pending = st.Pending
	return nil
}
