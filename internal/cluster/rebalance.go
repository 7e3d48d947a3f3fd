package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sort"
	"time"

	"exterminator/internal/cumulative"
	"exterminator/internal/fleet"
	"exterminator/internal/fleet/codec"
	"exterminator/internal/site"
	"exterminator/internal/telemetry"
)

// Live ring rebalancing: when cluster membership changes, the keys the
// ring reassigns must take their accumulated evidence with them —
// otherwise a moved key's fresh observations pile up on the new owner
// while its old evidence ages on the previous one, and the Bayesian test
// never again sees the pooled multiset that gives fleet mode its power.
// Rebalance drains moved keys from their old owners (POST /v1/evict,
// idempotent via per-(version, partition) tokens) and backfills them
// into the new owners through the exactly-once stamped-batch path, under
// a two-phase journal:
//
//	begin v — the plan (old and new membership) is durable
//	done v  — membership committed, mirrors caught up
//
// A coordinator killed anywhere in between re-drives the plan on
// restart: evictions replay from the partitions' evict caches (same
// token returns the originally drained snapshot), and backfill batch IDs
// are deterministic functions of (version, source partition, piece), so
// a piece that already landed is acknowledged as a duplicate. Re-drains
// at worst; never a lost or double-counted observation.
//
// Ordering against writers: the new membership version is announced to
// every partition (POST /v1/ring) *before* any key moves, so uploads
// split under the old ring bounce with IngestReply.StaleRing instead of
// stranding evidence on a former owner; writers refresh membership from
// the coordinator and re-split. The whole drain/backfill section runs
// with the poll loop frozen (pollMu), so no correction pass can observe
// the half-moved evidence state.

// Rebalance states reported in ClusterStatus.Rebalance.
const (
	RebalanceIdle        = "idle"
	RebalanceRebalancing = "rebalancing"
	RebalanceFailed      = "failed"
	RebalanceDone        = "done"
)

// RebalanceState is the drain/backfill engine's externally visible
// state (ClusterStatus.Rebalance).
type RebalanceState struct {
	State string `json:"state"`
	// Version is the membership version the most recent rebalance moved
	// to (or is moving to / failed moving to).
	Version uint64 `json:"version,omitempty"`
	// MovedKeys counts the evidence keys the most recent completed
	// rebalance drained and backfilled.
	MovedKeys int `json:"movedKeys"`
	// DrainedPartitions counts the old owners that gave up keys.
	DrainedPartitions int    `json:"drainedPartitions"`
	LastError         string `json:"lastError,omitempty"`
}

// RebalanceResult summarizes one completed rebalance.
type RebalanceResult struct {
	// Version is the membership version now in force.
	Version uint64 `json:"version"`
	// Nodes is the new membership.
	Nodes []string `json:"nodes"`
	// MovedKeys is the total number of evidence keys drained and
	// backfilled; Drained breaks it down by source partition.
	MovedKeys int            `json:"movedKeys"`
	Drained   map[string]int `json:"drained,omitempty"`
}

// rebalPlan is the durable core of one rebalance: everything a re-drive
// needs, independent of in-memory state.
type rebalPlan struct {
	Version uint64
	Old     []string
	New     []string
}

// rebalRecord is one line of the two-phase journal. Recovery reads
// only begin and done; journals written by older builds also hold
// per-partition drain and backfilled records, which it skips.
type rebalRecord struct {
	Op      string   `json:"op"` // begin | done
	Version uint64   `json:"version,omitempty"`
	Old     []string `json:"old,omitempty"`
	New     []string `json:"new,omitempty"`
}

// AddNode grows the cluster by one partition, draining the keys the ring
// reassigns to it from their old owners. Shorthand for Rebalance.
func (c *Coordinator) AddNode(ctx context.Context, base string) (*RebalanceResult, error) {
	return c.Rebalance(ctx, []string{base}, nil)
}

// RemoveNode shrinks the cluster by one partition, draining everything
// it owns to the survivors. The node must stay reachable until the
// rebalance completes; shut it down afterwards.
func (c *Coordinator) RemoveNode(ctx context.Context, base string) (*RebalanceResult, error) {
	return c.Rebalance(ctx, nil, []string{base})
}

// Rebalance applies a membership change — add joins, remove drains out —
// moving every reassigned key's evidence to its new owner. With both
// lists empty it resumes a pending (crashed or failed) rebalance from
// the journal; while one is pending, new membership changes are refused
// until it is driven to completion.
func (c *Coordinator) Rebalance(ctx context.Context, add, remove []string) (*RebalanceResult, error) {
	c.rebalMu.Lock()
	defer c.rebalMu.Unlock()
	pending, completed, err := readJournalPlans(c.rebalPath)
	if err != nil {
		return nil, fmt.Errorf("cluster: rebalance journal: %w", err)
	}
	c.adoptCompletedPlan(completed)
	var plan *rebalPlan
	if len(add) == 0 && len(remove) == 0 {
		if pending == nil {
			return nil, errors.New("cluster: rebalance: no membership change given and no pending rebalance to resume")
		}
		plan = pending
	} else {
		if pending != nil {
			return nil, fmt.Errorf("cluster: rebalance to version %d is incomplete; resume it first (POST /v1/rebalance with an empty change)", pending.Version)
		}
		curV, curNodes := c.ring.Membership()
		set := make(map[string]bool, len(curNodes))
		for _, n := range curNodes {
			set[n] = true
		}
		changed := false
		for _, n := range add {
			if n != "" && !set[n] {
				set[n] = true
				changed = true
			}
		}
		for _, n := range remove {
			if set[n] {
				delete(set, n)
				changed = true
			}
		}
		if !changed {
			return nil, errors.New("cluster: rebalance: membership unchanged")
		}
		if len(set) == 0 {
			return nil, errors.New("cluster: rebalance: change would leave the ring without members")
		}
		newNodes := make([]string, 0, len(set))
		for n := range set {
			newNodes = append(newNodes, n)
		}
		sort.Strings(newNodes)
		plan = &rebalPlan{Version: curV + 1, Old: curNodes, New: newNodes}
		if err := c.journalRebal(rebalRecord{Op: "begin", Version: plan.Version, Old: plan.Old, New: plan.New}); err != nil {
			return nil, err
		}
	}
	return c.runRebalance(ctx, plan)
}

// ResumeRebalance re-drives a rebalance the journal shows incomplete (a
// coordinator crash between drain and backfill). Completed plans count
// too: the newest done plan's membership is re-adopted, so a coordinator
// restarted with a stale flag list (and no -snapshot) does not silently
// revert to the pre-resize topology and drop a partition from the merge.
// It returns (nil, nil) when there is nothing to re-drive. fleetd calls
// it on coordinator start.
func (c *Coordinator) ResumeRebalance(ctx context.Context) (*RebalanceResult, error) {
	c.rebalMu.Lock()
	pending, completed, err := readJournalPlans(c.rebalPath)
	if err == nil {
		c.adoptCompletedPlan(completed)
	}
	c.rebalMu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("cluster: rebalance journal: %w", err)
	}
	if pending == nil {
		return nil, nil
	}
	return c.Rebalance(ctx, nil, nil)
}

// adoptCompletedPlan restores the membership a completed (journal-done)
// rebalance committed, when it is newer than what the coordinator holds
// — the journal outlives the process, the flag list does not. The caller
// holds rebalMu.
func (c *Coordinator) adoptCompletedPlan(completed *rebalPlan) {
	if completed == nil || completed.Version < c.ring.Version() {
		return
	}
	c.ring.restoreMembership(completed.Version, completed.New)
	c.setPartitions(completed.New)
}

// observeRebalPhase records one rebalance phase's duration in the
// per-phase latency histogram.
func (c *Coordinator) observeRebalPhase(phase string, start time.Time) {
	c.reg.Histogram("cluster_rebalance_phase_seconds",
		"Rebalance phase durations (announce, drain, commit).",
		telemetry.DefBuckets, telemetry.L("phase", phase)).ObserveSince(start)
}

// runRebalance drives one plan to completion. The caller holds rebalMu.
func (c *Coordinator) runRebalance(ctx context.Context, plan *rebalPlan) (*RebalanceResult, error) {
	c.setRebalState(RebalanceState{State: RebalanceRebalancing, Version: plan.Version})
	c.logger.Info("rebalance starting",
		"version", plan.Version, "old", plan.Old, "new", plan.New)
	fail := func(err error) (*RebalanceResult, error) {
		c.setRebalState(RebalanceState{State: RebalanceFailed, Version: plan.Version, LastError: err.Error()})
		c.reg.Counter("cluster_rebalances_total",
			"Rebalances driven to a terminal state, by outcome.",
			telemetry.L("outcome", "failed")).Inc()
		c.logger.Error("rebalance failed",
			"version", plan.Version, "error", err.Error())
		return nil, err
	}

	// Every node involved — drains come from old members, backfills go to
	// new ones — needs a partition entry and client.
	union := unionNodes(plan.Old, plan.New)
	c.mu.Lock()
	have := make(map[string]bool, len(c.parts))
	for _, p := range c.parts {
		have[p.base] = true
	}
	for _, node := range union {
		if !have[node] {
			c.parts = append(c.parts, c.newPartition(node))
		}
	}
	c.updateMergedGauges()
	c.mu.Unlock()

	// Phase 0 — announce: every partition starts requiring the new
	// membership version before any key moves, so a writer still routing
	// by the old ring cannot strand evidence on a former owner while the
	// drain is in flight.
	announceStart := time.Now()
	for _, node := range union {
		if _, err := c.findPartition(node).client.AnnounceRing(ctx, plan.Version); err != nil {
			return fail(fmt.Errorf("cluster: announce membership v%d to %s: %w", plan.Version, node, err))
		}
	}
	c.observeRebalPhase("announce", announceStart)
	if err := c.rebalCrashpoint("announced"); err != nil {
		return fail(err)
	}

	// Freeze the poll loop across drain+backfill: no correction pass may
	// observe the state with a key's evidence extracted but not yet
	// re-absorbed (the transiently smaller site count would skew the
	// Bayesian prior's N).
	c.pollMu.Lock()
	defer c.pollMu.Unlock()

	// Freshen every mirror first. Post-announce, stale writers bounce, so
	// the mirrors now hold everything the old owners will ever hold for
	// the moved keys — the ring diff below cannot miss a key.
	if _, err := c.pollLocked(ctx); err != nil {
		return fail(fmt.Errorf("cluster: pre-drain poll: %w", err))
	}

	newRing := NewRing(0, plan.New...)
	newSet := make(map[string]bool, len(plan.New))
	for _, n := range plan.New {
		newSet[n] = true
	}
	drainStart := time.Now()
	moved := 0
	drained := make(map[string]int)
	for _, node := range plan.Old {
		p := c.findPartition(node)
		// A node leaving the cluster drains its run counters along with
		// its keys — counters are not keyed, so key eviction alone would
		// shrink the fleet-wide totals when its mirror is dropped.
		leaving := !newSet[node]
		var keys []site.ID
		c.mu.Lock()
		for _, k := range p.mirror.EvidenceKeys() {
			if newRing.Owner(k) != node {
				keys = append(keys, k)
			}
		}
		c.mu.Unlock()
		// Drain. The token makes this idempotent: a re-drive (possibly
		// computing an empty key set, because the mirror already reflects
		// the eviction) gets the originally drained snapshot back. The
		// answer is decoded with every codec check before any piece of it
		// is pushed, so a bad drain moves nothing.
		evicted, err := p.client.EvictKeys(ctx, rebalToken(plan.Version, node), keys, leaving)
		if err != nil {
			return fail(fmt.Errorf("cluster: drain %s: %w", node, err))
		}
		if err := c.rebalCrashpoint("drained"); err != nil {
			return fail(err)
		}
		if kc := evidenceKeyCount(evicted); kc > 0 {
			moved += kc
			drained[node] = kc
		}
		// Backfill: split the drained evidence along the NEW ring and push
		// each piece through the exactly-once path. Batch IDs derive from
		// (version, source, piece content) — deterministic across
		// re-drives, so a piece that already landed dedups.
		if !cumulative.DeltaEmpty(evicted) {
			for dest, piece := range SplitSnapshot(newRing, evicted) {
				batch := &codec.Batch{
					Client:      "rebalance",
					Snapshot:    piece,
					BatchID:     codec.BatchID(rebalToken(plan.Version, node)+">"+dest, 0, 0, 0, piece),
					RingVersion: plan.Version,
				}
				if _, err := c.findPartition(dest).client.PushBatchContext(ctx, batch); err != nil {
					return fail(fmt.Errorf("cluster: backfill %s to %s: %w", node, dest, err))
				}
			}
		}
		c.logger.Info("partition drained and backfilled",
			"version", plan.Version, "partition", node,
			"movedKeys", drained[node], "leaving", leaving)
	}
	c.observeRebalPhase("drain", drainStart)

	// Commit membership: the coordinator's own ring adopts the new
	// topology, removed partitions drop out of the poll set, and the
	// merged history is rebuilt from the mirrors on the next pass.
	commitStart := time.Now()
	c.ring.SetMembership(plan.Version, plan.New)
	c.mu.Lock()
	kept := c.parts[:0]
	for _, p := range c.parts {
		if newSet[p.base] {
			kept = append(kept, p)
		}
	}
	c.parts = kept
	c.corrector.MarkFull()
	c.updateMergedGauges()
	c.mu.Unlock()

	// Fold the moves into the mirrors while the poll freeze still holds,
	// so the first post-rebalance correction pass sees every moved key at
	// exactly one partition.
	if _, err := c.pollLocked(ctx); err != nil {
		return fail(fmt.Errorf("cluster: post-rebalance poll: %w", err))
	}
	if err := c.journalRebal(rebalRecord{Op: "done", Version: plan.Version}); err != nil {
		return fail(err)
	}
	c.Correct()
	c.observeRebalPhase("commit", commitStart)
	c.setRebalState(RebalanceState{
		State:             RebalanceDone,
		Version:           plan.Version,
		MovedKeys:         moved,
		DrainedPartitions: len(drained),
	})
	c.metrics.movedKeys.Add(float64(moved))
	c.reg.Counter("cluster_rebalances_total",
		"Rebalances driven to a terminal state, by outcome.",
		telemetry.L("outcome", "done")).Inc()
	c.logger.Info("rebalance committed",
		"version", plan.Version, "nodes", plan.New,
		"movedKeys", moved, "drainedPartitions", len(drained))
	return &RebalanceResult{Version: plan.Version, Nodes: plan.New, MovedKeys: moved, Drained: drained}, nil
}

// handleRebalance is the admin endpoint: POST /v1/rebalance
// {"add": [...], "remove": [...]} applies a membership change; an empty
// change resumes a pending rebalance. Token-authenticated when the
// coordinator has one.
func (c *Coordinator) handleRebalance(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if !c.authorize(w, r) {
		return
	}
	var req struct {
		Add    []string `json:"add"`
		Remove []string `json:"remove"`
	}
	if err := fleet.DecodeJSONBody(w, r, 1<<20, &req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// Detached from the request context: announcements and evictions are
	// committed side effects on the partitions, so an admin curl timing
	// out must not abort the transition halfway (writers would bounce on
	// the announced version while /v1/membership still reports the old
	// one). Each step is bounded by the partition clients' own timeouts.
	res, err := c.Rebalance(context.WithoutCancel(r.Context()), req.Add, req.Remove)
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	fleet.WriteJSON(w, res)
}

func (c *Coordinator) setRebalState(st RebalanceState) {
	c.mu.Lock()
	c.rebalState = st
	c.mu.Unlock()
}

// rebalCrashpoint aborts the rebalance at a named stage when the test
// hook is armed — the journal then shows an incomplete plan, exactly as
// after a process kill.
func (c *Coordinator) rebalCrashpoint(stage string) error {
	if c.testRebalanceCrash != nil {
		return c.testRebalanceCrash(stage)
	}
	return nil
}

// rebalToken is the idempotency handle for one partition's drain within
// one membership transition. Deterministic — a re-driving coordinator
// (same journal, fresh process) reproduces it exactly.
func rebalToken(version uint64, node string) string {
	return fmt.Sprintf("rebalance:v%d:%s", version, node)
}

// journalRebal appends one fsynced record to the two-phase journal. With
// no journal configured it is a no-op (the rebalance is then not
// crash-safe — acceptable for tests and toy clusters).
func (c *Coordinator) journalRebal(rec rebalRecord) error {
	if c.rebalPath == "" {
		return nil
	}
	f, err := os.OpenFile(c.rebalPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("cluster: rebalance journal: %w", err)
	}
	defer f.Close()
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("cluster: rebalance journal: %w", err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("cluster: rebalance journal: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("cluster: rebalance journal: %w", err)
	}
	return nil
}

// readJournalPlans scans the journal for (a) the most recent begin
// without a matching done — the plan to re-drive — and (b) the newest
// completed plan, whose membership survives a restart. A trailing
// partial line (torn write) is ignored — the record it would have been
// was not durable.
func readJournalPlans(path string) (pending, completed *rebalPlan, err error) {
	if path == "" {
		return nil, nil, nil
	}
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil, nil
		}
		return nil, nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		var rec rebalRecord
		if json.Unmarshal(sc.Bytes(), &rec) != nil {
			continue
		}
		switch rec.Op {
		case "begin":
			pending = &rebalPlan{Version: rec.Version, Old: rec.Old, New: rec.New}
		case "done":
			if pending != nil && pending.Version == rec.Version {
				completed = pending
				pending = nil
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return pending, completed, nil
}

// unionNodes returns the ordered union of two node lists.
func unionNodes(a, b []string) []string {
	seen := make(map[string]bool, len(a)+len(b))
	var out []string
	for _, n := range append(append([]string(nil), a...), b...) {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

// evidenceKeyCount counts the distinct alloc-side evidence keys a
// snapshot carries (the "moved keys" statistic).
func evidenceKeyCount(s *cumulative.Snapshot) int {
	set := make(map[site.ID]bool)
	for _, id := range s.Sites {
		set[id] = true
	}
	for _, so := range s.Overflow {
		set[so.Site] = true
	}
	for _, po := range s.Dangling {
		set[po.Alloc] = true
	}
	for _, h := range s.PadHints {
		set[h.Site] = true
	}
	for _, h := range s.DeferralHints {
		set[h.Alloc] = true
	}
	return len(set)
}
