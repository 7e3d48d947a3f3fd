package cluster

import (
	"fmt"

	"exterminator/internal/cumulative"
	"exterminator/internal/fleet"
	"exterminator/internal/fleet/codec"
)

// Coordinator snapshot persistence: the merge tier's state is exactly
// its per-partition mirrors plus the journal cursor (seq, epoch) each
// mirror is valid at — the merged history and the patch log are pure
// functions of the mirrors, so persisting mirrors+cursors is enough to
// restart a coordinator without re-pulling (or worse, double-absorbing)
// every partition's full evidence. On restore the merged history is
// rebuilt from the mirrors and a correction pass re-derives the patch
// log; polling then resumes from the persisted cursors, so partitions
// that kept running answer with cheap deltas instead of full resyncs.

// SaveSnapshot writes the coordinator's durable state to path as one
// codec.State frame (fleet.WriteState): its membership (the ring
// version and node list, so a restarted coordinator keeps the
// rebalanced topology and its monotonic version even when the
// operator's flag list is stale), mirrors, cursors and the triage
// alerter's exactly-once state (fired records and the undelivered
// queue, so a restart neither re-fires a webhook already sent nor
// drops one still pending).
func (c *Coordinator) SaveSnapshot(path string) error {
	var st codec.State
	st.RingVersion, st.Nodes = c.ring.Membership()
	alerts, err := c.triage.AlertState()
	if err != nil {
		return fmt.Errorf("cluster: snapshot: %w", err)
	}
	st.Alerts = alerts
	c.mu.Lock()
	for _, p := range c.parts {
		st.Mirrors = append(st.Mirrors, codec.Mirror{Base: p.base, Seq: p.seq, Epoch: p.epoch, Snapshot: p.mirror.Snapshot()})
	}
	c.mu.Unlock()
	if err := fleet.WriteState(path, &st); err != nil {
		return fmt.Errorf("cluster: snapshot: %w", err)
	}
	return nil
}

// LoadSnapshot restores mirrors and cursors from a snapshot written by
// SaveSnapshot, rebuilds the merged history, and runs a correction pass
// so the patch log is warm before the first client poll. Mirrors are
// matched to the configured partitions by base URL: partitions added
// since the snapshot start empty (their first poll full-resyncs), and
// snapshot entries for partitions no longer configured are dropped. A
// missing file is not an error (fresh start); a file that is not a
// state frame is, and nothing is restored from it.
func (c *Coordinator) LoadSnapshot(path string) error {
	st, err := fleet.ReadState(path)
	if err != nil {
		return fmt.Errorf("cluster: restore %s: %w", path, err)
	}
	if st == nil {
		return nil
	}
	// Alert state must land before the warm-up correction pass: the pass
	// re-ranks the restored evidence, and only the restored fired records
	// stop it from re-arming (and later re-firing) alerts already sent by
	// the previous incarnation.
	if err := c.triage.RestoreAlertState(st.Alerts); err != nil {
		return fmt.Errorf("cluster: restore %s: %w", path, err)
	}

	// The snapshot's membership is authoritative: it reflects any
	// rebalance completed since the operator's flag list was written, and
	// restoring the monotonic ring version is what keeps the next
	// rebalance's announcements ahead of the partitions' requirements.
	if len(st.Nodes) > 0 {
		c.ring.restoreMembership(st.RingVersion, st.Nodes)
		c.setPartitions(st.Nodes)
	}
	c.mu.Lock()
	for _, p := range c.parts {
		for _, m := range st.Mirrors {
			if m.Base != p.base {
				continue
			}
			p.mirror = cumulative.NewHistory(c.cfg)
			p.mirror.Absorb(m.Snapshot)
			p.seq, p.epoch = m.Seq, m.Epoch
		}
	}
	c.corrector.MarkFull()
	c.mu.Unlock()
	c.Correct()
	return nil
}
