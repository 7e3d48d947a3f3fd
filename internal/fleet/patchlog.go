package fleet

import (
	"sync"

	"exterminator/internal/patch"
	"exterminator/internal/triage"
)

// PatchLog is the versioned patch store behind GET /v1/patches. Every
// correction pass folds its freshly derived patch.Set into the log; when
// the fold actually improves the cumulative set (patches compose by
// maxima, so improvement means a new site or a larger pad/deferral), the
// version increments and the improvement is retained as a delta. Clients
// poll with the last version they saw and receive only the entries added
// since — usually nothing.
type PatchLog struct {
	mu      sync.RWMutex
	version uint64
	full    *patch.Set
	// deltas[i] holds exactly the entries version base+i+1 introduced.
	deltas []*patch.Set
	// base is the version the oldest retained delta builds on. Polls with
	// since < base are answered with the full set (resync).
	base uint64
}

// maxDeltas bounds retained history; beyond it old deltas compact away and
// stale pollers resync from the full set.
const maxDeltas = 256

// NewPatchLog returns an empty log at version 0.
func NewPatchLog() *PatchLog {
	return &PatchLog{full: patch.New()}
}

// Fold merges ps into the log. It returns the (possibly new) version and
// whether the log changed.
func (l *PatchLog) Fold(ps *patch.Set) (uint64, bool) {
	if ps == nil {
		return l.Version(), false
	}
	l.mu.Lock()
	defer l.mu.Unlock()

	delta := ps.Diff(l.full)
	if delta.Len() == 0 {
		return l.version, false
	}
	l.full.Merge(delta)
	l.version++
	l.deltas = append(l.deltas, delta)
	if len(l.deltas) > maxDeltas {
		drop := len(l.deltas) - maxDeltas/2
		l.deltas = append([]*patch.Set(nil), l.deltas[drop:]...)
		l.base += uint64(drop)
	}
	return l.version, true
}

// Since returns the union of entries added after version since, plus the
// current version. A since at or beyond the current version yields an
// empty set; a since older than the retained delta window (or from a
// previous server incarnation, i.e. ahead of the current version) yields
// the full set — merging it is idempotent, so over-answering is safe.
func (l *PatchLog) Since(since uint64) (*patch.Set, uint64) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if since >= l.version {
		if since > l.version {
			// The client knows a version this incarnation never issued
			// (server restarted from a snapshot): resync.
			return l.full.Clone(), l.version
		}
		return patch.New(), l.version
	}
	if since < l.base {
		return l.full.Clone(), l.version
	}
	out := patch.New()
	for i := since - l.base; i < uint64(len(l.deltas)); i++ {
		out.Merge(l.deltas[i])
	}
	return out, l.version
}

// Full returns a copy of the cumulative set and its version.
func (l *PatchLog) Full() (*patch.Set, uint64) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.full.Clone(), l.version
}

// Version returns the current version.
func (l *PatchLog) Version() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.version
}

// Len returns the number of entries in the cumulative set.
func (l *PatchLog) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.full.Len()
}

// PassTriage runs one triage pass fed with in plus the entries added to
// log after version *seen, and advances *seen to the version it read. It
// is how every correction pass (Server.Correct and the cluster
// coordinator's) feeds its triage engine the patch-log delta; callers
// serialize the passes that share a cursor.
func PassTriage(eng *triage.Engine, log *PatchLog, seen *uint64, in triage.PassInput) {
	if log.Version() != *seen {
		in.Patches, *seen = log.Since(*seen)
	}
	eng.Pass(in)
}
