package fleet

import (
	"log/slog"
	"net/http"
	"sort"
	"sync"

	"exterminator/internal/fleet/codec"
	"exterminator/internal/patch"
	"exterminator/internal/telemetry"
)

// PatchLog is the versioned patch store behind GET /v1/patches. Every
// correction pass folds its freshly derived patch.Set into the log; when
// the fold actually improves the cumulative set (patches compose by
// maxima, so improvement means a new site or a larger pad/deferral), the
// version increments and the improvement is retained as a delta. Clients
// poll with the last version they saw and receive only the entries added
// since — usually nothing.
//
// A log can also follow another log (a read replica mirroring its
// coordinator): Follow appends an upstream answer that may span several
// upstream versions, and Resync replaces set, version and epoch when the
// upstream's numbering restarts.
type PatchLog struct {
	mu sync.RWMutex
	// epoch identifies the incarnation that issued version; it rides
	// every answer and the ETag validator.
	epoch   uint64
	version uint64
	full    *patch.Set
	// deltas are the retained changes, oldest first: deltas[i].set holds
	// the entries versions (deltas[i-1].to, deltas[i].to] introduced —
	// one version per Fold, possibly several per Follow.
	deltas []logDelta
	// base is the version the oldest retained delta builds on. Polls with
	// since < base are answered with the full set (resync).
	base uint64
}

type logDelta struct {
	to  uint64
	set *patch.Set
}

// maxDeltas bounds retained history; beyond it old deltas compact away and
// stale pollers resync from the full set.
const maxDeltas = 256

// NewPatchLog returns an empty log at version 0, epoch 0.
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
	l.appendLocked(delta, l.version+1)
	return l.version, true
}

// Follow appends an upstream log's answer to a poll from this log's
// version: the entries it added up to version, which may span several
// upstream versions. A later cursor inside that span is answered with
// the whole span — over-answering is safe, patches compose by maxima.
// An answer at or below the current version is ignored.
func (l *PatchLog) Follow(delta *patch.Set, version uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if version > l.version {
		l.appendLocked(delta.Diff(l.full), version)
	}
}

// appendLocked merges delta into the full set as the change up to
// version, compacting the window when it overflows (compaction only
// widens answers: a cursor that falls off gets the full set).
func (l *PatchLog) appendLocked(delta *patch.Set, version uint64) {
	l.full.Merge(delta)
	l.version = version
	l.deltas = append(l.deltas, logDelta{to: version, set: delta})
	if len(l.deltas) > maxDeltas {
		drop := len(l.deltas) - maxDeltas/2
		l.base = l.deltas[drop-1].to
		l.deltas = append([]logDelta(nil), l.deltas[drop:]...)
	}
}

// Resync replaces the log with an upstream's whole state — its set,
// version and epoch — as after an upstream failover or restart, whose
// version numbering starts over. The log keeps full. The delta window
// restarts empty, so every cursor but version gets the full set.
func (l *PatchLog) Resync(full *patch.Set, version, epoch uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.full, l.version, l.epoch = full, version, epoch
	l.deltas, l.base = nil, version
}

// SetEpoch stamps the incarnation every answer carries. A promoted
// standby raises it; pollers that see a higher epoch resync from 0.
func (l *PatchLog) SetEpoch(epoch uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.epoch = epoch
}

// Epoch returns the incarnation stamp.
func (l *PatchLog) Epoch() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.epoch
}

// Since returns the union of entries added after version since, plus the
// current version. A since at the current version yields an empty set; a
// since older than the retained delta window (or from a previous server
// incarnation, i.e. ahead of the current version) yields the full set —
// merging it is idempotent, so over-answering is safe.
func (l *PatchLog) Since(since uint64) (*patch.Set, uint64) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.sinceLocked(since), l.version
}

func (l *PatchLog) sinceLocked(since uint64) *patch.Set {
	switch {
	case since == l.version:
		return patch.New()
	case since > l.version || since < l.base:
		return l.full.Clone()
	}
	i := sort.Search(len(l.deltas), func(i int) bool { return l.deltas[i].to > since })
	out := patch.New()
	for _, d := range l.deltas[i:] {
		out.Merge(d.set)
	}
	return out
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

// Handler returns the GET /v1/patches handler every patch-serving tier
// mounts: fleetd directly, the cluster coordinator behind its lease
// gate, a read replica behind its warming gate. A poll of ?since=V gets
// Since(V) stamped with the log's epoch and version and the matching
// ETag; one whose If-None-Match already presents that validator gets a
// bodyless 304 before any set is built. requests and notModified, when
// non-nil, count the polls served and the 304s among them.
func (l *PatchLog) Handler(logger *slog.Logger, requests, notModified *telemetry.Counter) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		reqID := EchoRequestID(w, r)
		if requests != nil {
			requests.Inc()
		}
		since, ok := queryUint(w, r.URL.Query(), "since")
		if !ok {
			return
		}
		// Validator and answer come from one read-locked view, so the
		// ETag always describes the body it rides on.
		l.mu.RLock()
		epoch, version := l.epoch, l.version
		etag := PatchETag(epoch, version)
		var ps *patch.Set
		if r.Header.Get("If-None-Match") != etag {
			ps = l.sinceLocked(since)
		}
		l.mu.RUnlock()

		if MatchETag(w, r, etag) {
			if notModified != nil {
				notModified.Inc()
			}
			logger.Debug("patches revalidated (304)",
				"since", since, "version", version, "requestId", reqID)
			return
		}
		wire := codec.ToWire(ps, version)
		wire.Epoch = epoch
		logger.Debug("patches served",
			"since", since, "version", version, "entries", ps.Len(), "requestId", reqID)
		writePatchSet(w, r, wire)
	})
}
