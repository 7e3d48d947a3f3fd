package cumulative

import (
	"crypto/rand"
	"encoding/binary"

	"exterminator/internal/site"
)

// Upload watermark: fleet clients upload the *delta* of a history, not
// the whole thing, so resuming from a persisted history file and
// uploading again cannot double-count evidence the fleet already has
// (observations are a multiset — absorbing the same snapshot twice is
// not idempotent). The watermark is a monotonic high-water mark over the
// history's append-only structure: per-key observation counts, hint
// values, run counters and the uploaded site set. It rides along in the
// persist format, so the guarantee survives process restarts.
//
// The watermark also carries the history's lineage: a random 64-bit
// identity minted when the first upload delta is cut. Two fresh
// histories under one client id cut their first deltas at the same
// watermark position, possibly with the same content; the lineage is
// what tells their batch IDs apart (see codec.BatchID).

// uploadMark records how much of each append-only component has been
// uploaded. The zero value means "nothing uploaded yet".
type uploadMark struct {
	lineage               uint64 // zero until the first delta is cut
	runs, failed, corrupt int
	sites                 map[site.ID]bool
	overflow              map[site.ID]int
	dangling              map[site.Pair]int
	pad                   map[site.ID]uint32
	dfer                  map[site.Pair]uint64
}

func (m *uploadMark) init() {
	if m.sites == nil {
		m.sites = make(map[site.ID]bool)
		m.overflow = make(map[site.ID]int)
		m.dangling = make(map[site.Pair]int)
		m.pad = make(map[site.ID]uint32)
		m.dfer = make(map[site.Pair]uint64)
	}
}

// clampWatermark bounds every watermark component by the evidence that
// actually exists, repairing inconsistent state from a corrupt or
// hand-edited persisted history (the mark can then at worst cause a
// harmless re-upload, never a negative delta or suppressed evidence).
func (hist *History) clampWatermark() {
	m := &hist.uploaded
	if m.runs > hist.Runs {
		m.runs = hist.Runs
	}
	if m.failed > hist.FailedRuns {
		m.failed = hist.FailedRuns
	}
	if m.corrupt > hist.CorruptRuns {
		m.corrupt = hist.CorruptRuns
	}
	for s, n := range m.overflow {
		if have := len(hist.overflow[s]); n > have {
			m.overflow[s] = have
		}
	}
	for p, n := range m.dangling {
		if have := len(hist.dangling[p]); n > have {
			m.dangling[p] = have
		}
	}
	for s, v := range m.pad {
		if have := hist.padHint[s]; v > have {
			m.pad[s] = have
		}
	}
	for p, v := range m.dfer {
		if have := hist.dferHint[p]; v > have {
			m.dfer[p] = have
		}
	}
}

// UploadDelta returns a snapshot of everything recorded since the last
// MarkUploaded: run-counter differences, per-key observations beyond the
// uploaded count, sites not yet announced, and hints that grew. Pushing
// the returned snapshot and then passing it to MarkUploaded advances the
// watermark by exactly what was sent, so evidence recorded concurrently
// between the two calls is kept for the next delta. The snapshot's
// Lineage is the history's lineage, minted on the first call.
func (hist *History) UploadDelta() *Snapshot {
	hist.uploaded.init()
	m := &hist.uploaded
	if m.lineage == 0 {
		m.lineage = newLineage()
	}
	s := &Snapshot{
		Lineage:     m.lineage,
		C:           hist.cfg.C,
		P:           hist.cfg.P,
		Runs:        hist.Runs - m.runs,
		FailedRuns:  hist.FailedRuns - m.failed,
		CorruptRuns: hist.CorruptRuns - m.corrupt,
	}
	for _, id := range sortedIDKeys(hist.sites) {
		if !m.sites[id] {
			s.Sites = append(s.Sites, id)
		}
	}
	for _, id := range sortedIDKeys(hist.overflow) {
		obs := hist.overflow[id]
		if n := m.overflow[id]; n < len(obs) {
			delta := append([]Observation(nil), obs[n:]...)
			sortObs(delta)
			s.Overflow = append(s.Overflow, SiteObservations{Site: id, Obs: delta})
		}
	}
	for _, p := range sortedPairKeys(hist.dangling) {
		obs := hist.dangling[p]
		if n := m.dangling[p]; n < len(obs) {
			delta := append([]Observation(nil), obs[n:]...)
			sortObs(delta)
			s.Dangling = append(s.Dangling, PairObservations{Alloc: p.Alloc, Free: p.Free, Obs: delta})
		}
	}
	for _, id := range sortedIDKeys(hist.padHint) {
		if v := hist.padHint[id]; v > m.pad[id] {
			s.PadHints = append(s.PadHints, PadHint{Site: id, Pad: v})
		}
	}
	for _, p := range sortedPairKeys(hist.dferHint) {
		if v := hist.dferHint[p]; v > m.dfer[p] {
			s.DeferralHints = append(s.DeferralHints, DeferralHint{Alloc: p.Alloc, Free: p.Free, Deferral: v})
		}
	}
	return s
}

// MarkUploaded advances the watermark by the contents of delta, which
// must be a snapshot produced by UploadDelta on this history (and
// successfully delivered — call this only after the push succeeded).
func (hist *History) MarkUploaded(delta *Snapshot) {
	if delta == nil {
		return
	}
	hist.uploaded.init()
	m := &hist.uploaded
	m.runs += delta.Runs
	m.failed += delta.FailedRuns
	m.corrupt += delta.CorruptRuns
	for _, id := range delta.Sites {
		m.sites[id] = true
	}
	for _, so := range delta.Overflow {
		m.overflow[so.Site] += len(so.Obs)
	}
	for _, po := range delta.Dangling {
		m.dangling[site.Pair{Alloc: po.Alloc, Free: po.Free}] += len(po.Obs)
	}
	for _, h := range delta.PadHints {
		if h.Pad > m.pad[h.Site] {
			m.pad[h.Site] = h.Pad
		}
	}
	for _, h := range delta.DeferralHints {
		p := site.Pair{Alloc: h.Alloc, Free: h.Free}
		if h.Deferral > m.dfer[p] {
			m.dfer[p] = h.Deferral
		}
	}
}

// UploadedRuns returns the number of runs already covered by the
// watermark (diagnostics).
func (hist *History) UploadedRuns() int { return hist.uploaded.runs }

// UploadedCounts summarizes the watermark position as two scalars: the
// total run-counter movement covered (runs + failed + corrupt) and the
// total number of observations covered across every key. Together with
// the delta's content and the lineage they uniquely place an upload
// batch in the history's append-only structure, which is what makes
// codec.BatchID stable across retries (the watermark only advances on a confirmed ack, so a
// re-cut of an unacknowledged delta starts at the same position).
func (hist *History) UploadedCounts() (wmRuns, wmObs int) {
	m := &hist.uploaded
	wmRuns = m.runs + m.failed + m.corrupt
	for _, n := range m.overflow {
		wmObs += n
	}
	for _, n := range m.dangling {
		wmObs += n
	}
	return wmRuns, wmObs
}

// newLineage draws a random nonzero lineage.
func newLineage() uint64 {
	var b [8]byte
	for {
		rand.Read(b[:])
		if v := binary.LittleEndian.Uint64(b[:]); v != 0 {
			return v
		}
	}
}

// DeltaEmpty reports whether a snapshot carries no evidence and no
// counter movement at all — uploading it would be a no-op.
func DeltaEmpty(s *Snapshot) bool {
	return s == nil ||
		(s.Runs == 0 && s.FailedRuns == 0 && s.CorruptRuns == 0 &&
			len(s.Sites) == 0 && len(s.Overflow) == 0 && len(s.Dangling) == 0 &&
			len(s.PadHints) == 0 && len(s.DeferralHints) == 0)
}
