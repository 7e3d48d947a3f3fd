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
// values, run counters and the uploaded site set. Split and Restore
// carry it across process restarts: a history file holds the two halves
// Split divides a history into (internal/fleet/codec, FrameHistory).
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
	var buf []word
	for _, id := range sortedIDKeys(hist.overflow) {
		obs := hist.overflow[id]
		if n := m.overflow[id]; n < len(obs) {
			s.Overflow = append(s.Overflow, SiteObservations{Site: id, Obs: canonical(obs[n:], &buf)})
		}
	}
	for _, p := range sortedPairKeys(hist.dangling) {
		obs := hist.dangling[p]
		if n := m.dangling[p]; n < len(obs) {
			s.Dangling = append(s.Dangling, PairObservations{Alloc: p.Alloc, Free: p.Free, Obs: canonical(obs[n:], &buf)})
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

// Split divides the history at its upload watermark: uploaded holds the
// evidence the watermark covers, under the history's lineage, and
// pending holds the rest, so that Restore(hist.Split()) is Equal to hist,
// with the same watermark and lineage. Each observation list is cut at
// its key's watermark count, and both halves keep the stored order, not
// the canonical one: the count covers the front of the list, and sorting
// would move that boundary. Every watermark component is bounded by the
// evidence it covers (a count by the list's length, a hint by the
// history's hint, a run counter by the history's), so a watermark that a
// MarkUploaded outside its contract pushed past the evidence splits as
// if it stopped there: the next delta is never negative, and evidence
// recorded later is never held back.
func (hist *History) Split() (uploaded, pending *Snapshot) {
	m := &hist.uploaded
	uploaded = &Snapshot{
		Lineage:     m.lineage,
		C:           hist.cfg.C,
		P:           hist.cfg.P,
		Runs:        min(m.runs, hist.Runs),
		FailedRuns:  min(m.failed, hist.FailedRuns),
		CorruptRuns: min(m.corrupt, hist.CorruptRuns),
	}
	pending = &Snapshot{
		C:           hist.cfg.C,
		P:           hist.cfg.P,
		Runs:        hist.Runs - uploaded.Runs,
		FailedRuns:  hist.FailedRuns - uploaded.FailedRuns,
		CorruptRuns: hist.CorruptRuns - uploaded.CorruptRuns,
	}
	for _, id := range sortedIDKeys(hist.sites) {
		if m.sites[id] {
			uploaded.Sites = append(uploaded.Sites, id)
		} else {
			pending.Sites = append(pending.Sites, id)
		}
	}
	for _, id := range sortedIDKeys(hist.overflow) {
		obs := hist.overflow[id]
		n := min(m.overflow[id], len(obs))
		if n > 0 {
			uploaded.Overflow = append(uploaded.Overflow, SiteObservations{Site: id, Obs: unpack(obs[:n])})
		}
		if n < len(obs) {
			pending.Overflow = append(pending.Overflow, SiteObservations{Site: id, Obs: unpack(obs[n:])})
		}
	}
	for _, p := range sortedPairKeys(hist.dangling) {
		obs := hist.dangling[p]
		n := min(m.dangling[p], len(obs))
		if n > 0 {
			uploaded.Dangling = append(uploaded.Dangling, PairObservations{Alloc: p.Alloc, Free: p.Free, Obs: unpack(obs[:n])})
		}
		if n < len(obs) {
			pending.Dangling = append(pending.Dangling, PairObservations{Alloc: p.Alloc, Free: p.Free, Obs: unpack(obs[n:])})
		}
	}
	for _, id := range sortedIDKeys(hist.padHint) {
		v := hist.padHint[id]
		up := min(m.pad[id], v)
		if up > 0 {
			uploaded.PadHints = append(uploaded.PadHints, PadHint{Site: id, Pad: up})
		}
		if v > up {
			pending.PadHints = append(pending.PadHints, PadHint{Site: id, Pad: v})
		}
	}
	for _, p := range sortedPairKeys(hist.dferHint) {
		v := hist.dferHint[p]
		up := min(m.dfer[p], v)
		if up > 0 {
			uploaded.DeferralHints = append(uploaded.DeferralHints, DeferralHint{Alloc: p.Alloc, Free: p.Free, Deferral: up})
		}
		if v > up {
			pending.DeferralHints = append(pending.DeferralHints, DeferralHint{Alloc: p.Alloc, Free: p.Free, Deferral: v})
		}
	}
	return uploaded, pending
}

// Restore rebuilds the history Split divided into uploaded and pending:
// a new history under uploaded's configuration absorbs uploaded, marks
// it uploaded under uploaded.Lineage, and then absorbs pending, so each
// observation list holds its uploaded observations first, as the
// watermark counts them. pending's C and P are not read.
func Restore(uploaded, pending *Snapshot) *History {
	hist := NewHistory(Config{C: uploaded.C, P: uploaded.P})
	hist.Absorb(uploaded)
	hist.MarkUploaded(uploaded)
	hist.uploaded.lineage = uploaded.Lineage
	hist.Absorb(pending)
	return hist
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
