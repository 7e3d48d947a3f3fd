package cumulative

import (
	"sort"

	"exterminator/internal/site"
)

// Snapshot is an exported, exchange-friendly view of a History: the per-site
// (X, Y) observations, hints, site set and run counters, with every list in
// a canonical sorted order. It exists so observations can leave the process
// — the fleet aggregation service (internal/fleet) JSON-encodes Snapshots on
// the wire — without exposing History's internals or its invariants.
//
// Canonical ordering matters beyond determinism of the encoding: observation
// lists are sorted by (X, Y), which makes every downstream float computation
// (BayesFactor multiplies factors in slice order) independent of the order
// in which contributions arrived. Observations are exchangeable under the
// §5.1 model, so sorting does not change their meaning — only fixes the
// floating-point evaluation order.
type Snapshot struct {
	// Lineage is the uploading history's lineage (set by UploadDelta,
	// zero otherwise). It is not on the wire: uploaders fold it into the
	// batch ID and nothing else reads it.
	Lineage uint64 `json:"-"`

	C float64 `json:"c"`
	P float64 `json:"p"`

	Runs        int `json:"runs"`
	FailedRuns  int `json:"failedRuns"`
	CorruptRuns int `json:"corruptRuns"`

	Sites         []site.ID          `json:"sites,omitempty"`
	Overflow      []SiteObservations `json:"overflow,omitempty"`
	Dangling      []PairObservations `json:"dangling,omitempty"`
	PadHints      []PadHint          `json:"padHints,omitempty"`
	DeferralHints []DeferralHint     `json:"deferralHints,omitempty"`
}

// SiteObservations carries one allocation site's overflow observations.
type SiteObservations struct {
	Site site.ID       `json:"site"`
	Obs  []Observation `json:"obs"`
}

// PairObservations carries one (alloc, free) pair's dangling observations.
type PairObservations struct {
	Alloc site.ID       `json:"alloc"`
	Free  site.ID       `json:"free"`
	Obs   []Observation `json:"obs"`
}

// PadHint is the pad estimate for one allocation site.
type PadHint struct {
	Site site.ID `json:"site"`
	Pad  uint32  `json:"pad"`
}

// DeferralHint is the lifetime-extension estimate for one site pair.
type DeferralHint struct {
	Alloc    site.ID `json:"alloc"`
	Free     site.ID `json:"free"`
	Deferral uint64  `json:"deferral"`
}

// sortObs orders observations canonically by (X, then Y=false first).
func sortObs(obs []Observation) {
	sort.Slice(obs, func(i, j int) bool {
		if obs[i].X != obs[j].X {
			return obs[i].X < obs[j].X
		}
		return !obs[i].Y && obs[j].Y
	})
}

// Snapshot exports the history's current contents in canonical order. The
// returned value shares no storage with the history.
func (hist *History) Snapshot() *Snapshot {
	s := &Snapshot{
		C:           hist.cfg.C,
		P:           hist.cfg.P,
		Runs:        hist.Runs,
		FailedRuns:  hist.FailedRuns,
		CorruptRuns: hist.CorruptRuns,
	}
	s.Sites = sortedIDKeys(hist.sites)
	for _, id := range sortedIDKeys(hist.overflow) {
		obs := append([]Observation(nil), hist.overflow[id]...)
		sortObs(obs)
		s.Overflow = append(s.Overflow, SiteObservations{Site: id, Obs: obs})
	}
	for _, p := range sortedPairKeys(hist.dangling) {
		obs := append([]Observation(nil), hist.dangling[p]...)
		sortObs(obs)
		s.Dangling = append(s.Dangling, PairObservations{Alloc: p.Alloc, Free: p.Free, Obs: obs})
	}
	for _, id := range sortedIDKeys(hist.padHint) {
		s.PadHints = append(s.PadHints, PadHint{Site: id, Pad: hist.padHint[id]})
	}
	for _, p := range sortedPairKeys(hist.dferHint) {
		s.DeferralHints = append(s.DeferralHints, DeferralHint{Alloc: p.Alloc, Free: p.Free, Deferral: hist.dferHint[p]})
	}
	return s
}

// Absorb folds a snapshot into the history: observations append, hints take
// maxima, the site set unions, and run counters add. Absorbing the same
// snapshot twice double-counts observations — idempotence is the patch
// set's property (§6.4), not the evidence store's.
func (hist *History) Absorb(s *Snapshot) {
	if s == nil {
		return
	}
	hist.Runs += s.Runs
	hist.FailedRuns += s.FailedRuns
	hist.CorruptRuns += s.CorruptRuns
	for _, id := range s.Sites {
		hist.sites[id] = true
	}
	for _, so := range s.Overflow {
		if len(so.Obs) > 0 {
			hist.overflow[so.Site] = append(hist.overflow[so.Site], so.Obs...)
			hist.touchOverflow(so.Site)
		}
		hist.sites[so.Site] = true
	}
	for _, po := range s.Dangling {
		if len(po.Obs) == 0 {
			continue
		}
		p := site.Pair{Alloc: po.Alloc, Free: po.Free}
		hist.dangling[p] = append(hist.dangling[p], po.Obs...)
		hist.touchDangling(p)
	}
	for _, h := range s.PadHints {
		if h.Pad > hist.padHint[h.Site] {
			hist.padHint[h.Site] = h.Pad
		}
	}
	for _, h := range s.DeferralHints {
		p := site.Pair{Alloc: h.Alloc, Free: h.Free}
		if h.Deferral > hist.dferHint[p] {
			hist.dferHint[p] = h.Deferral
		}
	}
}

// Merge folds other's evidence into hist (Absorb of other's snapshot).
func (hist *History) Merge(other *History) {
	if other == nil {
		return
	}
	hist.Absorb(other.Snapshot())
}

// Canonicalize re-sorts every observation list into the canonical (X, Y)
// order in place. Identify already scores a canonically ordered copy of
// each list, so this is no longer needed for order-independent results;
// it remains for tools that want the stored lists themselves canonical.
// Reordering destroys the upload watermark's append-only prefix, so the
// watermark resets (a subsequent fleet upload re-sends everything).
func (hist *History) Canonicalize() {
	for s, obs := range hist.overflow {
		sortObs(obs)
		hist.touchOverflow(s)
	}
	for p, obs := range hist.dangling {
		sortObs(obs)
		hist.touchDangling(p)
	}
	hist.uploaded = uploadMark{}
}

// Config returns the history's classifier configuration.
func (hist *History) Config() Config { return hist.cfg }
