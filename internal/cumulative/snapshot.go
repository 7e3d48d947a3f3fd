package cumulative

import (
	"slices"
	"sort"

	"exterminator/internal/site"
)

// Snapshot is an exported, exchange-friendly view of a History: the per-site
// (X, Y) observations, hints, site set and run counters. It exists so
// observations can leave the process — the fleet's v2 frames
// (internal/fleet/codec) carry Snapshots on the wire and in the daemons'
// state files, and are its one encoding — without exposing History's
// internals or its invariants.
//
// History.Snapshot lists everything in a canonical sorted order, with
// observation lists sorted by (X, Y), so its contents depend only on the
// multiset of observations, not on the order in which contributions
// arrived. Observations are exchangeable under the §5.1 model, so sorting
// does not change their meaning. A snapshot assembled elsewhere need not
// be canonical, and may list a key more than once (a fleet delta window
// concatenates the batches it covers): Absorb folds every entry in, and
// BayesFactor is order independent on its own (it reads a key's miss
// count and the sorted X values of its hits).
type Snapshot struct {
	// Lineage is the uploading history's lineage (set by UploadDelta,
	// zero otherwise). It is not on the wire: uploaders fold it into the
	// batch ID and nothing else reads it.
	Lineage uint64

	C float64
	P float64

	Runs        int
	FailedRuns  int
	CorruptRuns int

	Sites         []site.ID
	Overflow      []SiteObservations
	Dangling      []PairObservations
	PadHints      []PadHint
	DeferralHints []DeferralHint
}

// SiteObservations carries one allocation site's overflow observations.
type SiteObservations struct {
	Site site.ID
	Obs  []Observation
}

// PairObservations carries one (alloc, free) pair's dangling observations.
type PairObservations struct {
	Alloc site.ID
	Free  site.ID
	Obs   []Observation
}

// PadHint is the pad estimate for one allocation site.
type PadHint struct {
	Site site.ID
	Pad  uint32
}

// DeferralHint is the lifetime-extension estimate for one site pair.
type DeferralHint struct {
	Alloc    site.ID
	Free     site.ID
	Deferral uint64
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
	var buf []word
	for _, id := range sortedIDKeys(hist.overflow) {
		s.Overflow = append(s.Overflow, SiteObservations{Site: id, Obs: canonical(hist.overflow[id], &buf)})
	}
	for _, p := range sortedPairKeys(hist.dangling) {
		s.Dangling = append(s.Dangling, PairObservations{Alloc: p.Alloc, Free: p.Free, Obs: canonical(hist.dangling[p], &buf)})
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
//
// Every observation's X must lie in [0, 1], as the codec's decoders
// ensure: the history stores X without its sign bit (see word), so an X
// outside that range is not kept as given.
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
			hist.overflow[so.Site] = appendPacked(hist.overflow[so.Site], so.Obs)
			hist.touchOverflow(so.Site)
		}
		hist.sites[so.Site] = true
	}
	for _, po := range s.Dangling {
		if len(po.Obs) == 0 {
			continue
		}
		p := site.Pair{Alloc: po.Alloc, Free: po.Free}
		hist.dangling[p] = appendPacked(hist.dangling[p], po.Obs)
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
// order in place. Identify's factors do not depend on the order (each
// key is scored from its miss count and its hits' X values, sorted in
// the history's scratch), so this is not needed for order-independent
// results; it remains for tools that want the stored lists themselves
// canonical.
// Reordering destroys the upload watermark's append-only prefix, so the
// watermark resets (a subsequent fleet upload re-sends everything).
func (hist *History) Canonicalize() {
	for s, obs := range hist.overflow {
		sortWords(obs)
		hist.touchOverflow(s)
	}
	for p, obs := range hist.dangling {
		sortWords(obs)
		hist.touchDangling(p)
	}
	hist.uploaded = uploadMark{}
}

// Config returns the history's classifier configuration.
func (hist *History) Config() Config { return hist.cfg }

// Equal compares two histories field by field (for tests).
func (hist *History) Equal(other *History) bool {
	if hist.Runs != other.Runs || hist.FailedRuns != other.FailedRuns ||
		hist.CorruptRuns != other.CorruptRuns ||
		hist.cfg != other.cfg ||
		len(hist.sites) != len(other.sites) ||
		len(hist.overflow) != len(other.overflow) ||
		len(hist.dangling) != len(other.dangling) ||
		len(hist.padHint) != len(other.padHint) ||
		len(hist.dferHint) != len(other.dferHint) {
		return false
	}
	for s := range hist.sites {
		if !other.sites[s] {
			return false
		}
	}
	// Words compare bitwise: a hit at X = 0 differs from a miss there.
	for s, obs := range hist.overflow {
		if !slices.Equal(obs, other.overflow[s]) {
			return false
		}
	}
	for p, obs := range hist.dangling {
		if !slices.Equal(obs, other.dangling[p]) {
			return false
		}
	}
	for s, v := range hist.padHint {
		if other.padHint[s] != v {
			return false
		}
	}
	for p, v := range hist.dferHint {
		if other.dferHint[p] != v {
			return false
		}
	}
	return true
}

// sortedIDKeys returns a map's site.ID keys in ascending order — the
// single canonical key order every encoder and snapshot in this package
// shares.
func sortedIDKeys[V any](m map[site.ID]V) []site.ID {
	out := make([]site.ID, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// sortedPairKeys returns a map's site.Pair keys ordered by (Alloc, Free).
func sortedPairKeys[V any](m map[site.Pair]V) []site.Pair {
	out := make([]site.Pair, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Alloc != out[j].Alloc {
			return out[i].Alloc < out[j].Alloc
		}
		return out[i].Free < out[j].Free
	})
	return out
}
