package cumulative

import "exterminator/internal/site"

// Evidence extraction: the surgical inverse of Absorb, built for cluster
// rebalancing (internal/cluster). When ring membership changes, a moved
// key's evidence must leave its old partition in one piece — otherwise
// fresh observations accumulate on the new owner while the old evidence
// ages on the previous one, and the Bayesian test never sees the pooled
// multiset it needs. Extract removes a key set's evidence atomically
// (with respect to this history) and returns it in canonical snapshot
// form, ready to be absorbed by the new owner.

// EvidenceKeys returns every allocation-site key this history holds
// evidence or hints under, sorted: the site set, overflow sites, pad-hint
// sites, and the allocation side of dangling pairs and deferral hints.
// This is the key universe a rebalance diffs against ring ownership —
// dangling pairs key by their alloc side, matching fleet.Store's striping
// and cluster.Ring's Owner.
func (hist *History) EvidenceKeys() []site.ID {
	set := make(map[site.ID]bool, len(hist.sites))
	for s := range hist.sites {
		set[s] = true
	}
	for s := range hist.overflow {
		set[s] = true
	}
	for s := range hist.padHint {
		set[s] = true
	}
	for p := range hist.dangling {
		set[p.Alloc] = true
	}
	for p := range hist.dferHint {
		set[p.Alloc] = true
	}
	return sortedIDKeys(set)
}

// Extract removes and returns the canonical evidence for a key set: the
// keys' overflow observations, pad hints, site-set membership, and every
// dangling pair and deferral hint whose allocation side is in the set.
// Run counters are NOT moved — they are not keyed, so they stay where
// the batch that carried them landed; cross-partition totals are
// preserved because the coordinator sums counters across partitions.
//
// Absorbing the returned snapshot into an empty history and re-absorbing
// it here reproduces the original evidence exactly (observations are
// returned in canonical order, hints at their maxima). Factor caches,
// dirty marks and above-threshold marks for the removed keys are
// dropped; the upload watermark's entries for them are cleared so a
// later UploadDelta cannot reference evidence that no longer exists.
func (hist *History) Extract(keys []site.ID) *Snapshot {
	if len(keys) == 0 {
		return &Snapshot{C: hist.cfg.C, P: hist.cfg.P}
	}
	ks := make(map[site.ID]bool, len(keys))
	for _, k := range keys {
		ks[k] = true
	}
	out := &Snapshot{C: hist.cfg.C, P: hist.cfg.P}
	for _, s := range sortedIDKeys(hist.sites) {
		if !ks[s] {
			continue
		}
		out.Sites = append(out.Sites, s)
		delete(hist.sites, s)
	}
	for _, s := range sortedIDKeys(hist.overflow) {
		if !ks[s] {
			continue
		}
		obs := hist.overflow[s]
		sortWords(obs)
		out.Overflow = append(out.Overflow, SiteObservations{Site: s, Obs: unpack(obs)})
		delete(hist.overflow, s)
		delete(hist.bfOverflow, s)
		delete(hist.dirtyOvf, s)
		delete(hist.aboveOvf, s)
	}
	for _, p := range sortedPairKeys(hist.dangling) {
		if !ks[p.Alloc] {
			continue
		}
		obs := hist.dangling[p]
		sortWords(obs)
		out.Dangling = append(out.Dangling, PairObservations{Alloc: p.Alloc, Free: p.Free, Obs: unpack(obs)})
		delete(hist.dangling, p)
		delete(hist.bfDangling, p)
		delete(hist.dirtyDan, p)
		delete(hist.aboveDan, p)
	}
	for _, s := range sortedIDKeys(hist.padHint) {
		if !ks[s] {
			continue
		}
		out.PadHints = append(out.PadHints, PadHint{Site: s, Pad: hist.padHint[s]})
		delete(hist.padHint, s)
	}
	for _, p := range sortedPairKeys(hist.dferHint) {
		if !ks[p.Alloc] {
			continue
		}
		out.DeferralHints = append(out.DeferralHints, DeferralHint{Alloc: p.Alloc, Free: p.Free, Deferral: hist.dferHint[p]})
		delete(hist.dferHint, p)
	}
	if hist.uploaded.sites != nil {
		m := &hist.uploaded
		for s := range ks {
			delete(m.sites, s)
			delete(m.overflow, s)
			delete(m.pad, s)
		}
		for p := range m.dangling {
			if ks[p.Alloc] {
				delete(m.dangling, p)
			}
		}
		for p := range m.dfer {
			if ks[p.Alloc] {
				delete(m.dfer, p)
			}
		}
	}
	return out
}
