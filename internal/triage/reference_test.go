package triage

import (
	"sort"
	"strconv"

	"exterminator/internal/cumulative"
	"exterminator/internal/patch"
	"exterminator/internal/site"
)

// refEngine is the from-scratch reference the incremental Engine must
// match byte for byte. Every pass it re-aggregates the full candidate
// set against the full patch log — the pass body the engine ran before
// it became incremental — plus one rule: a cluster that no candidate
// maps to any more (a site-hash cluster whose site's stack arrived, or a
// cluster whose keys vanished) leaves the ranking.
type refEngine struct {
	cfg     Config
	alerter *Alerter

	frames   map[site.ID][]uint64
	clusters map[string]*refCluster
	pass     uint64
	ranked   []string
}

type refCluster struct {
	id   string
	kind string

	state       string
	firstPass   uint64
	lastPass    uint64
	lastGrowth  uint64
	regressions int

	sites       int
	occurrences int
	pooled      float64
	top         float64
	above       bool
	frames      []uint64
	instances   []TriageInstance
}

type refMember struct {
	site  site.ID
	pair  site.Pair
	kind  string
	bayes float64
	obs   int
}

type refAgg struct {
	id      string
	kind    string
	frames  []uint64
	members []refMember
}

func newRef(cfg Config) *refEngine {
	cfg = cfg.withDefaults()
	return &refEngine{
		cfg:      cfg,
		alerter:  newAlerter(cfg.Alert, cfg.Source),
		frames:   make(map[site.ID][]uint64),
		clusters: make(map[string]*refCluster),
	}
}

func (e *refEngine) RecordFrames(id site.ID, frames []uint64) {
	if len(frames) == 0 {
		return
	}
	if len(frames) > maxTraceFrames {
		frames = frames[len(frames)-maxTraceFrames:]
	}
	if _, ok := e.frames[id]; !ok {
		e.frames[id] = append([]uint64(nil), frames...)
	}
}

// Pass takes the full candidate set and the full patch log.
func (e *refEngine) Pass(in PassInput) PassStats {
	e.pass++
	stats := PassStats{Pass: e.pass}

	aggs := make(map[string]*refAgg)
	fold := func(id, kind string, frames []uint64, m refMember) {
		a := aggs[id]
		if a == nil {
			a = &refAgg{id: id, kind: kind, frames: frames}
			aggs[id] = a
		}
		a.members = append(a.members, m)
	}
	for _, c := range in.Overflows {
		id, frames := e.clusterKey("overflow", c.Site)
		fold(id, "overflow", frames, refMember{site: c.Site, kind: "overflow", bayes: c.Bayes, obs: c.Obs})
	}
	for _, c := range in.Danglings {
		id, frames := e.clusterKey("dangling", c.Pair.Alloc)
		fold(id, "dangling", frames, refMember{site: c.Pair.Alloc, pair: c.Pair, kind: "dangling", bayes: c.Bayes, obs: c.Obs})
	}

	ids := make([]string, 0, len(aggs))
	for id := range aggs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		a := aggs[id]
		cs := e.clusters[id]
		if cs == nil {
			cs = &refCluster{id: id, kind: a.kind, state: StateNew, firstPass: e.pass, frames: a.frames}
			e.clusters[id] = cs
			e.transition(cs, StateNew, &stats)
		}
		prevObs := cs.occurrences
		e.refresh(cs, a)
		cs.lastPass = e.pass
		grew := cs.occurrences > prevObs || cs.firstPass == e.pass
		if grew {
			cs.lastGrowth = e.pass
		}
		patched := in.Patches != nil && refPatched(a, in.Patches)
		cs.above = in.Threshold > 0 && cs.top >= in.Threshold

		switch {
		case cs.state == StateResolved && grew:
			cs.regressions++
			e.transition(cs, StateRegressed, &stats)
		case patched && (cs.state == StatePatched || cs.state == StateResolved):
			if cs.state == StatePatched && e.pass-cs.lastGrowth >= uint64(e.cfg.ResolveAfter) {
				e.transition(cs, StateResolved, &stats)
			}
		case patched:
			e.transition(cs, StatePatched, &stats)
		case cs.state == StateNew && cs.firstPass != e.pass:
			e.transition(cs, StateActive, &stats)
		}
	}
	for id := range e.clusters {
		if aggs[id] == nil {
			delete(e.clusters, id)
		}
	}

	e.ranked = e.ranked[:0]
	for id := range e.clusters {
		e.ranked = append(e.ranked, id)
	}
	sort.Slice(e.ranked, func(i, j int) bool {
		a, b := e.clusters[e.ranked[i]], e.clusters[e.ranked[j]]
		if a.pooled != b.pooled {
			return a.pooled > b.pooled
		}
		return a.id < b.id
	})
	stats.Clusters = len(e.clusters)
	for _, id := range e.ranked {
		if queued, _, _ := e.alerter.consider(e.summary(e.clusters[id]), e.pass); queued {
			stats.Queued++
		}
	}
	return stats
}

func (e *refEngine) clusterKey(kind string, s site.ID) (string, []uint64) {
	if frames, ok := e.frames[s]; ok && len(frames) > 0 {
		depth := min(e.cfg.SuffixDepth, len(frames))
		suffix := frames[len(frames)-depth:]
		h := uint64(5381)
		for _, pc := range suffix {
			h = h*33 + (pc & frameMask)
		}
		return kind + "-sig-" + strconv.FormatUint(h, 16), suffix
	}
	return kind + "-site-" + strconv.FormatUint(uint64(s), 16), nil
}

func (e *refEngine) refresh(cs *refCluster, a *refAgg) {
	sort.Slice(a.members, func(i, j int) bool {
		if a.members[i].site != a.members[j].site {
			return a.members[i].site < a.members[j].site
		}
		return a.members[i].pair.Free < a.members[j].pair.Free
	})
	distinct := make(map[site.ID]bool, len(a.members))
	pooled, top, occ := 0.0, 0.0, 0
	for _, m := range a.members {
		distinct[m.site] = true
		occ += m.obs
		pooled += log10Clamped(m.bayes)
		if m.bayes > top {
			top = m.bayes
		}
	}
	cs.sites = len(distinct)
	cs.occurrences = occ
	cs.pooled = pooled
	cs.top = top
	if len(a.frames) > 0 {
		cs.frames = a.frames
	}

	inst := make([]TriageInstance, 0, len(a.members))
	for _, m := range a.members {
		ti := TriageInstance{Site: m.site.String(), Bayes: m.bayes, Obs: m.obs}
		if m.kind == "dangling" {
			ti.Free = m.pair.Free.String()
		}
		inst = append(inst, ti)
	}
	sort.SliceStable(inst, func(i, j int) bool {
		if inst[i].Bayes != inst[j].Bayes {
			return inst[i].Bayes > inst[j].Bayes
		}
		if inst[i].Site != inst[j].Site {
			return inst[i].Site < inst[j].Site
		}
		return inst[i].Free < inst[j].Free
	})
	if len(inst) > e.cfg.MaxInstances {
		inst = inst[:e.cfg.MaxInstances]
	}
	cs.instances = inst
}

func refPatched(a *refAgg, ps *patch.Set) bool {
	for _, m := range a.members {
		if m.kind == "dangling" {
			if ps.Deferral(m.pair) == 0 {
				return false
			}
			continue
		}
		if ps.Pad(m.site) == 0 && ps.FrontPad(m.site) == 0 {
			return false
		}
	}
	return true
}

func (e *refEngine) transition(cs *refCluster, state string, stats *PassStats) {
	if cs.state == state && state != StateNew {
		return
	}
	cs.state = state
	stats.Transitions++
}

func (e *refEngine) summary(cs *refCluster) ClusterSummary {
	return ClusterSummary{
		ID:             cs.id,
		Kind:           cs.kind,
		State:          cs.state,
		Sites:          cs.sites,
		Occurrences:    cs.occurrences,
		PooledBayes:    cs.pooled,
		TopBayes:       cs.top,
		AboveThreshold: cs.above,
		Regressions:    cs.regressions,
		FirstPass:      cs.firstPass,
		LastPass:       cs.lastPass,
		Summary: cs.kind + ": " + strconv.Itoa(cs.sites) + " correlated site(s), " +
			strconv.Itoa(cs.occurrences) + " observation(s), pooled log10 Bayes " +
			strconv.FormatFloat(cs.pooled, 'g', 6, 64),
	}
}

func (e *refEngine) Rankings(offset, limit int) *RankingReply {
	if limit <= 0 {
		limit = DefaultPageSize
	}
	if limit > MaxPageSize {
		limit = MaxPageSize
	}
	if offset < 0 {
		offset = 0
	}
	reply := &RankingReply{Offset: offset, Limit: limit, Clusters: []ClusterSummary{}}
	reply.Pass = e.pass
	reply.Total = len(e.ranked)
	for i := offset; i < len(e.ranked) && len(reply.Clusters) < limit; i++ {
		reply.Clusters = append(reply.Clusters, e.summary(e.clusters[e.ranked[i]]))
	}
	return reply
}

func (e *refEngine) Detail(id string) (*ClusterDetail, bool) {
	cs, ok := e.clusters[id]
	if !ok {
		return nil, false
	}
	d := &ClusterDetail{
		ClusterSummary: e.summary(cs),
		Instances:      append([]TriageInstance{}, cs.instances...),
	}
	for _, pc := range cs.frames {
		d.Frames = append(d.Frames, "0x"+strconv.FormatUint(pc&frameMask, 16))
	}
	d.Alert = e.alerter.status(cs.id)
	return d, true
}

// refInput is the reference's view of one pass: every current
// candidate, in key order, and the full patch log.
func refInput(ovf map[site.ID]cumulative.Candidate, dan map[site.Pair]cumulative.Candidate, log *patch.Set, threshold float64) PassInput {
	in := PassInput{Patches: log, Threshold: threshold}
	for _, c := range ovf {
		in.Overflows = append(in.Overflows, c)
	}
	for _, c := range dan {
		in.Danglings = append(in.Danglings, c)
	}
	sort.Slice(in.Overflows, func(i, j int) bool { return in.Overflows[i].Site < in.Overflows[j].Site })
	sort.Slice(in.Danglings, func(i, j int) bool {
		a, b := in.Danglings[i].Pair, in.Danglings[j].Pair
		if a.Alloc != b.Alloc {
			return a.Alloc < b.Alloc
		}
		return a.Free < b.Free
	})
	return in
}
