// Package triage clusters the fleet's correlated error sites into
// ranked, lifecycle-tracked defect clusters — the aggregation layer a
// million-client deployment needs on top of raw per-site Bayes factors.
//
// The paper's hypothesis test (§5) scores *individual* allocation and
// deallocation sites; at fleet scale one source defect commonly surfaces
// as many distinct site hashes (the same buggy helper inlined or called
// from several places, differing only in outer frames). The engine folds
// those back together by normalized callsite signature: the innermost
// suffix of the site's recorded call stack, each frame normalized to its
// module-relative low bits so layout differences between installations
// do not split clusters. Sites with no recorded stack cluster by their
// own site hash — for dangling pairs that still merges every premature
// free of one allocation site into a single cluster. Once a site's stack
// arrives, its members leave the site-hash cluster for the signature
// cluster, and a cluster whose last member leaves drops out of the
// ranking.
//
// Per cluster the engine maintains a pooled Bayes factor (the sum of the
// members' log10 factors: observations at correlated sites are
// independent evidence for the shared root cause), a capped instance
// list (gasoline's DL-5 rule: never ship unbounded example lists), and a
// lifecycle:
//
//	new → active → patched → resolved
//	                 ↑           │ evidence re-accumulates
//	                 └── regressed
//
// A cluster is "patched" when every member key is covered by the current
// patch log, "resolved" after ResolveAfter quiet passes, and "regressed"
// when a resolved cluster re-accumulates evidence — the signal that a
// supposedly fixed defect shipped again. Regressions re-arm the webhook
// alerter (alert.go).
//
// Passes are driven by the owning tier — fleet.Server after each
// correction pass, cluster.Coordinator after each merge+correct — and
// are incremental: a pass carries only the candidates the tier's
// identify pass rescored, the patch-log entries added since the previous
// pass, and the current threshold. The engine keeps its own per-key
// membership and touches only the clusters those inputs reach: it
// refreshes their pooled evidence in canonical member order, takes them
// out of the ordered ranking, sorts them and merges them back. Some
// transitions need no new evidence — new → active one pass after a
// cluster appears, regressed → patched one pass after a regression the
// patch log still covers, and patched → resolved ResolveAfter passes
// after the last growth — so they wait on a due-queue keyed by pass
// number, and regressions the alert cooldown holds back are reconsidered
// every pass.
// A pass that carries every candidate says so (PassInput.Full), which
// drops members that vanished from the tier's evidence.
//
// The result is deterministic: the same evidence, frames and patch log
// produce byte-identical rankings regardless of sharding or of how the
// evidence was split across passes, which the package's property test
// (against a from-scratch reference) and the cluster e2e test pin.
package triage

import (
	"cmp"
	"log/slog"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"exterminator/internal/cumulative"
	"exterminator/internal/patch"
	"exterminator/internal/site"
	"exterminator/internal/telemetry"
)

// Cluster lifecycle states.
const (
	StateNew       = "new"
	StateActive    = "active"
	StatePatched   = "patched"
	StateResolved  = "resolved"
	StateRegressed = "regressed"
)

// Defaults for Config fields left zero.
const (
	DefaultSuffixDepth  = 3
	DefaultMaxInstances = 20 // gasoline DL-5: instance lists are capped
	DefaultResolveAfter = 3
)

// frameMask normalizes a stack frame to its module-relative low bits:
// synthetic site stacks (and real return PCs under ASLR) differ across
// installations only in the high "module base" bits, so clustering
// hashes the masked value.
const frameMask = 0xffffffff

// Config parameterizes the engine. The zero value is usable: defaults
// apply and alerting stays off until Alert.URL is set.
type Config struct {
	// SuffixDepth is how many innermost frames of a site's recorded
	// stack form its normalized signature (0 means DefaultSuffixDepth).
	SuffixDepth int

	// MaxInstances caps the per-cluster instance list served in detail
	// replies (0 means DefaultMaxInstances).
	MaxInstances int

	// ResolveAfter is how many consecutive quiet passes (no new
	// evidence) a patched cluster needs before it counts as resolved
	// (0 means DefaultResolveAfter).
	ResolveAfter int

	// Source names the tier in alert payloads ("fleetd",
	// "coordinator"); empty means "fleet".
	Source string

	// Alert configures the webhook alerter; the zero value disables it.
	Alert AlertConfig
}

func (c Config) withDefaults() Config {
	if c.SuffixDepth <= 0 {
		c.SuffixDepth = DefaultSuffixDepth
	}
	if c.MaxInstances <= 0 {
		c.MaxInstances = DefaultMaxInstances
	}
	if c.ResolveAfter <= 0 {
		c.ResolveAfter = DefaultResolveAfter
	}
	if c.Source == "" {
		c.Source = "fleet"
	}
	return c
}

// PassInput is what changed since the previous pass.
type PassInput struct {
	// Overflows and Danglings are the candidates the owning tier's
	// identify pass rescored (cumulative.History.Rescored): every key
	// whose evidence changed. Re-sending an unchanged candidate is
	// harmless.
	Overflows []cumulative.Candidate
	Danglings []cumulative.Candidate
	// Patches holds the patch-log entries added since the previous pass
	// (nil: none). Coverage only grows, so re-sending entries is
	// harmless too.
	Patches *patch.Set
	// Threshold is the per-site identification threshold (cN−1) the
	// candidates were scored against.
	Threshold float64
	// Full marks a pass that carries every candidate: members it leaves
	// out have vanished from the tier's evidence and are dropped.
	Full bool
}

// PassStats summarizes one pass.
type PassStats struct {
	Pass        uint64
	Clusters    int
	Transitions int
	Queued      int // alerts enqueued this pass
}

// clusterKey indexes a cluster: its kind, and either the normalized
// stack signature or the site hash of the overflow site / the dangling
// pair's alloc side.
type clusterKey struct {
	dangling bool
	bySig    bool
	hash     uint64
}

func (k clusterKey) kind() string {
	if k.dangling {
		return "dangling"
	}
	return "overflow"
}

// id renders the cluster id served on the wire; the ranking tie-break
// compares it, so it is built once, when the cluster is created.
func (k clusterKey) id() string {
	by := "-site-"
	if k.bySig {
		by = "-sig-"
	}
	return k.kind() + by + strconv.FormatUint(k.hash, 16)
}

// parseClusterID inverts clusterKey.id (the caller checks the round
// trip, so non-canonical spellings do not resolve).
func parseClusterID(id string) (clusterKey, bool) {
	kind, rest, ok := strings.Cut(id, "-")
	if !ok || (kind != "overflow" && kind != "dangling") {
		return clusterKey{}, false
	}
	by, hex, ok := strings.Cut(rest, "-")
	if !ok || (by != "sig" && by != "site") {
		return clusterKey{}, false
	}
	h, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return clusterKey{}, false
	}
	return clusterKey{dangling: kind == "dangling", bySig: by == "sig", hash: h}, true
}

// member is one evidence key folded into a cluster: an overflow site, or
// a dangling pair (clustered by its alloc side).
type member struct {
	site    site.ID // overflow site, or the pair's alloc side
	free    site.ID // dangling only
	bayes   float64
	obs     int
	covered bool   // the patch log covers this key
	seen    uint64 // last pass that carried this key
	c       *cluster
}

// memberCmp is the canonical member order: site, then free site. Pooled
// evidence is summed in it, so the float is identical however the
// members arrived.
func memberCmp(a, b *member) int {
	return cmp.Or(cmp.Compare(a.site, b.site), cmp.Compare(a.free, b.free))
}

// instanceCmp orders a cluster's instance list: strongest first, then by
// site and free site (their fixed-width renderings sort the same way).
func instanceCmp(a, b *member) int {
	return cmp.Or(cmp.Compare(b.bayes, a.bayes), cmp.Compare(a.site, b.site), cmp.Compare(a.free, b.free))
}

// cluster is the engine's per-cluster record. The wire-facing summary
// is rendered from it on read.
type cluster struct {
	id     string
	key    clusterKey
	frames []uint64 // masked signature suffix; nil for site-hash clusters

	members   []*member // canonical order
	uncovered int       // members the patch log does not cover yet

	state       string
	fresh       bool // created this pass; its "new" transition is not counted yet
	firstPass   uint64
	lastGrowth  uint64 // pass that last added evidence
	regressions int

	sites       int
	occurrences int
	pooled      float64   // log10 pooled Bayes factor
	top         float64   // strongest member's raw Bayes factor
	instances   []*member // strongest first, capped; Detail renders them

	stale   bool   // members changed since the last refresh
	mark    uint64 // pass that last queued it for evaluation
	removed bool   // its last member left; gone from the cluster map
}

// rankCmp is the ranking order: pooled Bayes descending, id ascending as
// the deterministic tie-break.
func rankCmp(a, b *cluster) int {
	return cmp.Or(cmp.Compare(b.pooled, a.pooled), strings.Compare(a.id, b.id))
}

// Engine is the triage engine. Safe for concurrent use; a nil *Engine
// is a valid no-op (partition-mode servers serve empty rankings).
type Engine struct {
	cfg     Config
	logger  *slog.Logger
	m       *metricsSet
	alerter *Alerter

	mu        sync.Mutex
	frames    map[site.ID][]uint64
	reframed  []site.ID // sites clustered by hash whose stack arrived since the last pass
	overflows map[site.ID]*member
	danglings map[site.Pair]*member
	clusters  map[clusterKey]*cluster
	ranked    []*cluster // rank order
	spare     []*cluster // merge buffer, swapped with ranked
	work      []*cluster // clusters evaluated this pass
	due       map[uint64][]*cluster
	held      []*cluster // regressions the alert cooldown held back last pass
	recheck   bool       // alert state was restored: reconsider every cluster
	padded    map[site.ID]bool
	deferred  map[site.Pair]bool
	pass      uint64
	threshold float64 // the last pass's
}

// New returns an engine with cfg (zero value fine).
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:       cfg,
		logger:    slog.New(slog.DiscardHandler),
		frames:    make(map[site.ID][]uint64),
		overflows: make(map[site.ID]*member),
		danglings: make(map[site.Pair]*member),
		clusters:  make(map[clusterKey]*cluster),
		due:       make(map[uint64][]*cluster),
		padded:    make(map[site.ID]bool),
		deferred:  make(map[site.Pair]bool),
	}
	e.alerter = newAlerter(cfg.Alert, cfg.Source)
	return e
}

// SetLogger attaches a structured logger (default: silent).
func (e *Engine) SetLogger(l *slog.Logger) {
	if e == nil || l == nil {
		return
	}
	e.logger = l.With("component", "triage")
	e.alerter.logger = e.logger
}

// SetMetrics registers the triage instrument set into reg.
func (e *Engine) SetMetrics(reg *telemetry.Registry) {
	if e == nil || reg == nil {
		return
	}
	e.m = newMetricsSet(reg)
	e.alerter.m = e.m
}

// RecordFrames stores the recorded call stack for a site (outermost
// first), feeding signature clustering. First writer wins, mirroring
// site.Registry semantics. A site already clustered by its hash moves
// to its signature cluster on the next pass.
func (e *Engine) RecordFrames(id site.ID, frames []uint64) {
	if e == nil || len(frames) == 0 {
		return
	}
	if len(frames) > maxTraceFrames {
		frames = frames[len(frames)-maxTraceFrames:]
	}
	e.mu.Lock()
	if _, ok := e.frames[id]; !ok {
		e.frames[id] = append([]uint64(nil), frames...)
		h := uint64(id)
		if e.clusters[clusterKey{hash: h}] != nil || e.clusters[clusterKey{dangling: true, hash: h}] != nil {
			e.reframed = append(e.reframed, id)
		}
	}
	e.mu.Unlock()
}

// Pass folds what changed since the previous pass into the clusters it
// touches, advances lifecycles that are due, re-ranks and arms alerts.
// Given every pass's changes, the result equals a pass over the full
// candidate set and patch log. Safe to call on a nil engine (no-op).
func (e *Engine) Pass(in PassInput) PassStats {
	if e == nil {
		return PassStats{}
	}
	start := time.Now()
	e.mu.Lock()
	e.pass++
	e.threshold = in.Threshold
	stats := PassStats{Pass: e.pass}

	e.moveReframedLocked()
	for _, c := range in.Overflows {
		m := e.overflows[c.Site]
		if m == nil {
			m = &member{site: c.Site, covered: e.padded[c.Site]}
			e.overflows[c.Site] = m
			e.joinLocked(m, e.clusterForLocked(false, c.Site))
		}
		e.updateLocked(m, c)
	}
	for _, c := range in.Danglings {
		m := e.danglings[c.Pair]
		if m == nil {
			m = &member{site: c.Pair.Alloc, free: c.Pair.Free, covered: e.deferred[c.Pair]}
			e.danglings[c.Pair] = m
			e.joinLocked(m, e.clusterForLocked(true, c.Pair.Alloc))
		}
		e.updateLocked(m, c)
	}
	e.coverLocked(in.Patches)
	if in.Full {
		e.sweepLocked()
	}
	for _, c := range e.due[e.pass] {
		e.queueLocked(c)
	}
	delete(e.due, e.pass)
	for _, c := range e.held {
		e.queueLocked(c)
	}
	if e.recheck {
		e.recheck = false
		for _, c := range e.clusters {
			e.queueLocked(c)
		}
	}

	e.evaluateLocked(&stats)
	e.rerankLocked()
	e.armAlertsLocked(&stats)
	clear(e.work)
	e.work = e.work[:0]
	stats.Clusters = len(e.clusters)

	if e.m != nil {
		e.m.clusters.Set(float64(len(e.clusters)))
		top := 0.0
		if len(e.ranked) > 0 {
			top = e.ranked[0].pooled
		}
		e.m.topBayes.Set(top)
	}
	e.mu.Unlock()
	if e.m != nil {
		e.m.passSec.ObserveSince(start)
	}
	return stats
}

// signatureLocked hashes the normalized innermost suffix of a recorded
// stack (64-bit DJB2 over the masked frames), or reports ok=false when
// the site has no recorded stack.
func (e *Engine) signatureLocked(id site.ID) (sig uint64, suffix []uint64, ok bool) {
	frames, found := e.frames[id]
	if !found || len(frames) == 0 {
		return 0, nil, false
	}
	depth := min(e.cfg.SuffixDepth, len(frames))
	suffix = frames[len(frames)-depth:]
	h := uint64(5381)
	for _, pc := range suffix {
		h = h*33 + (pc & frameMask)
	}
	return h, suffix, true
}

// clusterForLocked returns the cluster a key with alloc-side site s
// belongs in — by signature when the site has a recorded stack, by site
// hash otherwise — creating it when absent.
func (e *Engine) clusterForLocked(dangling bool, s site.ID) *cluster {
	key := clusterKey{dangling: dangling, hash: uint64(s)}
	sig, suffix, ok := e.signatureLocked(s)
	if ok {
		key = clusterKey{dangling: dangling, bySig: true, hash: sig}
	}
	if c := e.clusters[key]; c != nil {
		return c
	}
	c := &cluster{id: key.id(), key: key, state: StateNew, fresh: true, firstPass: e.pass}
	for _, pc := range suffix {
		c.frames = append(c.frames, pc&frameMask)
	}
	e.clusters[key] = c
	return c
}

// queueLocked adds c to this pass's evaluation set.
func (e *Engine) queueLocked(c *cluster) {
	if c.mark != e.pass && !c.removed {
		c.mark = e.pass
		e.work = append(e.work, c)
	}
}

// updateLocked stores a candidate's score on its member, marking the
// cluster for a refresh when it changed. The factor is clamped to the
// largest finite float, as log10Clamped clamps the low end: §5.1 makes
// an X = 0, Y = 1 observation infinite evidence, and no JSON reply,
// alert or snapshot can carry an infinity.
func (e *Engine) updateLocked(m *member, c cumulative.Candidate) {
	m.seen = e.pass
	bayes := min(c.Bayes, math.MaxFloat64)
	if m.bayes == bayes && m.obs == c.Obs {
		return
	}
	m.bayes, m.obs = bayes, c.Obs
	m.c.stale = true
	e.queueLocked(m.c)
}

// joinLocked inserts m into c in canonical order.
func (e *Engine) joinLocked(m *member, c *cluster) {
	i, _ := slices.BinarySearchFunc(c.members, m, memberCmp)
	c.members = slices.Insert(c.members, i, m)
	if !m.covered {
		c.uncovered++
	}
	m.c = c
	c.stale = true
	e.queueLocked(c)
}

// leaveLocked removes m from its cluster.
func (e *Engine) leaveLocked(m *member) {
	c := m.c
	if i, ok := slices.BinarySearchFunc(c.members, m, memberCmp); ok {
		c.members = slices.Delete(c.members, i, i+1)
	}
	if !m.covered {
		c.uncovered--
	}
	m.c = nil
	c.stale = true
	e.queueLocked(c)
}

// moveReframedLocked moves the members of sites whose stack arrived
// since the last pass from their site-hash clusters to their signature
// clusters.
func (e *Engine) moveReframedLocked() {
	for _, s := range e.reframed {
		for _, dangling := range []bool{false, true} {
			c := e.clusters[clusterKey{dangling: dangling, hash: uint64(s)}]
			if c == nil {
				continue
			}
			to := e.clusterForLocked(dangling, s)
			for len(c.members) > 0 {
				m := c.members[len(c.members)-1]
				e.leaveLocked(m)
				e.joinLocked(m, to)
			}
		}
	}
	e.reframed = e.reframed[:0]
}

// coverLocked folds newly added patch-log entries into member coverage.
func (e *Engine) coverLocked(ps *patch.Set) {
	if ps == nil {
		return
	}
	for _, pads := range []map[site.ID]uint32{ps.Pads, ps.FrontPads} {
		for s, v := range pads {
			if v == 0 || e.padded[s] {
				continue
			}
			e.padded[s] = true
			if m := e.overflows[s]; m != nil {
				e.coverMemberLocked(m)
			}
		}
	}
	for p, v := range ps.Deferrals {
		if v == 0 || e.deferred[p] {
			continue
		}
		e.deferred[p] = true
		if m := e.danglings[p]; m != nil {
			e.coverMemberLocked(m)
		}
	}
}

func (e *Engine) coverMemberLocked(m *member) {
	if m.covered {
		return
	}
	m.covered = true
	m.c.uncovered--
	e.queueLocked(m.c)
}

// sweepLocked drops every member a full pass did not carry.
func (e *Engine) sweepLocked() {
	for s, m := range e.overflows {
		if m.seen != e.pass {
			e.leaveLocked(m)
			delete(e.overflows, s)
		}
	}
	for p, m := range e.danglings {
		if m.seen != e.pass {
			e.leaveLocked(m)
			delete(e.danglings, p)
		}
	}
}

// evaluateLocked refreshes and advances every cluster queued this pass.
// A cluster left without members leaves the ranking.
func (e *Engine) evaluateLocked(stats *PassStats) {
	for _, c := range e.work {
		if len(c.members) == 0 {
			delete(e.clusters, c.key)
			c.removed = true
			continue
		}
		if c.fresh {
			c.fresh = false
			e.transition(c, StateNew, stats)
		}
		grew := c.firstPass == e.pass
		if c.stale {
			prev := c.occurrences
			e.refreshLocked(c)
			grew = grew || c.occurrences > prev
		}
		if grew {
			c.lastGrowth = e.pass
		}
		patched := c.uncovered == 0

		switch {
		case c.state == StateResolved && grew:
			c.regressions++
			e.transition(c, StateRegressed, stats)
		case patched && (c.state == StatePatched || c.state == StateResolved):
			if c.state == StatePatched && e.pass-c.lastGrowth >= uint64(e.cfg.ResolveAfter) {
				e.transition(c, StateResolved, stats)
			}
		case patched:
			e.transition(c, StatePatched, stats)
		case c.state == StateNew && c.firstPass != e.pass:
			e.transition(c, StateActive, stats)
		case c.state == StateRegressed && !patched:
			// stays regressed until the patch log covers it again
		}

		// Schedule the next transition that needs no new evidence.
		var at uint64
		switch {
		case c.state == StateNew:
			at = e.pass + 1
		case c.state == StateRegressed && patched:
			at = e.pass + 1
		case c.state == StatePatched && patched:
			at = max(c.lastGrowth+uint64(e.cfg.ResolveAfter), e.pass+1)
		default:
			continue
		}
		e.due[at] = append(e.due[at], c)
	}
}

// refreshLocked recomputes a cluster's pooled evidence from its members,
// summed in canonical order so the pooled float is identical however the
// members arrived.
func (e *Engine) refreshLocked(c *cluster) {
	c.stale = false
	pooled, top, occ, sites := 0.0, 0.0, 0, 0
	c.instances = c.instances[:0]
	for i, m := range c.members {
		if i == 0 || m.site != c.members[i-1].site {
			sites++
		}
		occ += m.obs
		pooled += log10Clamped(m.bayes)
		if m.bayes > top {
			top = m.bayes
		}
		c.instances = insertCapped(c.instances, m, e.cfg.MaxInstances)
	}
	c.sites, c.occurrences, c.pooled, c.top = sites, occ, pooled, top
}

// insertCapped inserts m into list (kept in instanceCmp order) unless it
// would land past the cap (gasoline DL-5 — never an unbounded example
// list on the wire).
func insertCapped(list []*member, m *member, limit int) []*member {
	i := len(list)
	for i > 0 && instanceCmp(m, list[i-1]) < 0 {
		i--
	}
	if i >= limit {
		return list
	}
	if len(list) < limit {
		list = append(list, nil)
	}
	copy(list[i+1:], list[i:len(list)-1])
	list[i] = m
	return list
}

// rerankLocked takes this pass's evaluated clusters out of the ranking,
// sorts them and merges them back in.
func (e *Engine) rerankLocked() {
	if len(e.work) == 0 {
		return
	}
	live := e.work[:0]
	for _, c := range e.work {
		if !c.removed {
			live = append(live, c)
		}
	}
	clear(e.work[len(live):])
	e.work = live
	slices.SortFunc(e.work, rankCmp)

	kept := e.ranked[:0]
	for _, c := range e.ranked {
		if c.mark != e.pass {
			kept = append(kept, c)
		}
	}
	out := e.spare[:0]
	i, j := 0, 0
	for i < len(kept) && j < len(e.work) {
		if rankCmp(e.work[j], kept[i]) < 0 {
			out = append(out, e.work[j])
			j++
		} else {
			out = append(out, kept[i])
			i++
		}
	}
	out = append(out, kept[i:]...)
	out = append(out, e.work[j:]...)
	clear(e.ranked[:cap(e.ranked)])
	e.spare = e.ranked[:0]
	e.ranked = out
}

// armAlertsLocked considers this pass's evaluated clusters for alerting,
// in rank order. Every other cluster's trigger inputs are unchanged since
// it was last considered, so it cannot arm.
func (e *Engine) armAlertsLocked(stats *PassStats) {
	clear(e.held)
	e.held = e.held[:0]
	if !e.alerter.cfg.Enabled() {
		return
	}
	for _, c := range e.work {
		queued, reason, held := e.alerter.consider(e.summaryLocked(c), e.pass)
		if queued {
			stats.Queued++
			e.logger.Info("alert armed",
				"cluster", c.id, "reason", reason,
				"pooledBayes", c.pooled, "occurrences", c.occurrences)
		}
		if held {
			e.held = append(e.held, c)
		}
	}
}

// transition moves a cluster into state and counts it.
func (e *Engine) transition(c *cluster, state string, stats *PassStats) {
	if c.state == state && state != StateNew {
		return
	}
	from := c.state
	c.state = state
	stats.Transitions++
	if e.m != nil {
		e.m.transition(state)
	}
	if state != StateNew {
		e.logger.Info("cluster transition", "cluster", c.id, "from", from, "to", state)
	}
}

// summaryLocked renders the wire summary for one cluster. Every cluster
// has members, and every pass carries (or keeps) them, so lastPass is
// the current pass; aboveThreshold reads the last pass's threshold. The
// summary string is a normalized template (gasoline DL-4/DL-6): counts
// and scores only, never raw payload text.
func (e *Engine) summaryLocked(c *cluster) ClusterSummary {
	kind := c.key.kind()
	return ClusterSummary{
		ID:             c.id,
		Kind:           kind,
		State:          c.state,
		Sites:          c.sites,
		Occurrences:    c.occurrences,
		PooledBayes:    c.pooled,
		TopBayes:       c.top,
		AboveThreshold: e.threshold > 0 && c.top >= e.threshold,
		Regressions:    c.regressions,
		FirstPass:      c.firstPass,
		LastPass:       e.pass,
		Summary: kind + ": " + strconv.Itoa(c.sites) + " correlated site(s), " +
			strconv.Itoa(c.occurrences) + " observation(s), pooled log10 Bayes " +
			strconv.FormatFloat(c.pooled, 'g', 6, 64),
	}
}

// Rankings serves the paginated top-offender list. offset/limit are
// clamped (limit 0 means DefaultPageSize, capped at MaxPageSize).
func (e *Engine) Rankings(offset, limit int) *RankingReply {
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
	if e == nil {
		return reply
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	reply.Pass = e.pass
	reply.Total = len(e.ranked)
	for i := offset; i < len(e.ranked) && len(reply.Clusters) < limit; i++ {
		reply.Clusters = append(reply.Clusters, e.summaryLocked(e.ranked[i]))
	}
	return reply
}

// Detail serves one cluster's detail reply.
func (e *Engine) Detail(id string) (*ClusterDetail, bool) {
	if e == nil {
		return nil, false
	}
	key, ok := parseClusterID(id)
	if !ok {
		return nil, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	c := e.clusters[key]
	if c == nil || c.id != id {
		return nil, false
	}
	d := &ClusterDetail{
		ClusterSummary: e.summaryLocked(c),
		Instances:      make([]TriageInstance, 0, len(c.instances)),
	}
	for _, m := range c.instances {
		ti := TriageInstance{Site: m.site.String(), Bayes: m.bayes, Obs: m.obs}
		if key.dangling {
			ti.Free = m.free.String()
		}
		d.Instances = append(d.Instances, ti)
	}
	for _, pc := range c.frames {
		d.Frames = append(d.Frames, "0x"+strconv.FormatUint(pc, 16))
	}
	d.Alert = e.alerter.status(c.id)
	return d, true
}

// Clusters reports the current cluster count.
func (e *Engine) Clusters() int {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.clusters)
}

func log10Clamped(v float64) float64 {
	if v < 1e-300 {
		v = 1e-300
	}
	return math.Log10(v)
}
