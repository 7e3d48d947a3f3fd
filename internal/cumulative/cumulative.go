// Package cumulative implements Exterminator's cumulative-mode error
// isolation (paper §5).
//
// Cumulative mode isolates errors without replication, identical inputs
// or deterministic execution: instead of heap images it keeps a few
// numbers per call site per run, and applies a Bayesian hypothesis test
// across runs.
//
// Buffer overflows (§5.1): after a run in which corruption was found at
// slot k of miniheap Mc, every allocation site A gets an observation
// (X, Y) where X = P(C_A) is the probability — under the randomized
// placement — that at least one of A's objects landed where it *could*
// have caused the corruption (same miniheap, lower slot), and Y = C_A
// records whether one actually did. For an innocent site Y tracks X
// (pure chance); for the culprit, Y=1 far more often than X predicts.
//
// Dangling pointers (§5.2): freed objects are canaried with probability
// p (=1/2), turning each run into a Bernoulli trial; for each failed run
// and each (alloc site, free site) pair, X = 1 − (1−p)^m is the chance
// at least one of its m freed objects was canaried and Y records whether
// one was. Canarying a prematurely freed object is what *makes* the
// program fail, so the guilty pair's Y correlates with failure.
//
// The test (§5.1) rejects H0 (θ_A = 0) when
//
//	P(X̄,Ȳ | H1) / P(X̄,Ȳ | H0)  >  P(H0) / P(H1),
//
// with prior P(H1) = 1/(cN) (c = 4, N = number of sites), a uniform prior
// on θ_A, and the H1 likelihood integrated over θ in closed form (see
// BayesFactor).
//
// Beyond the classifier, the package provides the machinery that lets
// evidence travel: canonical Snapshot exchange (Snapshot/Absorb/Merge),
// and the upload watermark (UploadDelta/MarkUploaded — what keeps fleet
// uploads from double-counting across flushes, retries and process
// restarts, and whose lineage codec.BatchID hashes so servers can dedup
// a retried upload whose ack was lost). Split divides a history at its
// watermark and Restore rebuilds it from the two halves; a history file
// is those halves in one codec frame (internal/fleet/codec,
// FrameHistory), which this package does not import.
//
// A History stores each observation in one 8-byte word, X's bits with Y
// in bit 63, half the size of an Observation value (see word). Evidence
// is packed where it enters (Absorb, RecordRun) and unpacked where it
// leaves (Snapshot, UploadDelta, Split, Extract, ObservationsFor); the
// scorer reads the words. Packing drops X's sign bit, so every X handed
// to Absorb must lie in [0, 1], as the codec's decoders ensure, and
// ObservationsFor returns a copy.
package cumulative

import (
	"fmt"
	"math"
	"sort"

	"exterminator/internal/diefast"
	"exterminator/internal/mem"
	"exterminator/internal/patch"
	"exterminator/internal/site"
)

// Observation is one run's (X, Y) for one site (or site pair).
type Observation struct {
	X float64 // probability of satisfying the criteria by chance
	Y bool    // whether the criteria were actually satisfied
}

// Config parameterizes the classifier.
type Config struct {
	// C is the prior constant: P(H1) = 1/(C·N). The paper uses 4.
	C float64
	// P is the canary fill probability used by the heap (needed to
	// compute dangling X values). The paper uses 1/2.
	P float64
}

// DefaultConfig mirrors the paper (§5.1–§5.2).
func DefaultConfig() Config { return Config{C: 4, P: 0.5} }

// History accumulates per-site summaries across runs. "The retained data
// is on the order of a few kilobytes per execution" (§3.4): observations,
// not heap images.
type History struct {
	cfg Config

	// Observation lists, one 8-byte word per observation (see word).
	overflow map[site.ID][]word
	dangling map[site.Pair][]word
	padHint  map[site.ID]uint32
	dferHint map[site.Pair]uint64
	sites    map[site.ID]bool // all allocation sites ever seen (N)

	// Incremental-identify state: Bayes factors are cached per key and
	// recomputed only for keys whose observation list changed since the
	// last pass ("dirty"). A factor depends only on the key's miss count
	// and the sorted X values of its hits, so a cached value is exactly
	// what a fresh recompute would produce regardless of ingest order.
	bfOverflow map[site.ID]float64
	bfDangling map[site.Pair]float64
	dirtyOvf   map[site.ID]bool
	dirtyDan   map[site.Pair]bool

	// aboveOvf and aboveDan are the keys whose factor exceeded cN−1 at
	// the last identify pass, run at N = lastN. Every other key was
	// below that threshold then, and is skipped while it stays clean and
	// N does not fall below lastN (see IdentifyWithSites).
	aboveOvf map[site.ID]bool
	aboveDan map[site.Pair]bool
	lastN    int

	// scratch is what a rescore computes its factor in, so an identify
	// pass allocates nothing per key. Identify's callers hold the lock
	// that guards the history, and with it the scratch.
	scratch scorer

	// rescoredOvf and rescoredDan are the candidates the most recent
	// identify pass recomputed (see Rescored).
	rescoredOvf []Candidate
	rescoredDan []Candidate

	// Upload watermark: how much of this history has already been
	// uploaded to a fleet (see watermark.go).
	uploaded uploadMark

	Runs        int
	FailedRuns  int
	CorruptRuns int
}

// NewHistory returns an empty history.
func NewHistory(cfg Config) *History {
	// The negated tests also replace NaN.
	if !(cfg.C > 0) {
		cfg.C = 4
	}
	if !(cfg.P > 0 && cfg.P < 1) {
		cfg.P = 0.5
	}
	return &History{
		cfg:        cfg,
		overflow:   make(map[site.ID][]word),
		dangling:   make(map[site.Pair][]word),
		padHint:    make(map[site.ID]uint32),
		dferHint:   make(map[site.Pair]uint64),
		sites:      make(map[site.ID]bool),
		bfOverflow: make(map[site.ID]float64),
		bfDangling: make(map[site.Pair]float64),
		dirtyOvf:   make(map[site.ID]bool),
		dirtyDan:   make(map[site.Pair]bool),
		aboveOvf:   make(map[site.ID]bool),
		aboveDan:   make(map[site.Pair]bool),
	}
}

// touchOverflow marks a site's overflow evidence as changed since the
// last identify pass.
func (hist *History) touchOverflow(s site.ID) { hist.dirtyOvf[s] = true }

// touchDangling marks a pair's dangling evidence as changed.
func (hist *History) touchDangling(p site.Pair) { hist.dirtyDan[p] = true }

// DirtyKeys returns the number of overflow sites and dangling pairs whose
// evidence changed since the last identify pass — the work the next
// incremental pass will do.
func (hist *History) DirtyKeys() int { return len(hist.dirtyOvf) + len(hist.dirtyDan) }

// OverflowKeys returns the number of tracked overflow sites.
func (hist *History) OverflowKeys() int { return len(hist.overflow) }

// DanglingKeys returns the number of tracked dangling pairs.
func (hist *History) DanglingKeys() int { return len(hist.dangling) }

// Sites returns N, the number of distinct allocation sites observed.
func (hist *History) Sites() int { return len(hist.sites) }

// RecordRun folds one finished run into the history. failed reports
// whether the run crashed, aborted, or produced divergent output. The
// heap must have been created with diefast.CumulativeConfig so the
// allocation and free logs are present.
func (hist *History) RecordRun(h *diefast.Heap, failed bool) {
	hist.Runs++
	if failed {
		hist.FailedRuns++
	}
	log := h.Diehard().Log()
	for _, rec := range log {
		hist.sites[rec.Site] = true
	}

	// Overflow summaries: only runs that exhibit corruption contribute
	// (§5.1 phase 1: identify heap corruption).
	if corr := h.Scan(false); len(corr) > 0 {
		hist.CorruptRuns++
		hist.recordOverflow(h, corr[0])
	}

	// Dangling summaries: only failed runs contribute (§5.2).
	if failed {
		hist.recordDangling(h)
	}
}

// recordOverflow computes (X, Y) per allocation site for the first
// corruption found this run, plus the pad hint.
func (hist *History) recordOverflow(h *diefast.Heap, corr diefast.Corruption) {
	dh := h.Diehard()
	minis := dh.Miniheaps()
	mc := minis[corr.Mini]
	k := corr.Slot

	// Per-object P(C_i), folded per site into P(C_A) = 1 − Π(1 − P(C_i)),
	// and the observed C_A.
	noSat := make(map[site.ID]float64) // Π (1 − P(C_i))
	satisf := make(map[site.ID]bool)
	for _, rec := range dh.Log() {
		if _, ok := noSat[rec.Site]; !ok {
			noSat[rec.Site] = 1
		}
		if rec.Class != mc.Class {
			continue // wrong size class: P(C_i) = 0
		}
		if mc.CreateTime > rec.Time {
			continue // corrupt miniheap did not exist yet: P(C_i) = 0
		}
		denom := 0
		for _, mj := range minis {
			if mj.Class == mc.Class && mj.CreateTime <= rec.Time {
				denom += mj.Slots
			}
		}
		if denom == 0 {
			continue
		}
		pc := (float64(mc.Slots) / float64(denom)) * (float64(k) / float64(mc.Slots))
		noSat[rec.Site] *= 1 - pc
		if rec.Mini == corr.Mini && rec.Slot < k {
			satisf[rec.Site] = true
		}
	}
	for s, ns := range noSat {
		hist.overflow[s] = append(hist.overflow[s], pack(Observation{X: 1 - ns, Y: satisf[s]}))
		hist.touchOverflow(s)
	}

	// Pad hint (§5.1): search backwards from the corruption for the
	// nearest object from each candidate site; the pad is the distance
	// from that object's usable end to the end of the corruption.
	corrEnd := 0
	for _, r := range corr.Ranges {
		if r.End > corrEnd {
			corrEnd = r.End
		}
	}
	corrEndAddr := mc.SlotAddr(corr.Slot) + mem.Addr(corrEnd)
	for slot := corr.Slot; slot >= 0; slot-- {
		m := mc.Meta(slot)
		if m.ID == 0 || slot == corr.Slot {
			continue
		}
		need := int64(corrEndAddr) - int64(mc.SlotAddr(slot)) - int64(m.ReqSize)
		if need <= 0 {
			continue
		}
		if cur := hist.padHint[m.AllocSite]; uint32(need) > cur {
			hist.padHint[m.AllocSite] = uint32(need)
		}
	}
}

// recordDangling computes (X, Y) per (alloc, free) site pair for a failed
// run, plus the lifetime-extension hint from the oldest canaried object.
func (hist *History) recordDangling(h *diefast.Heap) {
	type agg struct {
		m        int
		canaried bool
		oldest   uint64 // earliest FreeTime among canaried objects
	}
	pairs := make(map[site.Pair]*agg)
	for _, fr := range h.FreeLog() {
		p := site.Pair{Alloc: fr.AllocSite, Free: fr.FreeSite}
		a := pairs[p]
		if a == nil {
			a = &agg{oldest: math.MaxUint64}
			pairs[p] = a
		}
		a.m++
		if fr.Canaried {
			a.canaried = true
			if fr.FreeTime < a.oldest {
				a.oldest = fr.FreeTime
			}
		}
	}
	T := h.Clock()
	for p, a := range pairs {
		x := 1 - math.Pow(1-hist.cfg.P, float64(a.m))
		hist.dangling[p] = append(hist.dangling[p], pack(Observation{X: x, Y: a.canaried}))
		hist.touchDangling(p)
		if a.canaried {
			ext := 2 * (T - a.oldest)
			if ext == 0 {
				ext = 1
			}
			if ext > hist.dferHint[p] {
				hist.dferHint[p] = ext
			}
		}
	}
}

// OverflowSite is an allocation site identified as an overflow source.
type OverflowSite struct {
	Site  site.ID
	Pad   uint32
	Bayes float64 // L1/L0
	Runs  int     // observations used
}

// DanglingPair is a site pair identified as a dangling-pointer source.
type DanglingPair struct {
	Pair     site.Pair
	Deferral uint64
	Bayes    float64
	Runs     int
}

// Findings is the classifier output.
type Findings struct {
	Overflows []OverflowSite
	Danglings []DanglingPair
}

// Patches converts findings into runtime patches.
func (f *Findings) Patches() *patch.Set {
	ps := patch.New()
	for _, o := range f.Overflows {
		ps.AddPad(o.Site, o.Pad)
	}
	for _, d := range f.Danglings {
		ps.AddDeferral(d.Pair, d.Deferral)
	}
	return ps
}

// Empty reports whether nothing crossed the threshold.
func (f *Findings) Empty() bool {
	return len(f.Overflows) == 0 && len(f.Danglings) == 0
}

// Identify runs the hypothesis test over everything recorded so far. It
// is incremental: Bayes factors are recomputed only for keys whose
// evidence changed since the last pass; every other key reuses its cached
// factor (identical to a recompute — a factor is a function of the key's
// miss count and the sorted X values of its hits). Nor does a pass visit
// every key: it tests the keys that were above the threshold cN−1 at the
// last pass and the changed ones. A clean key below the last pass's
// threshold stays below while N does not fall, since the threshold only
// rises with N; a pass whose N is below the last one's tests every key.
//
// The keys the pass recomputed are what the triage engine consumes:
// Rescored hands them out as candidates, one per changed overflow site
// and dangling pair, whether or not they crossed the threshold. Every
// key Rescored leaves out kept its factor and observation count, so a
// consumer that folds each pass's candidates into its own state stays
// current without rereading the whole history.
func (hist *History) Identify() *Findings {
	return hist.IdentifyWithSites(len(hist.sites))
}

// IdentifyWithSites is Identify with the prior's N supplied externally.
// A sharded evidence store holds disjoint slices of one logical history;
// each shard must test its keys against the *global* site count, not its
// own subset, to decide exactly as an unsharded store would. With n = 0
// nothing is tested, but changed keys are still rescored and handed out.
func (hist *History) IdentifyWithSites(n int) *Findings {
	f := &Findings{}
	threshold := hist.cfg.C*float64(n) - 1
	hist.rescoredOvf = make([]Candidate, 0, len(hist.dirtyOvf))
	hist.rescoredDan = make([]Candidate, 0, len(hist.dirtyDan))
	if n < hist.lastN {
		// N fell (an extraction removed sites), and with it the
		// threshold: a clean key below the old one may be above the new.
		for s := range hist.overflow {
			hist.aboveOvf[s] = true
		}
		for p := range hist.dangling {
			hist.aboveDan[p] = true
		}
	}
	hist.lastN = n

	// The keys above the last threshold go first. Scoring a key clears
	// its dirty mark, so the dirty walk after them skips those keys.
	for s := range hist.aboveOvf {
		if !hist.testOverflow(f, s, n, threshold) {
			delete(hist.aboveOvf, s)
		}
	}
	for s := range hist.dirtyOvf {
		if hist.testOverflow(f, s, n, threshold) {
			hist.aboveOvf[s] = true
		}
	}
	for p := range hist.aboveDan {
		if !hist.testDangling(f, p, n, threshold) {
			delete(hist.aboveDan, p)
		}
	}
	for p := range hist.dirtyDan {
		if hist.testDangling(f, p, n, threshold) {
			hist.aboveDan[p] = true
		}
	}
	sortFindings(f)
	return f
}

// testOverflow scores site s and reports whether its factor exceeds
// threshold. Such a site is a finding when n > 0 and its pad is known.
func (hist *History) testOverflow(f *Findings, s site.ID, n int, threshold float64) bool {
	obs := hist.overflow[s]
	ratio := hist.overflowFactor(s, obs)
	above := ratio > threshold
	if pad := hist.padHint[s]; above && n > 0 && pad != 0 {
		f.Overflows = append(f.Overflows, OverflowSite{Site: s, Pad: pad, Bayes: ratio, Runs: len(obs)})
	}
	return above
}

// testDangling is testOverflow for pair keys and their deferral hints.
func (hist *History) testDangling(f *Findings, p site.Pair, n int, threshold float64) bool {
	obs := hist.dangling[p]
	ratio := hist.danglingFactor(p, obs)
	above := ratio > threshold
	if d := hist.dferHint[p]; above && n > 0 && d != 0 {
		f.Danglings = append(f.Danglings, DanglingPair{Pair: p, Deferral: d, Bayes: ratio, Runs: len(obs)})
	}
	return above
}

// IdentifyFull drops every cached factor and rescores all keys from
// scratch — the O(keys × observations) pass Identify used to be. It
// exists as the reference for equivalence tests and benchmarks; results
// are identical to Identify by construction. Since every key is
// rescored, Rescored then hands out the complete candidate set.
func (hist *History) IdentifyFull() *Findings {
	hist.Invalidate()
	return hist.Identify()
}

// Invalidate drops every cached factor, so the next identify pass
// rescores every key and Rescored hands out the complete candidate set.
// A consumer that must rebuild its view of the candidates from scratch
// (a triage pass after a snapshot restore) calls it first.
func (hist *History) Invalidate() {
	hist.bfOverflow = make(map[site.ID]float64, len(hist.overflow))
	hist.bfDangling = make(map[site.Pair]float64, len(hist.dangling))
	for s := range hist.overflow {
		hist.touchOverflow(s)
	}
	for p := range hist.dangling {
		hist.touchDangling(p)
	}
}

// Rescored hands over the candidates the most recent identify pass
// recomputed, overflow sites and dangling pairs apart, in no particular
// order. The slices become the caller's: the history drops its
// references, so a second call before the next pass returns nothing.
func (hist *History) Rescored() (over, dang []Candidate) {
	over, dang = hist.rescoredOvf, hist.rescoredDan
	hist.rescoredOvf, hist.rescoredDan = nil, nil
	return over, dang
}

// overflowFactor returns the (possibly cached) Bayes factor for one site.
// A recompute reads only the miss count and the sorted hit X values, so
// the factor — and therefore every identify decision — is independent of
// the order evidence arrived in.
func (hist *History) overflowFactor(s site.ID, obs []word) float64 {
	if v, ok := hist.bfOverflow[s]; ok && !hist.dirtyOvf[s] {
		return v
	}
	v := hist.scratch.packed(obs)
	hist.bfOverflow[s] = v
	delete(hist.dirtyOvf, s)
	hist.rescoredOvf = append(hist.rescoredOvf, Candidate{Site: s, Bayes: v, Obs: len(obs)})
	return v
}

// danglingFactor is overflowFactor for pair keys.
func (hist *History) danglingFactor(p site.Pair, obs []word) float64 {
	if v, ok := hist.bfDangling[p]; ok && !hist.dirtyDan[p] {
		return v
	}
	v := hist.scratch.packed(obs)
	hist.bfDangling[p] = v
	delete(hist.dirtyDan, p)
	hist.rescoredDan = append(hist.rescoredDan, Candidate{Pair: p, Bayes: v, Obs: len(obs)})
	return v
}

func sortFindings(f *Findings) {
	sort.Slice(f.Overflows, func(i, j int) bool {
		if f.Overflows[i].Bayes != f.Overflows[j].Bayes {
			return f.Overflows[i].Bayes > f.Overflows[j].Bayes
		}
		return f.Overflows[i].Site < f.Overflows[j].Site
	})
	sort.Slice(f.Danglings, func(i, j int) bool {
		if f.Danglings[i].Bayes != f.Danglings[j].Bayes {
			return f.Danglings[i].Bayes > f.Danglings[j].Bayes
		}
		pi, pj := f.Danglings[i].Pair, f.Danglings[j].Pair
		if pi.Alloc != pj.Alloc {
			return pi.Alloc < pj.Alloc
		}
		return pi.Free < pj.Free
	})
}

// Candidate is one key's score as of the identify pass that rescored it:
// the site (overflow) or pair (dangling), its Bayes factor and its
// observation count, whether or not it crossed the threshold. Identify
// hands these to the triage engine through Rescored.
type Candidate struct {
	Site  site.ID   // overflow candidates
	Pair  site.Pair // dangling candidates
	Bayes float64
	Obs   int
}

// Threshold returns the decision threshold cN−1 for the current N.
func (hist *History) Threshold() float64 {
	return hist.cfg.C*float64(len(hist.sites)) - 1
}

// String summarizes the history.
func (hist *History) String() string {
	return fmt.Sprintf("cumulative history: %d runs (%d failed, %d corrupt), %d sites, %d/%d tracked overflow/dangling keys",
		hist.Runs, hist.FailedRuns, hist.CorruptRuns, len(hist.sites), len(hist.overflow), len(hist.dangling))
}

// ObservationsFor returns a copy of a site's overflow observations, in
// the order they were recorded (for tests and the experiment harness).
func (hist *History) ObservationsFor(s site.ID) []Observation { return unpack(hist.overflow[s]) }
