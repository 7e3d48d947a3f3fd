package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"exterminator/internal/cluster"
	"exterminator/internal/cumulative"
	"exterminator/internal/site"
	"exterminator/internal/xrand"
)

// Upload shape, after one installation's flush of a few runs: four runs,
// 40 overflow observations and 8 dangling-pair observations, each
// consistent with chance (Y drawn with probability X). Guilty sites get
// low-X observations with Y = true and a pad hint; obsToCross of them
// push a site's Bayes factor past C·N−1 for the fleet sizes used here
// (five give a factor near 5.6e5 against a threshold near 8e4).
const (
	uploadRuns     = 4
	uploadOverflow = 40
	uploadDangling = 8
	guiltyX        = 0.05
	obsToCross     = 5
)

// universe is a fleet workload's evidence key space.
type universe struct {
	innocent []site.ID
	guilty   []site.ID
	pairs    []site.Pair
}

func newUniverse(rng *xrand.RNG, innocent, guilty, pairs int) *universe {
	seen := map[site.ID]bool{0: true}
	draw := func() site.ID {
		for {
			if id := site.ID(rng.Uint32()); !seen[id] {
				seen[id] = true
				return id
			}
		}
	}
	u := &universe{}
	for i := 0; i < innocent; i++ {
		u.innocent = append(u.innocent, draw())
	}
	for i := 0; i < guilty; i++ {
		u.guilty = append(u.guilty, draw())
	}
	pairSeen := map[site.Pair]bool{}
	for len(u.pairs) < pairs {
		p := site.Pair{Alloc: u.innocent[rng.Intn(innocent)], Free: u.innocent[rng.Intn(innocent)]}
		if !pairSeen[p] {
			pairSeen[p] = true
			u.pairs = append(u.pairs, p)
		}
	}
	return u
}

// upload is one installation's evidence upload. Its watermark position
// (runs and observations the installation uploaded before it) feeds the
// pieces' batch IDs, so every upload is distinct to the partitions'
// exactly-once windows.
type upload struct {
	inst          int
	wmRuns, wmObs int
	snap          *cumulative.Snapshot
	guilty        []site.ID
}

// uploadGen draws uploads for a fixed set of installations.
type uploadGen struct {
	rng *xrand.RNG
	u   *universe
	wm  [][2]int // per installation: runs, observations uploaded so far
}

func newUploadGen(rng *xrand.RNG, u *universe, insts int) *uploadGen {
	return &uploadGen{rng: rng, u: u, wm: make([][2]int, insts)}
}

// next draws the k-th upload, from installation k mod insts, carrying one
// guilty observation per entry of guilty (a site may repeat).
func (g *uploadGen) next(k int, guilty []site.ID) *upload {
	inst := k % len(g.wm)
	s := &cumulative.Snapshot{C: 4, P: 0.5, Runs: uploadRuns}
	s.FailedRuns = g.rng.Intn(uploadRuns + 1)
	s.CorruptRuns = g.rng.Intn(uploadRuns + 1)
	obs := map[site.ID][]cumulative.Observation{}
	for len(obs) < uploadOverflow {
		id := g.u.innocent[g.rng.Intn(len(g.u.innocent))]
		if _, dup := obs[id]; !dup {
			obs[id] = []cumulative.Observation{g.chance(0.02, 0.6)}
		}
	}
	for _, id := range guilty {
		if _, dup := obs[id]; !dup {
			s.PadHints = append(s.PadHints, cumulative.PadHint{Site: id, Pad: 8 << (uint32(id) % 3)})
		}
		obs[id] = append(obs[id], cumulative.Observation{X: guiltyX, Y: true})
	}
	for id, o := range obs {
		s.Sites = append(s.Sites, id)
		s.Overflow = append(s.Overflow, cumulative.SiteObservations{Site: id, Obs: o})
	}
	pairs := map[site.Pair]bool{}
	for len(pairs) < uploadDangling {
		p := g.u.pairs[g.rng.Intn(len(g.u.pairs))]
		if pairs[p] {
			continue
		}
		pairs[p] = true
		m := 1 + g.rng.Intn(4)
		x := 1 - math.Pow(0.5, float64(m))
		s.Dangling = append(s.Dangling, cumulative.PairObservations{
			Alloc: p.Alloc, Free: p.Free, Obs: []cumulative.Observation{{X: x, Y: g.rng.Bool(x)}},
		})
	}
	canonical(s)
	up := &upload{inst: inst, wmRuns: g.wm[inst][0], wmObs: g.wm[inst][1], snap: s, guilty: guilty}
	g.wm[inst][0] += s.Runs
	g.wm[inst][1] += observations(s)
	return up
}

// chance draws one observation consistent with an innocent site: X
// uniform in [lo, lo+span), Y true with probability X.
func (g *uploadGen) chance(lo, span float64) cumulative.Observation {
	x := lo + span*g.rng.Float64()
	return cumulative.Observation{X: x, Y: g.rng.Bool(x)}
}

// census returns uploads that together name every site of the universe,
// so N (and with it the threshold C·N−1) is fixed before any timed
// upload. Innocent sites get one chance observation each; guilty sites
// get none, so only their planted observations decide when they cross.
func (g *uploadGen) census(k0, chunk int) []*upload {
	all := append(append([]site.ID(nil), g.u.innocent...), g.u.guilty...)
	var out []*upload
	for i := 0; i < len(all); i += chunk {
		inst := (k0 + len(out)) % len(g.wm)
		s := &cumulative.Snapshot{C: 4, P: 0.5}
		for j := i; j < min(i+chunk, len(all)); j++ {
			s.Sites = append(s.Sites, all[j])
			if j < len(g.u.innocent) {
				s.Overflow = append(s.Overflow, cumulative.SiteObservations{
					Site: all[j], Obs: []cumulative.Observation{g.chance(0.02, 0.6)},
				})
			}
		}
		canonical(s)
		out = append(out, &upload{inst: inst, wmRuns: g.wm[inst][0], wmObs: g.wm[inst][1], snap: s})
		g.wm[inst][1] += observations(s)
	}
	return out
}

func observations(s *cumulative.Snapshot) int {
	n := 0
	for _, so := range s.Overflow {
		n += len(so.Obs)
	}
	for _, po := range s.Dangling {
		n += len(po.Obs)
	}
	return n
}

// canonical sorts a snapshot's lists the way History.Snapshot does.
func canonical(s *cumulative.Snapshot) {
	sort.Slice(s.Sites, func(i, j int) bool { return s.Sites[i] < s.Sites[j] })
	sort.Slice(s.Overflow, func(i, j int) bool { return s.Overflow[i].Site < s.Overflow[j].Site })
	for _, so := range s.Overflow {
		sortObs(so.Obs)
	}
	sort.Slice(s.Dangling, func(i, j int) bool {
		a, b := s.Dangling[i], s.Dangling[j]
		if a.Alloc != b.Alloc {
			return a.Alloc < b.Alloc
		}
		return a.Free < b.Free
	})
	sort.Slice(s.PadHints, func(i, j int) bool { return s.PadHints[i].Site < s.PadHints[j].Site })
}

// sortObs is the history's canonical observation order: by X, Y=false
// first.
func sortObs(obs []cumulative.Observation) {
	sort.Slice(obs, func(i, j int) bool {
		if obs[i].X != obs[j].X {
			return obs[i].X < obs[j].X
		}
		return !obs[i].Y && obs[j].Y
	})
}

// plantSchedule places obsToCross observations for each guilty site among
// n uploads. Sites cross in groups of group: group g's last observations
// land at upload d_g, spread evenly over 5%–85% of the phase, their
// earlier ones gap uploads apart before it. It returns, per upload, the
// guilty sites it carries.
func plantSchedule(sites []site.ID, n, gap, group int) [][]site.ID {
	at := make([][]site.ID, n)
	groups := (len(sites) + group - 1) / group
	for j, s := range sites {
		d := int(float64(n) * (0.05 + 0.80*(float64(j/group)+0.5)/float64(groups)))
		for k := obsToCross - 1; k >= 0; k-- {
			i := max(0, d-k*gap)
			at[i] = append(at[i], s)
		}
	}
	return at
}

// decisiveUploads feeds a reference history the set-up uploads and then a
// phase's uploads in order, and returns for each guilty site the index of
// the phase upload after which its Bayes factor first exceeds C·N−1: the
// upload that decides its patch.
func decisiveUploads(setup, phase []*upload, sites []site.ID) (map[site.ID]int, error) {
	ref := cumulative.NewHistory(cumulative.DefaultConfig())
	for _, up := range setup {
		ref.Absorb(up.snap)
	}
	out := map[site.ID]int{}
	for i, up := range phase {
		ref.Absorb(up.snap)
		for _, s := range up.guilty {
			if _, done := out[s]; done {
				continue
			}
			obs := append([]cumulative.Observation(nil), ref.ObservationsFor(s)...)
			sortObs(obs)
			if cumulative.BayesFactor(obs) > ref.Threshold() {
				out[s] = i
			}
		}
	}
	for _, s := range sites {
		if _, ok := out[s]; !ok {
			return nil, fmt.Errorf("guilty site %v never crosses the threshold", s)
		}
	}
	return out, nil
}

// sent is the outcome of one upload.
type sent struct {
	done  time.Time
	acked []*cumulative.Snapshot
	err   error
}

// absorbAcked folds every acknowledged piece into h and returns the runs
// they carried.
func absorbAcked(h *cumulative.History, outs ...[]sent) int {
	runs := 0
	for _, out := range outs {
		for _, o := range out {
			for _, p := range o.acked {
				h.Absorb(p)
				runs += p.Runs
			}
		}
	}
	return runs
}

// uploader sends uploads the way cluster.Sink streams a delta: split
// along the ring with SplitBatch, then every piece pushed with PushPiece
// concurrently. One router per installation.
type uploader struct {
	tr      *tracer
	routers []*cluster.Router
}

func newUploader(tr *tracer, insts int, partitions []string) (*uploader, error) {
	u := &uploader{tr: tr}
	for i := 0; i < insts; i++ {
		rt, err := cluster.NewRouter(fmt.Sprintf("install-%d", i), partitions...)
		if err != nil {
			return nil, err
		}
		rt.SetWireV2(true)
		u.routers = append(u.routers, rt)
	}
	return u, nil
}

// push sends one upload. Spans: client.upload, with router.split and one
// router.push per piece under it (each push parents the partition's
// ingest span).
func (u *uploader) push(ctx context.Context, up *upload, traced bool) sent {
	tr := u.tr
	if !traced {
		tr = nil
	}
	rt := u.routers[up.inst%len(u.routers)]
	root := tr.begin(0, "client.upload")
	defer root.end()
	sp := tr.begin(root.id, "router.split")
	pieces, err := rt.SplitBatch(up.wmRuns, up.wmObs, up.snap)
	sp.end()
	if err != nil {
		return sent{done: time.Now(), err: err}
	}
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		res sent
	)
	for _, p := range pieces {
		wg.Add(1)
		go func(p cluster.Piece) {
			defer wg.Done()
			ps := tr.begin(root.id, "router.push")
			_, err := rt.PushPiece(withSpan(ctx, ps), p)
			ps.end()
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				res.acked = append(res.acked, p.Batch.Snapshot)
			case res.err == nil:
				res.err = err
			}
		}(p)
	}
	wg.Wait()
	res.done = time.Now()
	return res
}

// pushAll sends set-up uploads from two goroutines as fast as they are
// acknowledged.
func (u *uploader) pushAll(ctx context.Context, ups []*upload) ([]sent, error) {
	out := make([]sent, len(ups))
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(ups); i += 2 {
				out[i] = u.push(ctx, ups[i], false)
			}
		}(w)
	}
	wg.Wait()
	for _, s := range out {
		if s.err != nil {
			return out, s.err
		}
	}
	return out, nil
}

// sender is a closed-loop installation cycling through a pool of
// uploads, each restamped at the sender's own watermark so partitions
// absorb it as new evidence.
type sender struct {
	inst int
	wm   [2]int // runs, observations uploaded so far
	k    int    // pool position
}

// burst pushes n uploads from the two senders, each sending its half one
// after another, and returns their outcomes.
func burst(ctx context.Context, u *uploader, senders [2]*sender, pool []*upload, n int) []sent {
	var out [2][]sent
	var wg sync.WaitGroup
	for i, s := range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := i; j < n && ctx.Err() == nil; j += 2 {
				src := pool[(2*s.k+i)%len(pool)]
				s.k++
				up := &upload{inst: s.inst, wmRuns: s.wm[0], wmObs: s.wm[1], snap: src.snap}
				s.wm[0] += src.snap.Runs
				s.wm[1] += observations(src.snap)
				out[i] = append(out[i], u.push(ctx, up, false))
			}
		}()
	}
	wg.Wait()
	return append(out[0], out[1]...)
}

// openLoop runs n operations on a schedule: operation i is due at
// start+due(i). workers goroutines take operations round-robin, each
// with one in flight, so a stall delays later operations and their
// latency, which is timed from the due time, shows it. It returns how
// late each operation started.
func openLoop(start time.Time, n, workers int, due func(i int) time.Duration, do func(i int, due time.Time)) []float64 {
	lag := make([]float64, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				at := start.Add(due(i))
				if d := time.Until(at); d > 0 {
					time.Sleep(d)
				}
				lag[i] = ms(time.Since(at))
				do(i, at)
			}
		}(w)
	}
	wg.Wait()
	return lag
}

// rateDue spaces operations evenly at rate per second.
func rateDue(rate float64) func(int) time.Duration {
	return func(i int) time.Duration { return time.Duration(float64(i) / rate * float64(time.Second)) }
}

// plantedE2P is the evidence-to-patch-visible time of one planted site
// and its four consecutive parts (all ms; they sum to total).
type plantedE2P struct {
	total, waitCoord, coord, waitReplica, waitClient float64
}

// e2p computes each planted site's evidence-to-patch time. evidence maps
// a site to the moment every upload carrying its evidence up to the
// decisive one was acknowledged. Sites never seen by a client are
// counted in unseen. A client can only see a patch the replica mirrored,
// so a seen site with no replica poll at or past the patch-log version
// of the pass that folded it is counted in unmirrored: the attribution
// of the site to its pass, or of the replica to its version, is wrong.
func (r *rig) e2p(evidence map[site.ID]time.Time) (out []plantedE2P, unseen, unmirrored int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for s, ps := range r.planted {
		ev, ok := evidence[s]
		if !ok || ps.seen.IsZero() || ps.version == 0 {
			unseen++
			continue
		}
		var rep time.Time
		for _, p := range r.repPolls {
			if p.version >= ps.version {
				rep = p.end
				break
			}
		}
		if rep.IsZero() {
			unmirrored++
			continue
		}
		out = append(out, plantedE2P{
			total:       ms(ps.seen.Sub(ev)),
			waitCoord:   ms(ps.pass.start.Sub(ev)),
			coord:       ms(ps.pass.end.Sub(ps.pass.start)),
			waitReplica: ms(rep.Sub(ps.pass.end)),
			waitClient:  ms(ps.seen.Sub(rep)),
		})
	}
	return out, unseen, unmirrored
}

// evidenceTimes maps each guilty site to the acknowledgement time of the
// last of its uploads up to the decisive one.
func evidenceTimes(phase []*upload, res []sent, decisive map[site.ID]int) map[site.ID]time.Time {
	out := map[site.ID]time.Time{}
	for i, up := range phase {
		for _, s := range up.guilty {
			if d, ok := decisive[s]; ok && i <= d && res[i].err == nil && res[i].done.After(out[s]) {
				out[s] = res[i].done
			}
		}
	}
	return out
}
