package main

import (
	"context"
	"sync"
	"time"

	"exterminator/internal/cumulative"
	"exterminator/internal/fleet"
	"exterminator/internal/site"
	"exterminator/internal/xrand"
)

// fleet-ingest shape. Phase A, the timed phase, is an open loop of
// ingestRate uploads/s from ingestInsts installations carrying the
// planted sites; phase B then sends phaseBUploads more uploads from two
// closed-loop senders, measuring how many observations the ingest path
// acknowledges per second; phase C runs coordRounds rounds of
// roundUploads uploads, each followed by one coordinator pass and one
// replica poll, metering the write path's allocation per upload. At
// 100–300 uploads/s over 20k sites the coordinator's correction pass
// already takes about one tick, so phase A exercises the write path with
// the coordinator near saturation without building an unbounded backlog.
const (
	ingestRate    = 200.0
	ingestInsts   = 64
	ingestSites   = 20000
	ingestPairs   = 4000
	ingestPlanted = 120
	ingestGap     = 5 // uploads between a planted site's observations
	censusChunk   = 1000
	phaseBPool    = 256
	phaseBUploads = 2048
	roundUploads  = int(ingestRate * loopTick / time.Second)
	coordRounds   = 16
	// Baseline exchanges — three concurrent POSTs of a piece's size, the
	// shape of an upload — run at ingestBaselineRate per second.
	ingestBaselineRate = 50.0
	pieceBytes         = 400
	watchEvery         = 20 * time.Millisecond
	graceMax           = 5 * time.Second
)

// ingestState is fleet-ingest's set-up: generated inputs and a fleet
// that already knows every site.
type ingestState struct {
	rig      *rig
	up       *uploader
	census   []*upload
	warm     []*upload
	phaseA   []*upload
	pool     []*upload
	decisive map[site.ID]int
	planted  []site.ID
	setupRes []sent
	base     *baseline
}

func setUpIngest(ctx context.Context, cfg config, tr *tracer) (*ingestState, error) {
	rng := xrand.New(cfg.seed ^ 0x1a2b3c)
	u := newUniverse(rng.Split(), ingestSites, ingestPlanted, ingestPairs)
	gen := newUploadGen(rng.Split(), u, ingestInsts)
	st := &ingestState{planted: u.guilty}
	st.census = gen.census(0, censusChunk)
	k := 0
	for i := 0; i < int(ingestRate*cfg.warmup.Seconds()); i++ {
		st.warm = append(st.warm, gen.next(k, nil))
		k++
	}
	nA := max(1, int(ingestRate*cfg.seconds))
	at := plantSchedule(u.guilty, nA, ingestGap, 1)
	for i := 0; i < nA; i++ {
		st.phaseA = append(st.phaseA, gen.next(k, at[i]))
		k++
	}
	for i := 0; i < phaseBPool; i++ {
		st.pool = append(st.pool, gen.next(k, nil))
		k++
	}
	var err error
	if st.decisive, err = decisiveUploads(append(append([]*upload(nil), st.census...), st.warm...), st.phaseA, u.guilty); err != nil {
		return nil, err
	}
	if st.rig, err = newRig(tr); err != nil {
		return nil, err
	}
	// Phase B senders upload as two more installations.
	if st.up, err = newUploader(tr, ingestInsts+2, st.rig.partURLs); err != nil {
		st.rig.close()
		return nil, err
	}
	if st.base, err = newBaseline(st.rig, pieceBytes); err != nil {
		st.rig.close()
		return nil, err
	}
	if st.setupRes, err = st.up.pushAll(ctx, st.census); err != nil {
		st.rig.close()
		return nil, err
	}
	if err := st.rig.sync(ctx); err != nil {
		st.rig.close()
		return nil, err
	}
	st.rig.plant(u.guilty)
	return st, nil
}

// watcher is one installation polling the replica for patches on a fixed
// period; its polls are how planted patches become visible.
type watcher struct {
	client *fleet.Client
	since  uint64
	lat    []float64
	polls  int
	errs   []error
}

func newWatcher(url string) *watcher {
	c := fleet.NewClient(url, "watcher")
	c.SetWireV2(true)
	return &watcher{client: c}
}

func (w *watcher) poll(ctx context.Context, r *rig, tr *tracer) {
	sp := tr.begin(0, "client.poll")
	t := time.Now()
	ps, v, err := w.client.PatchesContext(withSpan(ctx, sp), w.since)
	now := time.Now()
	sp.end()
	w.polls++
	if err != nil {
		w.errs = append(w.errs, err)
		return
	}
	w.lat = append(w.lat, ms(now.Sub(t)))
	w.since = v
	r.noteSeen(ps, now)
}

// run polls every watchEvery until stop is closed.
func (w *watcher) run(ctx context.Context, r *rig, tr *tracer, stop <-chan struct{}) {
	t := time.NewTicker(watchEvery)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			w.poll(ctx, r, tr)
		}
	}
}

// runIngest is the fleet-ingest workload.
func runIngest(ctx context.Context, cfg config) (*result, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	st, setupS, err := setUp(cfg, func() (*ingestState, error) { return setUpIngest(ctx, cfg, tr) },
		func(st *ingestState) { st.rig.close() })
	if err != nil {
		return nil, err
	}
	r := st.rig
	defer r.close()
	res := newResult()
	r.startLoops(ctx)

	// Warm-up: the same open loop, untimed, no planted sites.
	warmRes := make([]sent, len(st.warm))
	openLoop(time.Now(), len(st.warm), 2, rateDue(ingestRate), func(i int, _ time.Time) {
		warmRes[i] = st.up.push(ctx, st.warm[i], false)
	})

	w := newWatcher(r.repURL)
	stopWatch := make(chan struct{})
	var watchWG sync.WaitGroup
	watchWG.Add(1)
	go func() {
		defer watchWG.Done()
		w.run(ctx, r, tr, stopWatch)
	}()

	// Phase A: open loop, every other upload traced when tracing; the
	// baseline exchanges run alongside.
	p0 := readProbe()
	start := time.Now()
	routes0 := r.routeCounts()
	var baseMs []float64
	var baseErrs []error
	var baseWG sync.WaitGroup
	baseWG.Add(1)
	go func() {
		defer baseWG.Done()
		baseMs, baseErrs = runBaseline(start, cfg.duration(), ingestBaselineRate, func() error {
			return st.base.posts(ctx, numPartitions)
		})
	}()
	resA := make([]sent, len(st.phaseA))
	latTraced := make([]bool, len(st.phaseA))
	due := make([]time.Time, len(st.phaseA))
	lags := openLoop(start, len(st.phaseA), 2, rateDue(ingestRate), func(i int, at time.Time) {
		due[i] = at
		latTraced[i] = tr != nil && i%2 == 0
		resA[i] = st.up.push(ctx, st.phaseA[i], latTraced[i])
	})
	baseWG.Wait()
	m := p0.until(readProbe())
	res.set("go.live_heap_mb", liveHeapMB())
	endA := time.Now()
	routes1 := r.routeCounts()
	coordRunsEnd := r.coord.Status().Runs

	// Grace: let the last planted patches reach the watcher.
	for deadline := time.Now().Add(graceMax); r.unseen() > 0 && time.Now().Before(deadline); {
		time.Sleep(watchEvery)
	}
	close(stopWatch)
	watchWG.Wait()
	r.stopLoops()

	// Phase B: a fixed number of uploads from the two closed-loop senders.
	// The coordinator is stopped: phase B measures what the ingest path
	// (router and partitions) absorbs, and a coordinator falling behind
	// the partitions' journals would resync full snapshots every pass. The
	// size is fixed because every acknowledged observation stays in
	// memory in several tiers.
	senders := [2]*sender{{inst: ingestInsts}, {inst: ingestInsts + 1}}
	pB, startB := readProbe(), time.Now()
	resB := burst(ctx, st.up, senders, st.pool, phaseBUploads)
	phaseB := time.Since(startB)
	mB := pB.until(readProbe())

	// Phase C: the write path up to a served patch, one tick's worth at a
	// time and with nothing else running, so its allocation per upload
	// does not depend on how many coordinator passes the machine's speed
	// allowed (the coordinator's passes, whose cost is mostly fixed per
	// pass, are most of it). After a catch-up pass over phase B, each of
	// coordRounds rounds pushes roundUploads uploads (what arrives in one
	// loopTick at ingestRate) from the two senders, then runs one
	// coordinator pass (PollOnce, and Correct when evidence changed) and
	// one replica poll.
	var resC []sent
	var mC meter
	var passMs []float64
	if err := r.sync(ctx); err != nil {
		res.fail("catch-up pass after phase B: %v", err)
	}
	for k := 0; k < coordRounds; k++ {
		p := readProbe()
		resC = append(resC, burst(ctx, st.up, senders, st.pool, roundUploads)...)
		res.attempted++
		t := time.Now()
		if err := r.sync(ctx); err != nil {
			res.failed++
			res.fail("phase C pass: %v", err)
		}
		passMs = append(passMs, ms(time.Since(t)))
		mC = mC.plus(p.until(readProbe()))
	}

	// Reference: every acknowledged piece, set-up through phase C.
	ref := cumulative.NewHistory(cumulative.DefaultConfig())
	runsByEndA := absorbAcked(ref, st.setupRes, warmRes, resA)
	absorbAcked(ref, resB, resC)

	var uploadMs, uploadTraced, uploadUntraced []float64
	obsA := 0
	for i, o := range resA {
		res.attempted++
		if o.err != nil {
			res.failed++
			res.fail("upload %d: %v", i, o.err)
			continue
		}
		d := ms(o.done.Sub(due[i]))
		uploadMs = append(uploadMs, d)
		if latTraced[i] {
			uploadTraced = append(uploadTraced, d)
		} else {
			uploadUntraced = append(uploadUntraced, d)
		}
		obsA += observations(st.phaseA[i].snap)
	}
	obsB := 0
	for _, o := range resB {
		for _, p := range o.acked {
			obsB += observations(p)
		}
	}
	for _, o := range append(resB, resC...) {
		res.attempted++
		if o.err != nil {
			res.failed++
			res.fail("phase B or C upload: %v", o.err)
		}
	}
	res.attempted += len(warmRes)
	for _, o := range warmRes {
		if o.err != nil {
			res.failed++
			res.fail("warm-up upload: %v", o.err)
		}
	}
	res.attempted += w.polls
	res.failed += len(w.errs)
	for _, e := range w.errs {
		res.fail("watcher poll: %v", e)
	}
	res.attempted += len(baseMs) + len(baseErrs)
	res.failed += len(baseErrs)
	for _, e := range baseErrs {
		res.fail("baseline: %v", e)
	}
	res.endToEnd(setupS, uploadMs, baseMs, mC, len(resC))
	res.set("go.rss_peak_mb", m.rssMB)
	res.set("coord.pass_alone_ms_p50", median(passMs))

	falsePatches, problems := r.checkAgainst(ctx, ref)
	for _, p := range problems {
		res.fail("%s", p)
	}
	// coord.lag_runs_end: runs acknowledged by the end of phase A that the
	// coordinator had not yet mirrored.
	res.set("coord.lag_runs_end", float64(int64(runsByEndA)-coordRunsEnd))
	res.set("coord.false_patches", float64(falsePatches))
	res.plantedMetrics(r, evidenceTimes(st.phaseA, resA, st.decisive), len(st.planted))

	res.set("client.upload_ms_p50", median(uploadMs))
	res.set("client.upload_ms_p99", pct(uploadMs, 0.99))
	res.set("client.poll_ms_p50", median(w.lat))
	res.set("client.poll_ms_p99", pct(w.lat, 0.99))
	res.set("client.ingest_obs_per_s", frac(float64(obsB), phaseB.Seconds()))
	res.set("client.ingest_kb_per_upload", frac(mB.allocB/1024, float64(len(resB))))
	pieces := 0
	for _, o := range resA {
		pieces += len(o.acked)
	}
	res.set("router.pieces_per_upload", frac(float64(pieces), float64(len(resA))))
	res.set("partition.wire_bytes_per_obs", frac(float64(countDelta(routes0, routes1, "partition.ingest").bytesIn), float64(obsA)))
	res.setLag(lags)
	res.set("go.gc_cpu_frac", m.gcFrac)
	if tr != nil {
		res.set("trace.overhead_frac", frac(median(uploadTraced), median(uploadUntraced))-1)
	}
	r.layerMetrics(res, indexSpans(tr.between(start, endA)), start, endA, routes0, routes1)
	res.finishTrace(tr)
	return res, nil
}

// setLag reports how late the open-loop generator ran and fails the run
// above the validity limit.
func (r *result) setLag(lags []float64) {
	p99 := pct(lags, 0.99)
	r.set("gen.lag_ms_p99", p99)
	if p99 > lagLimitMs {
		r.fail("generator lag p99 %.1f ms exceeds the %d ms validity limit", p99, lagLimitMs)
	}
}

// plantedMetrics reports evidence-to-patch-visible times of the planted
// sites and checks that each reached a client through a replica that had
// mirrored the version of the coordinator pass that folded its patch.
// The four parts are differences of consecutive timestamps, so they sum
// to the total by construction.
func (r *result) plantedMetrics(rg *rig, evidence map[site.ID]time.Time, planted int) {
	e2p, unseen, unmirrored := rg.e2p(evidence)
	r.attempted += planted
	if unseen > 0 {
		r.failed += unseen
		r.fail("%d of %d planted sites never reached a client", unseen, planted)
	}
	if unmirrored > 0 {
		r.fail("%d planted sites reached a client, but no replica poll recorded their patch-log version", unmirrored)
	}
	var total, wc, c, wr, wcl []float64
	for _, e := range e2p {
		total = append(total, e.total)
		wc = append(wc, e.waitCoord)
		c = append(c, e.coord)
		wr = append(wr, e.waitReplica)
		wcl = append(wcl, e.waitClient)
	}
	r.set("e2p.total_ms_p50", median(total))
	r.set("e2p.total_ms_p90", pct(total, 0.90))
	r.set("e2p.wait_coord_ms_p50", median(wc))
	r.set("e2p.coord_ms_p50", median(c))
	r.set("e2p.wait_replica_ms_p50", median(wr))
	r.set("e2p.wait_client_ms_p50", median(wcl))
}
