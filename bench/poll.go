package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"exterminator/internal/cumulative"
	"exterminator/internal/fleet"
	"exterminator/internal/site"
	"exterminator/internal/xrand"
)

// fleet-poll shape: pollInsts installations, each with its own client,
// cursor and ETag, poll the replica at a combined pollRate (each every
// half second); pollFreshFrac of polls are new installs fetching from
// version 0. A trickle of uploads carries the planted sites, which cross
// in groups of plantedGroup so the patch log changes about once a second
// and most polls can be answered 304, as on a fleet whose patches change
// rarely compared with how often it polls. The preload gives the fleet
// ~20k sites and ~150 patch entries before timing starts.
const (
	pollRate      = 4000.0
	pollInsts     = 2000
	pollFreshFrac = 0.01
	pollPreload   = 3000
	pollPreGuilty = 150
	pollPlanted   = 120
	trickleRate   = 20.0
	trickleGap    = 1
	plantedGroup  = 10
	// Baseline exchanges — one GET answered 304, the shape of an
	// unchanged poll — run at pollBaselineRate per second.
	pollBaselineRate = 200.0
)

// poller is one installation's patch client and cursor.
type poller struct {
	url    string
	id     int
	client *fleet.Client
	since  uint64
}

func newPoller(url string, id int) *poller {
	p := &poller{url: url, id: id}
	p.reinstall()
	return p
}

// reinstall gives the installation a new client with no cursor or ETag,
// as a fresh install has.
func (p *poller) reinstall() {
	p.client = fleet.NewClient(p.url, fmt.Sprintf("poller-%d", p.id))
	p.client.SetWireV2(true)
	p.since = 0
}

// pollState is fleet-poll's set-up: generated inputs and a fleet loaded
// with the preload.
type pollState struct {
	rig      *rig
	up       *uploader
	census   []*upload
	preload  []*upload
	trickle  []*upload
	decisive map[site.ID]int
	planted  []site.ID
	setupRes []sent
	pollers  []*poller
	fresh    []bool // per timed poll: a new install fetching from version 0
	base     *baseline
}

func setUpPoll(ctx context.Context, cfg config, tr *tracer) (*pollState, error) {
	rng := xrand.New(cfg.seed ^ 0x4d5e6f)
	u := newUniverse(rng.Split(), ingestSites, pollPreGuilty+pollPlanted, ingestPairs)
	gen := newUploadGen(rng.Split(), u, ingestInsts)
	st := &pollState{planted: u.guilty[pollPreGuilty:]}
	st.census = gen.census(0, censusChunk)
	k := 0
	pre := plantSchedule(u.guilty[:pollPreGuilty], pollPreload, 1, 1)
	for i := 0; i < pollPreload; i++ {
		st.preload = append(st.preload, gen.next(k, pre[i]))
		k++
	}
	nT := max(1, int(trickleRate*cfg.seconds))
	at := plantSchedule(st.planted, nT, trickleGap, plantedGroup)
	for i := 0; i < nT; i++ {
		st.trickle = append(st.trickle, gen.next(k, at[i]))
		k++
	}
	frng := rng.Split()
	st.fresh = make([]bool, int(pollRate*cfg.seconds))
	for i := range st.fresh {
		st.fresh[i] = frng.Bool(pollFreshFrac)
	}
	setup := append(append([]*upload(nil), st.census...), st.preload...)
	var err error
	if st.decisive, err = decisiveUploads(setup, st.trickle, st.planted); err != nil {
		return nil, err
	}
	if st.rig, err = newRig(tr); err != nil {
		return nil, err
	}
	if st.up, err = newUploader(tr, ingestInsts, st.rig.partURLs); err != nil {
		st.rig.close()
		return nil, err
	}
	if st.base, err = newBaseline(st.rig, 0); err != nil {
		st.rig.close()
		return nil, err
	}
	if st.setupRes, err = st.up.pushAll(ctx, setup); err != nil {
		st.rig.close()
		return nil, err
	}
	if err := st.rig.sync(ctx); err != nil {
		st.rig.close()
		return nil, err
	}
	for i := 0; i < pollInsts; i++ {
		st.pollers = append(st.pollers, newPoller(st.rig.repURL, i))
	}
	st.rig.plant(st.planted)
	return st, nil
}

// polled is the outcome of one poll.
type polled struct {
	done time.Time
	err  error
}

// poll runs installation i's conditional patch poll (a fresh install
// first starts over with a new client).
func (st *pollState) poll(ctx context.Context, i int, fresh bool, tr *tracer) polled {
	p := st.pollers[i%pollInsts]
	if fresh {
		p.reinstall()
	}
	sp := tr.begin(0, "client.poll")
	ps, v, err := p.client.PatchesContext(withSpan(ctx, sp), p.since)
	done := time.Now()
	sp.end()
	if err != nil {
		return polled{done: done, err: err}
	}
	p.since = v
	st.rig.noteSeen(ps, done)
	return polled{done: done}
}

// runPoll is the fleet-poll workload.
func runPoll(ctx context.Context, cfg config) (*result, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	st, setupS, err := setUp(cfg, func() (*pollState, error) { return setUpPoll(ctx, cfg, tr) },
		func(st *pollState) { st.rig.close() })
	if err != nil {
		return nil, err
	}
	r := st.rig
	defer r.close()
	res := newResult()
	r.startLoops(ctx)

	// Warm-up: the same poll loop, untimed, so every installation holds a
	// cursor and ETag when timing starts. Operations i and i+2 always go
	// to the same worker, and pollInsts is even, so each installation is
	// only ever touched by one goroutine.
	nWarm := int(pollRate * cfg.warmup.Seconds())
	warmRes := make([]polled, nWarm)
	openLoop(time.Now(), nWarm, 2, rateDue(pollRate), func(i int, _ time.Time) {
		warmRes[i] = st.poll(ctx, i, false, nil)
	})

	p0 := readProbe()
	start := time.Now()
	routes0 := r.routeCounts()
	n := len(st.fresh)
	polls := make([]polled, n)
	pollTraced := make([]bool, n)
	trickle := make([]sent, len(st.trickle))
	trickleDue := make([]time.Time, len(st.trickle))
	var baseMs []float64
	var baseErrs []error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		baseMs, baseErrs = runBaseline(start, cfg.duration(), pollBaselineRate, func() error {
			return st.base.get(ctx)
		})
	}()
	go func() {
		// The trickle runs on its own goroutine: an upload costs as much
		// as dozens of polls and would otherwise stall the poll schedule.
		defer wg.Done()
		openLoop(start, len(st.trickle), 1, rateDue(trickleRate), func(i int, at time.Time) {
			trickleDue[i] = at
			trickle[i] = st.up.push(ctx, st.trickle[i], tr != nil && i%2 == 0)
		})
	}()
	due := make([]time.Time, n)
	lags := openLoop(start, n, 2, rateDue(pollRate), func(i int, at time.Time) {
		due[i] = at
		pollTraced[i] = tr != nil && i%2 == 0
		var ptr *tracer
		if pollTraced[i] {
			ptr = tr
		}
		polls[i] = st.poll(ctx, i, st.fresh[i], ptr)
	})
	wg.Wait()
	m := p0.until(readProbe())
	res.set("go.live_heap_mb", liveHeapMB())
	end := time.Now()
	routes1 := r.routeCounts()
	coordRunsEnd := r.coord.Status().Runs

	// Grace: a watcher polls until the last planted patches are seen.
	if r.unseen() > 0 {
		w := newWatcher(r.repURL)
		for deadline := time.Now().Add(graceMax); r.unseen() > 0 && time.Now().Before(deadline); {
			time.Sleep(watchEvery)
			w.poll(ctx, r, nil)
		}
	}
	r.stopLoops()

	// CPU and allocation per poll come from a closing round of one poll
	// per installation with the coordinator and replica stopped: during
	// the timed phase the coordinator's passes, whose cost is mostly fixed
	// per pass, would be shared out over the polls in proportion to how
	// many passes the machine's speed allowed. This workload measures the
	// read path; the write path's cost per upload, coordinator included,
	// is fleet-ingest's.
	pWork := readProbe()
	closing := make([]polled, pollInsts)
	openLoop(time.Now(), pollInsts, 2, func(int) time.Duration { return 0 }, func(i int, _ time.Time) {
		closing[i] = st.poll(ctx, i, false, nil)
	})
	work := pWork.until(readProbe())

	var latency, traced, untraced, upload []float64
	fresh := 0
	for i, p := range polls {
		res.attempted++
		if p.err != nil {
			res.failed++
			res.fail("poll %d: %v", i, p.err)
			continue
		}
		d := ms(p.done.Sub(due[i]))
		latency = append(latency, d)
		if pollTraced[i] {
			traced = append(traced, d)
		} else {
			untraced = append(untraced, d)
		}
		if st.fresh[i] {
			fresh++
		}
	}
	others := append(warmRes, closing...)
	res.attempted += len(others)
	for _, p := range others {
		if p.err != nil {
			res.failed++
			res.fail("warm-up or closing poll: %v", p.err)
		}
	}
	ref := cumulative.NewHistory(cumulative.DefaultConfig())
	acked := absorbAcked(ref, st.setupRes, trickle)
	for i, o := range trickle {
		res.attempted++
		if o.err != nil {
			res.failed++
			res.fail("trickle upload %d: %v", i, o.err)
			continue
		}
		upload = append(upload, ms(o.done.Sub(trickleDue[i])))
	}
	res.attempted += len(baseMs) + len(baseErrs)
	res.failed += len(baseErrs)
	for _, e := range baseErrs {
		res.fail("baseline: %v", e)
	}
	res.endToEnd(setupS, latency, baseMs, work, pollInsts)
	res.set("go.rss_peak_mb", m.rssMB)

	falsePatches, problems := r.checkAgainst(ctx, ref)
	for _, p := range problems {
		res.fail("%s", p)
	}
	res.set("coord.lag_runs_end", float64(int64(acked)-coordRunsEnd))
	res.set("coord.false_patches", float64(falsePatches))
	res.plantedMetrics(r, evidenceTimes(st.trickle, trickle, st.decisive), len(st.planted))

	res.set("client.poll_ms_p50", median(latency))
	res.set("client.poll_ms_p99", pct(latency, 0.99))
	res.set("client.upload_ms_p50", median(upload))
	res.set("client.upload_ms_p99", pct(upload, 0.99))
	res.set("replica.full_fetch_frac", frac(float64(fresh), float64(len(latency))))
	pieces, obs := 0, 0
	for i, o := range trickle {
		pieces += len(o.acked)
		if o.err == nil {
			obs += observations(st.trickle[i].snap)
		}
	}
	res.set("router.pieces_per_upload", frac(float64(pieces), float64(len(trickle))))
	res.set("partition.wire_bytes_per_obs", frac(float64(countDelta(routes0, routes1, "partition.ingest").bytesIn), float64(obs)))
	res.setLag(lags)
	res.set("go.gc_cpu_frac", m.gcFrac)
	if tr != nil {
		res.set("trace.overhead_frac", frac(median(traced), median(untraced))-1)
	}
	r.layerMetrics(res, indexSpans(tr.between(start, end)), start, end, routes0, routes1)
	res.finishTrace(tr)
	return res, nil
}
