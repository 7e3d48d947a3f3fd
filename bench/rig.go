package main

import (
	"context"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"exterminator/internal/cluster"
	"exterminator/internal/cumulative"
	"exterminator/internal/fleet"
	"exterminator/internal/patch"
	"exterminator/internal/site"
)

// Fleet shape: three partitions of eight shards each behind one
// coordinator and one read replica, every hop on the binary v2 wire.
const (
	numPartitions = 3
	numShards     = 8
	// loopTick is the coordinator's and the replica's poll interval
	// (jittered ±10% like their Run loops). At fleetd's 1 s default the
	// evidence-to-patch time would be mostly timer wait and no compute
	// change could show in it.
	loopTick = 100 * time.Millisecond
)

// baseTransport is the process's real HTTP transport. It is tuned for a
// loopback fleet (enough idle connections that no request opens a fresh
// socket) and wrapped in spanTransport as http.DefaultTransport, which
// every fleet client, router, coordinator and replica sends through.
var baseTransport = func() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = 4096
	t.MaxIdleConnsPerHost = 1024
	http.DefaultTransport = spanTransport{base: t}
	return t
}()

// routeStat counts what one server route answered.
type routeStat struct {
	requests    atomic.Int64
	non2xx      atomic.Int64
	notModified atomic.Int64
	bytesIn     atomic.Int64
	busyNs      atomic.Int64
}

// server is one loopback listener serving one tier.
type server struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

// coordPass is one coordinator loop iteration.
type coordPass struct {
	start, polled, end time.Time
	changed            bool
}

// replicaPoll is one replica loop iteration and the upstream patch-log
// version it left the cache at.
type replicaPoll struct {
	start, end time.Time
	version    uint64
}

// plantedSite follows one guilty site's patch from the coordinator to a
// client.
type plantedSite struct {
	pass    coordPass // the coordinator pass that first folded its patch
	version uint64    // patch-log version that pass produced
	seen    time.Time // first client poll that returned the patch
}

// rig is one in-process fleet.
type rig struct {
	tr       *tracer
	parts    []*fleet.Server
	partURLs []string
	coord    *cluster.Coordinator
	coordURL string
	rep      *cluster.Replica
	repURL   string
	servers  []*server

	routeMu sync.Mutex
	routes  map[string]*routeStat

	stop  chan struct{}
	loops sync.WaitGroup

	mu          sync.Mutex
	passes      []coordPass
	repPolls    []replicaPoll
	loopErrs    int
	lastVersion uint64
	planted     map[site.ID]*plantedSite
}

func newRig(tr *tracer) (*rig, error) {
	r := &rig{tr: tr, routes: map[string]*routeStat{}, planted: map[site.ID]*plantedSite{}}
	cfg := cumulative.DefaultConfig()
	for i := 0; i < numPartitions; i++ {
		p := fleet.NewServer(fleet.ServerOptions{
			Shards: numShards, Config: cfg, CorrectEvery: -1, DisableCorrection: true,
		})
		url, err := r.serve("partition", p.Handler())
		if err != nil {
			r.close()
			return nil, err
		}
		r.parts = append(r.parts, p)
		r.partURLs = append(r.partURLs, url)
	}
	coord, err := cluster.NewCoordinator(cluster.CoordinatorOptions{
		Partitions: r.partURLs, Config: cfg, WireV2: true,
	})
	if err != nil {
		r.close()
		return nil, err
	}
	r.coord = coord
	if r.coordURL, err = r.serve("coord", coord.Handler()); err != nil {
		r.close()
		return nil, err
	}
	rep, err := cluster.NewReplica(cluster.ReplicaOptions{
		Upstreams: []string{r.coordURL}, PollInterval: loopTick, WireV2: true,
	})
	if err != nil {
		r.close()
		return nil, err
	}
	r.rep = rep
	if r.repURL, err = r.serve("replica", rep.Handler()); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// serve starts a loopback listener for h behind the timing handler.
func (r *rig) serve(tier string, h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	s := &server{
		srv:  &http.Server{Handler: r.timed(tier, h), ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	r.servers = append(r.servers, s)
	return s.url, nil
}

// route names the span and counters of a request: tier.endpoint.
func route(tier, path string) string {
	switch {
	case path == "/v1/observations":
		return tier + ".ingest"
	case path == "/v1/deltas":
		return tier + ".deltas"
	case path == "/v1/patches":
		return tier + ".patches"
	case strings.HasPrefix(path, "/v1/triage"):
		return tier + ".triage"
	}
	return tier + ".other"
}

func (r *rig) stat(name string) *routeStat {
	r.routeMu.Lock()
	defer r.routeMu.Unlock()
	s := r.routes[name]
	if s == nil {
		s = &routeStat{}
		r.routes[name] = s
	}
	return s
}

// statusWriter records the status a handler answered with.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// timed wraps a tier's handler: every request is counted and its handler
// time added to the route's busy time; a request sent under a traced
// operation also records a span, parented to the client-side span.
func (r *rig) timed(tier string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		name := route(tier, req.URL.Path)
		st := r.stat(name)
		var sp openSpan
		if v := req.Header.Get(spanHeader); v != "" {
			if parent, err := strconv.ParseUint(v, 10, 64); err == nil {
				sp = r.tr.begin(parent, name)
			}
		}
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(sw, req)
		st.busyNs.Add(int64(time.Since(start)))
		sp.end()
		st.requests.Add(1)
		if req.ContentLength > 0 {
			st.bytesIn.Add(req.ContentLength)
		}
		switch code := sw.status; {
		case code == http.StatusNotModified:
			st.notModified.Add(1)
		case code != 0 && (code < 200 || code > 299):
			st.non2xx.Add(1)
		}
	})
}

// sync polls every partition into the coordinator, corrects, and
// refreshes the replica: the set-up step that brings the fleet current.
func (r *rig) sync(ctx context.Context) error {
	if _, err := r.coord.Sync(ctx); err != nil {
		return err
	}
	r.mu.Lock()
	r.lastVersion = r.coord.PatchLog().Version()
	r.mu.Unlock()
	return r.rep.PollOnce(ctx)
}

// startLoops runs the coordinator and replica loops until stopLoops.
func (r *rig) startLoops(ctx context.Context) {
	r.stop = make(chan struct{})
	r.loops.Add(2)
	go r.loop(func() { r.coordPass(ctx) })
	go r.loop(func() { r.replicaPass(ctx) })
}

func (r *rig) stopLoops() {
	if r.stop == nil {
		return
	}
	close(r.stop)
	r.loops.Wait()
	r.stop = nil
}

// loop calls pass on a jittered loopTick timer, the pattern of the
// coordinator's and replica's own Run methods.
func (r *rig) loop(pass func()) {
	defer r.loops.Done()
	t := time.NewTimer(fleet.JitterInterval(loopTick))
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
		}
		pass()
		t.Reset(fleet.JitterInterval(loopTick))
	}
}

// coordPass is one coordinator iteration: PollOnce, and Correct when
// evidence changed. Planted sites whose patch the pass folded are
// stamped with it.
func (r *rig) coordPass(ctx context.Context) {
	p := coordPass{start: time.Now()}
	sp := r.tr.begin(0, "coord.poll")
	changed, err := r.coord.PollOnce(withSpan(ctx, sp))
	sp.end()
	p.polled = time.Now()
	if changed {
		cs := r.tr.begin(0, "coord.correct")
		r.coord.Correct()
		cs.end()
	}
	p.end, p.changed = time.Now(), changed

	r.mu.Lock()
	defer r.mu.Unlock()
	r.passes = append(r.passes, p)
	if err != nil {
		r.loopErrs++
	}
	if !changed {
		return
	}
	delta, v := r.coord.PatchLog().Since(r.lastVersion)
	r.lastVersion = v
	for s := range delta.Pads {
		if ps := r.planted[s]; ps != nil && ps.version == 0 {
			ps.pass, ps.version = p, v
		}
	}
}

// replicaPass is one replica iteration.
func (r *rig) replicaPass(ctx context.Context) {
	p := replicaPoll{start: time.Now()}
	sp := r.tr.begin(0, "replica.poll")
	err := r.rep.PollOnce(withSpan(ctx, sp))
	sp.end()
	p.end, p.version = time.Now(), r.rep.Status().ReplicaVersion

	r.mu.Lock()
	defer r.mu.Unlock()
	r.repPolls = append(r.repPolls, p)
	if err != nil {
		r.loopErrs++
	}
}

// plant registers the guilty sites whose evidence-to-patch time the run
// measures.
func (r *rig) plant(sites []site.ID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range sites {
		r.planted[s] = &plantedSite{}
	}
}

// noteSeen records planted patches a client poll returned.
func (r *rig) noteSeen(ps *patch.Set, at time.Time) {
	if ps == nil || len(ps.Pads) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for s := range ps.Pads {
		if p := r.planted[s]; p != nil && p.seen.IsZero() {
			p.seen = at
		}
	}
}

// unseen counts planted sites no client has seen yet.
func (r *rig) unseen() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, p := range r.planted {
		if p.seen.IsZero() {
			n++
		}
	}
	return n
}

// close stops the loops and every listener and waits for them to end.
func (r *rig) close() {
	r.stopLoops()
	for _, s := range r.servers {
		_ = s.srv.Close() // abandons in-flight requests; nothing is in flight by now
		<-s.done
	}
	baseTransport.CloseIdleConnections()
}

// checkAgainst checks the coordinator against a single unsharded reference
// history fed every acknowledged upload, after a final poll and
// correction pass: run and site totals must match, every reference
// finding must be in the patch log, and patch-log entries the reference
// does not derive are counted as false patches.
func (r *rig) checkAgainst(ctx context.Context, ref *cumulative.History) (falsePatches int, problems []string) {
	if _, err := r.coord.Sync(ctx); err != nil {
		problems = append(problems, "final coordinator sync: "+err.Error())
	}
	st := r.coord.Status()
	if st.Runs != int64(ref.Runs) || st.Sites != ref.Sites() {
		problems = append(problems, "coordinator totals "+strconv.FormatInt(st.Runs, 10)+" runs / "+
			strconv.Itoa(st.Sites)+" sites, reference "+strconv.Itoa(ref.Runs)+" / "+strconv.Itoa(ref.Sites()))
	}
	want := ref.Identify().Patches()
	got, _ := r.coord.PatchLog().Full()
	if missing := want.Diff(got); missing.Len() > 0 {
		problems = append(problems, "patch log lacks "+strconv.Itoa(missing.Len())+" reference findings")
	}
	return got.Diff(want).Len(), problems
}

// routeCount is a reading of one route's counters.
type routeCount struct{ requests, non2xx, notModified, bytesIn, busyNs int64 }

// routeCounts reads every route's counters; the difference of two
// readings meters a phase.
func (r *rig) routeCounts() map[string]routeCount {
	r.routeMu.Lock()
	defer r.routeMu.Unlock()
	out := map[string]routeCount{}
	for name, s := range r.routes {
		out[name] = routeCount{
			requests: s.requests.Load(), non2xx: s.non2xx.Load(), notModified: s.notModified.Load(),
			bytesIn: s.bytesIn.Load(), busyNs: s.busyNs.Load(),
		}
	}
	return out
}

func countDelta(c0, c1 map[string]routeCount, name string) routeCount {
	a, b := c0[name], c1[name]
	return routeCount{
		requests: b.requests - a.requests, non2xx: b.non2xx - a.non2xx, notModified: b.notModified - a.notModified,
		bytesIn: b.bytesIn - a.bytesIn, busyNs: b.busyNs - a.busyNs,
	}
}

// layerMetrics fills the fleet tiers' per-layer metrics for the timed
// phase [start, end): the coordinator and replica loops' own timings, the
// servers' counters, and the spans recorded at each boundary. Loop errors
// count as failed operations.
func (r *rig) layerMetrics(res *result, ix spanIndex, start, end time.Time, c0, c1 map[string]routeCount) {
	window := end.Sub(start)
	var poll, correct []float64
	busy := time.Duration(0)
	r.mu.Lock()
	for _, p := range r.passes {
		if p.start.Before(start) || !p.end.Before(end) {
			continue
		}
		poll = append(poll, ms(p.polled.Sub(p.start)))
		if p.changed {
			correct = append(correct, ms(p.end.Sub(p.polled)))
		}
		busy += p.end.Sub(p.start)
	}
	var repPoll []float64
	for _, p := range r.repPolls {
		if !p.start.Before(start) && p.end.Before(end) {
			repPoll = append(repPoll, ms(p.end.Sub(p.start)))
		}
	}
	res.attempted += len(r.passes) + len(r.repPolls)
	res.failed += r.loopErrs
	if r.loopErrs > 0 {
		res.fail("%d coordinator or replica poll errors", r.loopErrs)
	}
	r.mu.Unlock()

	res.set("coord.poll_ms_p50", median(poll))
	res.set("coord.poll_ms_p99", pct(poll, 0.99))
	res.set("coord.correct_ms_p50", median(correct))
	res.set("coord.correct_ms_p99", pct(correct, 0.99))
	res.set("coord.busy_frac", frac(float64(busy), float64(window)))
	res.set("coord.passes", float64(len(correct)))
	res.set("replica.poll_ms_p50", median(repPoll))

	ingest := countDelta(c0, c1, "partition.ingest")
	res.set("partition.ingest_busy_frac", frac(float64(ingest.busyNs), float64(window)*numPartitions))
	non2xx := int64(0)
	for name := range c1 {
		if strings.HasPrefix(name, "partition.") {
			non2xx += countDelta(c0, c1, name).non2xx
		}
	}
	res.set("partition.non2xx", float64(non2xx))
	serve := countDelta(c0, c1, "replica.patches")
	res.set("replica.not_modified_frac", frac(float64(serve.notModified), float64(serve.requests)))

	res.set("partition.ingest_us_p50", median(ix.durations("partition.ingest"))/1e3)
	res.set("partition.ingest_us_p99", pct(ix.durations("partition.ingest"), 0.99)/1e3)
	res.set("partition.deltas_ms_p50", median(ix.durations("partition.deltas"))/1e6)
	res.set("partition.deltas_ms_p99", pct(ix.durations("partition.deltas"), 0.99)/1e6)
	res.set("coord.poll_self_ms_p50", median(ix.selfTimes("coord.poll"))/1e6)
	res.set("coord.patches_serve_us_p50", median(ix.durations("coord.patches"))/1e3)
	res.set("replica.serve_us_p50", median(ix.durations("replica.patches"))/1e3)
	res.set("replica.serve_us_p99", pct(ix.durations("replica.patches"), 0.99)/1e3)
	res.set("router.split_us_p50", median(ix.durations("router.split"))/1e3)
	res.set("router.push_ms_p50", median(ix.durations("router.push"))/1e6)
	res.set("router.push_ms_p99", pct(ix.durations("router.push"), 0.99)/1e6)
	res.set("router.push_self_ms_p50", median(ix.selfTimes("router.push"))/1e6)
}
