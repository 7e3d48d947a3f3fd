package triage

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"exterminator/internal/cumulative"
	"exterminator/internal/patch"
	"exterminator/internal/site"
)

// over builds an overflow candidate.
func over(s site.ID, bayes float64, obs int) cumulative.Candidate {
	return cumulative.Candidate{Site: s, Bayes: bayes, Obs: obs}
}

// dang builds a dangling candidate.
func dang(alloc, free site.ID, bayes float64, obs int) cumulative.Candidate {
	return cumulative.Candidate{Pair: site.Pair{Alloc: alloc, Free: free}, Bayes: bayes, Obs: obs}
}

func TestSignatureClustering(t *testing.T) {
	e := New(Config{})
	// Two sites share the same innermost 3 frames but differ in outer
	// frames and in the high "module base" bits — one source defect
	// reached through two call paths on two installations.
	e.RecordFrames(0x100, []uint64{0xaaaa, 0x1111, 0x2222, 0x3333})
	e.RecordFrames(0x101, []uint64{0xbbbb, 0xcccc, 0xdead_0000_0000_0000 | 0x1111, 0x2222, 0x3333})
	// A third site has a different innermost suffix.
	e.RecordFrames(0x102, []uint64{0x1111, 0x2222, 0x9999})

	e.Pass(PassInput{Overflows: []cumulative.Candidate{
		over(0x100, 100, 10), over(0x101, 50, 5), over(0x102, 10, 1),
	}})

	if got := e.Clusters(); got != 2 {
		t.Fatalf("clusters = %d, want 2 (shared suffix merges 0x100+0x101)", got)
	}
	r := e.Rankings(0, 10)
	if r.Total != 2 || len(r.Clusters) != 2 {
		t.Fatalf("ranking total/len = %d/%d, want 2/2", r.Total, len(r.Clusters))
	}
	topC := r.Clusters[0]
	if topC.Sites != 2 || topC.Occurrences != 15 {
		t.Fatalf("top cluster sites/occurrences = %d/%d, want 2/15", topC.Sites, topC.Occurrences)
	}
	// Pooled evidence: log10(100) + log10(50) ≈ 3.699 beats log10(10) = 1.
	if topC.PooledBayes <= r.Clusters[1].PooledBayes {
		t.Fatalf("ranking not pooled-descending: %v then %v", topC.PooledBayes, r.Clusters[1].PooledBayes)
	}
	d, ok := e.Detail(topC.ID)
	if !ok {
		t.Fatalf("no detail for top cluster %q", topC.ID)
	}
	if len(d.Instances) != 2 || d.Instances[0].Bayes < d.Instances[1].Bayes {
		t.Fatalf("instances = %+v, want 2 entries strongest first", d.Instances)
	}
	if len(d.Frames) != 3 {
		t.Fatalf("frames = %v, want the 3-frame signature suffix", d.Frames)
	}
}

func TestSiteFallbackGroupsDanglingByAllocSite(t *testing.T) {
	e := New(Config{})
	// No recorded stacks: dangling pairs cluster by allocation site, so
	// every premature free of one site lands in one cluster.
	e.Pass(PassInput{Danglings: []cumulative.Candidate{
		dang(0x200, 0x300, 40, 4),
		dang(0x200, 0x301, 30, 3),
		dang(0x201, 0x300, 20, 2),
	}})
	if got := e.Clusters(); got != 2 {
		t.Fatalf("clusters = %d, want 2 (grouped by alloc site)", got)
	}
	r := e.Rankings(0, 10)
	if r.Clusters[0].Occurrences != 7 {
		t.Fatalf("top cluster occurrences = %d, want 7", r.Clusters[0].Occurrences)
	}
	d, _ := e.Detail(r.Clusters[0].ID)
	if len(d.Instances) != 2 || d.Instances[0].Free == "" {
		t.Fatalf("dangling instances = %+v, want 2 with free sites", d.Instances)
	}
}

func TestInstanceListCapped(t *testing.T) {
	e := New(Config{MaxInstances: 5})
	// 40 sites sharing one signature: the cluster must serve at most 5
	// instances (gasoline DL-5 — no unbounded example lists).
	var cands []cumulative.Candidate
	for i := 0; i < 40; i++ {
		id := site.ID(0x1000 + i)
		e.RecordFrames(id, []uint64{uint64(i), 0x1, 0x2, 0x3})
		cands = append(cands, over(id, float64(i+1), 1))
	}
	e.Pass(PassInput{Overflows: cands})
	if got := e.Clusters(); got != 1 {
		t.Fatalf("clusters = %d, want 1", got)
	}
	d, _ := e.Detail(e.Rankings(0, 1).Clusters[0].ID)
	if len(d.Instances) != 5 {
		t.Fatalf("instances = %d, want cap 5", len(d.Instances))
	}
	if d.Sites != 40 || d.Instances[0].Bayes != 40 {
		t.Fatalf("cap must keep the strongest members: sites=%d top=%v", d.Sites, d.Instances[0].Bayes)
	}
}

func TestPaginationClamps(t *testing.T) {
	e := New(Config{})
	var cands []cumulative.Candidate
	for i := 0; i < 30; i++ {
		cands = append(cands, over(site.ID(0x500+i), float64(i+1), 1))
	}
	e.Pass(PassInput{Overflows: cands})

	r := e.Rankings(0, 0)
	if r.Limit != DefaultPageSize || len(r.Clusters) != DefaultPageSize || r.Total != 30 {
		t.Fatalf("default page: limit=%d len=%d total=%d", r.Limit, len(r.Clusters), r.Total)
	}
	r = e.Rankings(25, 1000)
	if r.Limit != MaxPageSize || len(r.Clusters) != 5 {
		t.Fatalf("clamped page: limit=%d len=%d, want %d/5", r.Limit, len(r.Clusters), MaxPageSize)
	}
	r = e.Rankings(1000, 10)
	if len(r.Clusters) != 0 || r.Total != 30 {
		t.Fatalf("past-the-end page: len=%d total=%d, want 0/30", len(r.Clusters), r.Total)
	}
	if r = e.Rankings(-5, 10); r.Offset != 0 {
		t.Fatalf("negative offset not clamped: %d", r.Offset)
	}
}

// passOver drives one pass with a single overflow candidate.
func passOver(e *Engine, ps *patch.Set, bayes float64, obs int) PassStats {
	return e.Pass(PassInput{
		Overflows: []cumulative.Candidate{over(0x42, bayes, obs)},
		Patches:   ps,
	})
}

func TestLifecycle(t *testing.T) {
	e := New(Config{ResolveAfter: 2})

	passOver(e, nil, 10, 1)
	id := e.Rankings(0, 1).Clusters[0].ID
	state := func() string {
		d, ok := e.Detail(id)
		if !ok {
			t.Fatalf("cluster %q vanished", id)
		}
		return d.State
	}
	if got := state(); got != StateNew {
		t.Fatalf("after first pass: %q, want %q", got, StateNew)
	}

	passOver(e, nil, 12, 2)
	if got := state(); got != StateActive {
		t.Fatalf("after second pass: %q, want %q", got, StateActive)
	}

	// The patch log covers the site: patched.
	ps := patch.New()
	ps.AddPad(0x42, 8)
	passOver(e, ps, 12, 2)
	if got := state(); got != StatePatched {
		t.Fatalf("patched pass: %q, want %q", got, StatePatched)
	}

	// Two quiet passes (no new occurrences) resolve it.
	passOver(e, ps, 12, 2)
	passOver(e, ps, 12, 2)
	if got := state(); got != StateResolved {
		t.Fatalf("after quiet passes: %q, want %q", got, StateResolved)
	}

	// Fresh evidence against a resolved cluster: regression.
	passOver(e, ps, 20, 9)
	d, _ := e.Detail(id)
	if d.State != StateRegressed || d.Regressions != 1 {
		t.Fatalf("after regrowth: state=%q regressions=%d, want %q/1", d.State, d.Regressions, StateRegressed)
	}
}

func TestAlertArmAndDeliver(t *testing.T) {
	var posts atomic.Int64
	var got AlertPayload
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		posts.Add(1)
		json.NewDecoder(r.Body).Decode(&got)
	}))
	defer srv.Close()

	e := New(Config{Source: "fleetd", Alert: AlertConfig{URL: srv.URL, BayesThreshold: 2}})
	st := passOver(e, nil, 1000, 5) // pooled log10 = 3 >= 2
	if st.Queued != 1 || e.PendingAlerts() != 1 {
		t.Fatalf("queued=%d pending=%d, want 1/1", st.Queued, e.PendingAlerts())
	}
	if n := e.DeliverAlerts(context.Background()); n != 1 {
		t.Fatalf("delivered = %d, want 1", n)
	}
	if posts.Load() != 1 {
		t.Fatalf("webhook POSTs = %d, want 1", posts.Load())
	}
	if got.Source != "fleetd" || got.Reason != "bayes" || got.Cluster.Occurrences != 5 {
		t.Fatalf("payload = %+v", got)
	}

	// Dedup: the same crossing never re-arms.
	for i := 0; i < 3; i++ {
		if st := passOver(e, nil, 1000, 5); st.Queued != 0 {
			t.Fatalf("pass %d re-armed a fired cluster", i)
		}
	}
	e.DeliverAlerts(context.Background())
	if posts.Load() != 1 {
		t.Fatalf("webhook POSTs after dedup = %d, want still 1", posts.Load())
	}
}

func TestAlertPayloadNeverCarriesRawText(t *testing.T) {
	var body []byte
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		buf := new(bytes.Buffer)
		buf.ReadFrom(r.Body)
		body = buf.Bytes()
	}))
	defer srv.Close()

	e := New(Config{Alert: AlertConfig{URL: srv.URL, MinOccurrences: 1}})
	passOver(e, nil, 10, 3)
	e.DeliverAlerts(context.Background())

	// The compound alert is a normalized summary: no instance lists, no
	// frames, no details text ride along (gasoline DL-6).
	for _, forbidden := range []string{"instances", "frames", "details", "Details"} {
		if bytes.Contains(body, []byte(`"`+forbidden+`"`)) {
			t.Fatalf("alert payload carries %q: %s", forbidden, body)
		}
	}
	var p AlertPayload
	if err := json.Unmarshal(body, &p); err != nil || p.Cluster.Summary == "" {
		t.Fatalf("payload not a normalized summary: %v %s", err, body)
	}
}

func TestAlertRegressionRefiresAfterCooldown(t *testing.T) {
	var posts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		posts.Add(1)
	}))
	defer srv.Close()

	e := New(Config{ResolveAfter: 1, Alert: AlertConfig{URL: srv.URL, BayesThreshold: 1, Cooldown: time.Hour}})
	clock := time.Now()
	e.alerter.now = func() time.Time { return clock }

	ps := patch.New()
	ps.AddPad(0x42, 8)
	passOver(e, nil, 100, 1) // new, alert armed
	passOver(e, ps, 100, 1)  // patched
	passOver(e, ps, 100, 1)  // resolved (1 quiet pass)
	e.DeliverAlerts(context.Background())
	if posts.Load() != 1 {
		t.Fatalf("initial alert POSTs = %d, want 1", posts.Load())
	}

	// Regression inside the cooldown window: suppressed.
	passOver(e, ps, 100, 7)
	e.DeliverAlerts(context.Background())
	if posts.Load() != 1 {
		t.Fatalf("regression re-fired inside cooldown")
	}

	// Roll the clock past the cooldown: the standing regression (count 1,
	// fired record still at 0) re-arms on the very next pass.
	clock = clock.Add(2 * time.Hour)
	passOver(e, ps, 100, 7)
	// A second resolved→regressed cycle inside the new cooldown window
	// stays suppressed even though Regressions grows again.
	passOver(e, nil, 100, 20)
	passOver(e, ps, 100, 20)
	passOver(e, ps, 100, 20)
	passOver(e, ps, 100, 33)
	e.DeliverAlerts(context.Background())
	if posts.Load() != 2 {
		t.Fatalf("regression after cooldown: POSTs = %d, want 2", posts.Load())
	}
}

func TestAlertRetryBackoffAndDrop(t *testing.T) {
	var posts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		posts.Add(1)
		http.Error(w, "nope", http.StatusBadGateway)
	}))
	defer srv.Close()

	e := New(Config{Alert: AlertConfig{
		URL: srv.URL, MinOccurrences: 1, MaxAttempts: 3, Backoff: time.Minute,
	}})
	clock := time.Now()
	e.alerter.now = func() time.Time { return clock }

	passOver(e, nil, 10, 2)
	if n := e.DeliverAlerts(context.Background()); n != 0 {
		t.Fatalf("delivered %d against a failing webhook", n)
	}
	if posts.Load() != 1 || e.PendingAlerts() != 1 {
		t.Fatalf("after first attempt: posts=%d pending=%d, want 1/1", posts.Load(), e.PendingAlerts())
	}

	// Before the backoff elapses nothing is due.
	e.DeliverAlerts(context.Background())
	if posts.Load() != 1 {
		t.Fatalf("retried before backoff elapsed")
	}

	// Walk the clock through the remaining attempts: 1m, then 2m.
	clock = clock.Add(61 * time.Second)
	e.DeliverAlerts(context.Background())
	clock = clock.Add(121 * time.Second)
	e.DeliverAlerts(context.Background())
	if posts.Load() != 3 {
		t.Fatalf("total attempts = %d, want MaxAttempts=3", posts.Load())
	}
	if e.PendingAlerts() != 0 {
		t.Fatalf("alert not dropped after max attempts: pending=%d", e.PendingAlerts())
	}
	// Dropped means dropped: nothing ever retries again.
	clock = clock.Add(time.Hour)
	e.DeliverAlerts(context.Background())
	if posts.Load() != 3 {
		t.Fatalf("dropped alert came back: posts=%d", posts.Load())
	}
}

func TestAlertStateRoundTrip(t *testing.T) {
	e := New(Config{Alert: AlertConfig{URL: "http://unreachable.invalid", MinOccurrences: 1}})
	passOver(e, nil, 10, 2)
	if e.PendingAlerts() != 1 {
		t.Fatalf("pending = %d, want 1", e.PendingAlerts())
	}
	blob, err := e.AlertState()
	if err != nil {
		t.Fatalf("AlertState: %v", err)
	}

	// A fresh engine restoring the blob inherits both halves: the fired
	// record suppresses re-arming, the pending queue survives.
	e2 := New(Config{Alert: AlertConfig{URL: "http://unreachable.invalid", MinOccurrences: 1}})
	if err := e2.RestoreAlertState(blob); err != nil {
		t.Fatalf("RestoreAlertState: %v", err)
	}
	if e2.PendingAlerts() != 1 {
		t.Fatalf("restored pending = %d, want 1", e2.PendingAlerts())
	}
	if st := passOver(e2, nil, 10, 2); st.Queued != 0 {
		t.Fatalf("restored fired record did not suppress re-arming")
	}

	// Empty blob (pre-v3 snapshot) is a no-op, not an error.
	if err := e2.RestoreAlertState(nil); err != nil {
		t.Fatalf("empty restore: %v", err)
	}
	if e2.PendingAlerts() != 1 {
		t.Fatalf("empty restore clobbered state")
	}
}

func TestHTTPHandler(t *testing.T) {
	e := New(Config{})
	e.Pass(PassInput{Overflows: []cumulative.Candidate{
		over(0x42, 100, 3), over(0x43, 10, 1),
	}})

	srv := httptest.NewServer(e)
	defer srv.Close()

	get := func(path string) (*http.Response, []byte) {
		req, _ := http.NewRequest(http.MethodGet, srv.URL+path, nil)
		req.Header.Set("X-Request-ID", "reqid1234")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		buf := new(bytes.Buffer)
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}

	resp, body := get("/v1/triage?limit=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rankings: %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Request-ID") != "reqid1234" {
		t.Fatalf("request id not echoed: %q", resp.Header.Get("X-Request-ID"))
	}
	var r RankingReply
	if err := json.Unmarshal(body, &r); err != nil || r.Total != 2 || len(r.Clusters) != 1 {
		t.Fatalf("rankings body: %v %s", err, body)
	}

	resp, body = get("/v1/triage/" + r.Clusters[0].ID)
	var d ClusterDetail
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &d) != nil || d.ID != r.Clusters[0].ID {
		t.Fatalf("detail: %d %s", resp.StatusCode, body)
	}

	if resp, _ = get("/v1/triage/no-such-cluster"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown cluster: %d, want 404", resp.StatusCode)
	}
	if presp, err := http.Post(srv.URL+"/v1/triage", "application/json", nil); err != nil || presp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST: %v %d, want 405", err, presp.StatusCode)
	}

	// A nil engine serves an empty ranking — the partition-mode story.
	var nilEngine *Engine
	nsrv := httptest.NewServer(nilEngine)
	defer nsrv.Close()
	nresp, err := http.Get(nsrv.URL + "/v1/triage")
	if err != nil || nresp.StatusCode != http.StatusOK {
		t.Fatalf("nil engine: %v %v", err, nresp)
	}
	var nr RankingReply
	json.NewDecoder(nresp.Body).Decode(&nr)
	nresp.Body.Close()
	if nr.Total != 0 {
		t.Fatalf("nil engine total = %d, want 0", nr.Total)
	}
}

func TestDeterministicRankingsAcrossShuffles(t *testing.T) {
	// The same candidate multiset in two arrival orders must produce
	// byte-identical rankings (the property the cluster e2e relies on).
	build := func(reverse bool) []byte {
		e := New(Config{})
		for i := 0; i < 6; i++ {
			e.RecordFrames(site.ID(0x700+i), []uint64{uint64(i % 2), 0xa, 0xb, 0xc})
		}
		var cands []cumulative.Candidate
		for i := 0; i < 6; i++ {
			cands = append(cands, over(site.ID(0x700+i), float64(100+i), i+1))
		}
		if reverse {
			for i, j := 0, len(cands)-1; i < j; i, j = i+1, j-1 {
				cands[i], cands[j] = cands[j], cands[i]
			}
		}
		e.Pass(PassInput{Overflows: cands})
		b, err := json.Marshal(e.Rankings(0, 50))
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return b
	}
	a, b := build(false), build(true)
	if !bytes.Equal(a, b) {
		t.Fatalf("rankings depend on arrival order:\n%s\n%s", a, b)
	}
}

// TestLateFramesRetireSiteHashCluster: a site's stack can arrive (with a
// bug report) after its evidence was clustered by site hash. The
// site-hash cluster must leave the ranking once its member moves to the
// signature cluster — otherwise the site's evidence counts twice and a
// restarted tier, rebuilding triage from candidates, ranks differently.
func TestLateFramesRetireSiteHashCluster(t *testing.T) {
	frames := []uint64{0x1, 0x2, 0x3}
	e := New(Config{})
	passOver(e, nil, 10, 1)
	e.RecordFrames(0x42, frames)
	passOver(e, nil, 10, 1)
	passOver(e, nil, 10, 1)

	fresh := New(Config{})
	fresh.RecordFrames(0x42, frames)
	passOver(fresh, nil, 10, 1)

	got, want := e.Rankings(0, 10), fresh.Rankings(0, 10)
	if got.Total != 1 || want.Total != 1 {
		t.Fatalf("ranking total = %d (fresh engine: %d), want 1", got.Total, want.Total)
	}
	if got.Clusters[0].ID != want.Clusters[0].ID || got.Clusters[0].Occurrences != 1 {
		t.Fatalf("ranking = %+v, want the signature cluster %s alone", got.Clusters, want.Clusters[0].ID)
	}
	if _, ok := e.Detail("overflow-site-42"); ok {
		t.Fatal("the site-hash cluster still serves details after its site's stack arrived")
	}
}

// TestRestoredAlertStateIsReconsidered: restoring alert state swaps the
// records every later pass is judged against, so the next pass
// reconsiders every cluster even though none changed.
func TestRestoredAlertStateIsReconsidered(t *testing.T) {
	e := New(Config{Alert: AlertConfig{URL: "http://unreachable.invalid", MinOccurrences: 1}})
	if st := passOver(e, nil, 10, 2); st.Queued != 1 {
		t.Fatalf("first pass queued %d alerts, want 1", st.Queued)
	}
	if err := e.RestoreAlertState([]byte(`{"fired":{},"pending":[]}`)); err != nil {
		t.Fatal(err)
	}
	if st := e.Pass(PassInput{}); st.Queued != 1 {
		t.Fatalf("pass after restoring an empty record queued %d alerts, want 1", st.Queued)
	}
}

// TestCleanPassAllocsFlat: a pass with nothing dirty allocates the same
// at 1k and at 10k clusters — its cost does not grow with the ranking.
func TestCleanPassAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		e := New(Config{Alert: AlertConfig{URL: "http://unreachable.invalid", BayesThreshold: 1}})
		var in PassInput
		ps := patch.New()
		for i := 0; i < n; i++ {
			id := site.ID(0x1000 + i)
			if i%4 == 0 {
				e.RecordFrames(id, []uint64{uint64(i), uint64(i / 8), 0xAA})
			}
			in.Overflows = append(in.Overflows, over(id, float64(1+i%97), 1+i%5))
			if i%10 == 0 {
				in.Danglings = append(in.Danglings, dang(id, 0x9, float64(1+i%31), 1))
				ps.AddPad(id, 8)
			}
		}
		in.Patches, in.Threshold, in.Full = ps, 50, true
		e.Pass(in)
		// Let every due transition (new → active, patched → resolved)
		// play out first.
		for i := 0; i <= DefaultResolveAfter; i++ {
			e.Pass(PassInput{Threshold: 50})
		}
		return testing.AllocsPerRun(50, func() { e.Pass(PassInput{Threshold: 50}) })
	}
	small, large := allocs(1000), allocs(10000)
	if small != large {
		t.Fatalf("clean pass allocates %v at 1k clusters but %v at 10k", small, large)
	}
}

// TestWriteJSONUnencodableIs500: a reply that cannot be encoded answers
// 500 with the reason, never an empty 200.
func TestWriteJSONUnencodableIs500(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, ClusterSummary{TopBayes: math.Inf(1)})
	if rec.Code != http.StatusInternalServerError || !bytes.Contains(rec.Body.Bytes(), []byte("unsupported value")) {
		t.Fatalf("unencodable reply answered %d %q, want 500 with the reason", rec.Code, rec.Body)
	}
}

// TestRankingsDeclareContentLength: a ranking page too large for the
// server to measure on its own still carries its Content-Length, so a
// reader can take the body in one exact-size read.
func TestRankingsDeclareContentLength(t *testing.T) {
	e := New(Config{})
	var in PassInput
	for i := 0; i < 100; i++ {
		in.Overflows = append(in.Overflows, over(site.ID(0x1000+i), float64(10+i), 3))
	}
	e.Pass(in)
	srv := httptest.NewServer(e)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/triage?limit=200")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) < 8<<10 || resp.ContentLength != int64(len(body)) {
		t.Fatalf("a %d-byte ranking declared Content-Length %d", len(body), resp.ContentLength)
	}
}
