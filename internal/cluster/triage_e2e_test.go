package cluster

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"exterminator/internal/cumulative"
	"exterminator/internal/fleet"
	"exterminator/internal/report"
	"exterminator/internal/site"
	"exterminator/internal/triage"
)

// guiltyFrames is the synthetic call stack uploaded for the guilty
// overflow site, outermost first. Its innermost suffix drives
// signature-keyed clustering on both tiers.
var guiltyFrames = []uint64{0x10, 0x20, 0x30, 0x40}

// triageReport is the bug report both tiers ingest before their first
// correction pass: it carries the stack provenance triage clusters by.
func triageReport() *report.Report {
	return &report.Report{Findings: []report.Finding{{
		Kind:  "buffer-overflow",
		Title: "heap buffer overflow from allocation site 0xbad",
		Sites: []report.SiteTrace{{Site: guiltySite, Role: "alloc", Frames: guiltyFrames}},
	}, {
		Kind:  "dangling-pointer",
		Title: "premature free",
		Sites: []report.SiteTrace{
			{Site: guiltyAlloc, Role: "alloc", Frames: []uint64{0x11, 0x22, 0x33}},
			{Site: guiltyFree, Role: "free"},
		},
	}}}
}

func getBytes(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestTriageRankingsConvergeWithSingleFleetd is the triage acceptance
// test: three partitions plus a coordinator, fed the identical evidence
// and bug-report stream as one single-node fleetd, must serve
// byte-identical GET /v1/triage rankings and cluster details. Pooled
// Bayes factors, lifecycle fields and pagination all ride the wire, so
// byte equality pins the whole pipeline — sharding must be invisible to
// triage consumers.
func TestTriageRankingsConvergeWithSingleFleetd(t *testing.T) {
	ctx := context.Background()
	cfg := cumulative.DefaultConfig()

	single := fleet.NewServer(fleet.ServerOptions{Config: cfg, CorrectEvery: -1})
	singleTS := httptest.NewServer(single.Handler())
	defer singleTS.Close()
	singleClient := fleet.NewClient(singleTS.URL, "single")

	var partURLs []string
	for i := 0; i < 3; i++ {
		srv := fleet.NewServer(fleet.ServerOptions{
			Config: cfg, CorrectEvery: -1, DisableCorrection: true,
		})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		partURLs = append(partURLs, ts.URL)
	}
	router, err := NewRouter("routed", partURLs...)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(CoordinatorOptions{Partitions: partURLs, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	coordTS := httptest.NewServer(coord.Handler())
	defer coordTS.Close()

	// Identical evidence stream to both tiers.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		batch := testBatch(rng)
		if _, err := pushStamped(ctx, singleClient, batch); err != nil {
			t.Fatalf("single push: %v", err)
		}
		if err := pushRouted(ctx, router, batch); err != nil {
			t.Fatalf("routed push: %v", err)
		}
	}
	// Identical stack provenance to both tiers, before the first pass,
	// so signature keying (not the site-hash fallback) is exercised.
	if err := singleClient.PushReport(triageReport()); err != nil {
		t.Fatalf("single report: %v", err)
	}
	if err := fleet.NewClient(coordTS.URL, "reporter").PushReport(triageReport()); err != nil {
		t.Fatalf("coordinator report: %v", err)
	}

	// Exactly one correction (= one triage pass) on each tier, so pass
	// counters and firstPass/lastPass fields line up.
	single.Correct()
	if _, err := coord.Sync(ctx); err != nil {
		t.Fatal(err)
	}

	singleRank := getBytes(t, singleTS.URL+"/v1/triage?limit=200")
	coordRank := getBytes(t, coordTS.URL+"/v1/triage?limit=200")
	if !bytes.Equal(singleRank, coordRank) {
		t.Fatalf("triage rankings diverged:\nsingle:  %s\ncluster: %s", singleRank, coordRank)
	}

	// The ranking is non-trivial and the guilty overflow clusters by
	// signature (the uploaded stack), not by site hash.
	rank, err := fleet.NewClient(coordTS.URL, "poller").TriageRankings(ctx, 0, 200)
	if err != nil {
		t.Fatal(err)
	}
	if rank.Total == 0 || len(rank.Clusters) == 0 {
		t.Fatal("empty triage ranking after 40 batches")
	}
	var sigCluster string
	for _, c := range rank.Clusters {
		if c.Kind == "overflow" && strings.Contains(c.ID, "-sig-") {
			sigCluster = c.ID
			break
		}
	}
	if sigCluster == "" {
		t.Fatalf("no signature-keyed overflow cluster in %+v", rank.Clusters)
	}

	// Every cluster's detail body is byte-identical too.
	for _, c := range rank.Clusters {
		sd := getBytes(t, singleTS.URL+"/v1/triage/"+c.ID)
		cd := getBytes(t, coordTS.URL+"/v1/triage/"+c.ID)
		if !bytes.Equal(sd, cd) {
			t.Fatalf("detail diverged for %s:\nsingle:  %s\ncluster: %s", c.ID, sd, cd)
		}
	}
}

// alertTier is one incarnation of a daemon that persists triage alert
// state: a coordinator or a single fleetd.
type alertTier interface {
	SaveSnapshot(path string) error
	LoadSnapshot(path string) error
	Triage() *triage.Engine
}

// TestAlertExactlyOnceAcrossSnapshotRestart pins the webhook guarantee on
// both tiers that alert: a fired alert survives a kill/restart in the
// fired map (no duplicate), and an armed-but-undelivered alert survives
// in the pending queue (no loss) — delivered exactly once overall. A
// coordinator syncs its evidence from a partition; a single fleetd
// holds it in its own store and restores it from its snapshot.
func TestAlertExactlyOnceAcrossSnapshotRestart(t *testing.T) {
	ctx := context.Background()
	// Evidence that produces at least one candidate (obs >= 1 arms the
	// MinOccurrences=1 trigger).
	snap := &cumulative.Snapshot{C: 4, P: 0.5, Runs: 2, Sites: []site.ID{0x900}}
	snap.Overflow = append(snap.Overflow, cumulative.SiteObservations{
		Site: 0x900,
		Obs:  []cumulative.Observation{{X: 0.25, Y: true}, {X: 0.5, Y: true}},
	})

	t.Run("coordinator", func(t *testing.T) {
		part := fleet.NewServer(fleet.ServerOptions{CorrectEvery: -1, DisableCorrection: true})
		partTS := httptest.NewServer(part.Handler())
		defer partTS.Close()
		if _, err := pushStamped(ctx, fleet.NewClient(partTS.URL, "inst"), snap); err != nil {
			t.Fatal(err)
		}
		alertIncarnations(t, func(alerting triage.Config, _ bool) alertTier {
			c, err := NewCoordinator(CoordinatorOptions{Partitions: []string{partTS.URL}, Triage: alerting})
			if err != nil {
				t.Fatal(err)
			}
			return c
		}, func(d alertTier) error {
			_, err := d.(*Coordinator).Sync(ctx)
			return err
		})
	})

	t.Run("fleetd", func(t *testing.T) {
		alertIncarnations(t, func(alerting triage.Config, fresh bool) alertTier {
			srv := fleet.NewServer(fleet.ServerOptions{CorrectEvery: -1, Triage: alerting})
			if fresh {
				srv.Store().AbsorbSnapshot(snap)
			}
			return srv
		}, func(d alertTier) error {
			d.(*fleet.Server).Correct()
			return nil
		})
	})
}

// alertIncarnations runs four incarnations of one tier against a
// webhook. newTier builds an incarnation alerting through the given
// config; a fresh one starts without a snapshot and so must hold the
// evidence on its own. sync brings an incarnation's evidence up to
// date and runs a correction pass.
func alertIncarnations(t *testing.T, newTier func(alerting triage.Config, fresh bool) alertTier, sync func(alertTier) error) {
	ctx := context.Background()
	var posts atomic.Int64
	webhook := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		posts.Add(1)
	}))
	defer webhook.Close()
	alerting := triage.Config{Alert: triage.AlertConfig{URL: webhook.URL, MinOccurrences: 1}}
	snapPath := filepath.Join(t.TempDir(), "state.snap")

	// Incarnation 1: arm and deliver.
	c1 := newTier(alerting, true)
	if err := sync(c1); err != nil {
		t.Fatal(err)
	}
	if n := c1.Triage().DeliverAlerts(ctx); n != 1 {
		t.Fatalf("incarnation 1 delivered %d alerts, want 1", n)
	}
	if posts.Load() != 1 {
		t.Fatalf("webhook POSTs = %d, want 1", posts.Load())
	}
	if err := c1.SaveSnapshot(snapPath); err != nil {
		t.Fatal(err)
	}

	// Incarnation 2: the restored fired map suppresses re-arming even
	// though LoadSnapshot's warm-up pass sees the same crossing again.
	c2 := newTier(alerting, false)
	if err := c2.LoadSnapshot(snapPath); err != nil {
		t.Fatal(err)
	}
	if p := c2.Triage().PendingAlerts(); p != 0 {
		t.Fatalf("restart resurrected %d pending alerts", p)
	}
	c2.Triage().DeliverAlerts(ctx)
	if err := sync(c2); err != nil {
		t.Fatal(err)
	}
	c2.Triage().DeliverAlerts(ctx)
	if posts.Load() != 1 {
		t.Fatalf("delivered alert re-fired after restart: POSTs = %d", posts.Load())
	}

	// Incarnation 3: arm but crash before delivery. The pending queue
	// rides the snapshot and delivers exactly once after restart.
	c3 := newTier(alerting, true)
	if err := sync(c3); err != nil {
		t.Fatal(err)
	}
	if p := c3.Triage().PendingAlerts(); p != 1 {
		t.Fatalf("incarnation 3 pending = %d, want 1", p)
	}
	snapPath2 := filepath.Join(t.TempDir(), "state2.snap")
	if err := c3.SaveSnapshot(snapPath2); err != nil {
		t.Fatal(err)
	}

	c4 := newTier(alerting, false)
	if err := c4.LoadSnapshot(snapPath2); err != nil {
		t.Fatal(err)
	}
	if p := c4.Triage().PendingAlerts(); p != 1 {
		t.Fatalf("restored pending = %d, want 1", p)
	}
	if n := c4.Triage().DeliverAlerts(ctx); n != 1 {
		t.Fatalf("incarnation 4 delivered %d, want 1", n)
	}
	c4.Triage().DeliverAlerts(ctx)
	if posts.Load() != 2 {
		t.Fatalf("total webhook POSTs = %d, want 2 (one per armed crossing)", posts.Load())
	}
}

var reqIDRe = regexp.MustCompile(`requestId=([0-9a-f]{16})`)

// TestReadPathCorrelationAcrossTiers pins satellite read-path
// correlation: a fleet.Client GET mints an X-Request-ID, and the same
// ID appears in the client's log and the serving tier's log — including
// the coordinator's own delta polls against partitions, so one grep
// follows a read across tiers.
func TestReadPathCorrelationAcrossTiers(t *testing.T) {
	ctx := context.Background()
	debugHandler := func(w io.Writer) *slog.Logger {
		return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: slog.LevelDebug}))
	}

	var partLog, coordLog, clientLog logSink
	part := fleet.NewServer(fleet.ServerOptions{
		CorrectEvery: -1, DisableCorrection: true, Logger: debugHandler(&partLog),
	})
	partTS := httptest.NewServer(part.Handler())
	defer partTS.Close()

	coord, err := NewCoordinator(CoordinatorOptions{
		Partitions: []string{partTS.URL}, Logger: debugHandler(&coordLog),
	})
	if err != nil {
		t.Fatal(err)
	}
	coordTS := httptest.NewServer(coord.Handler())
	defer coordTS.Close()

	poller := fleet.NewClient(coordTS.URL, "poller")
	poller.SetLogger(debugHandler(&clientLog))

	// Client → coordinator: the patch poll's ID appears on both sides.
	if _, _, err := poller.PatchesContext(ctx, 0); err != nil {
		t.Fatal(err)
	}
	var patchID string
	for _, line := range strings.Split(clientLog.String(), "\n") {
		if strings.Contains(line, "/v1/patches") {
			if m := reqIDRe.FindStringSubmatch(line); m != nil {
				patchID = m[1]
			}
		}
	}
	if patchID == "" {
		t.Fatalf("client log has no request ID for the patch poll:\n%s", clientLog.String())
	}
	if !strings.Contains(coordLog.String(), patchID) {
		t.Fatalf("coordinator log does not mention client request %s:\n%s", patchID, coordLog.String())
	}

	// Coordinator → partition: the delta poll's ID appears in the
	// coordinator's (client-side) log and the partition's (server-side)
	// log.
	if _, err := coord.PollOnce(ctx); err != nil {
		t.Fatal(err)
	}
	var deltaID string
	for _, line := range strings.Split(partLog.String(), "\n") {
		if strings.Contains(line, "deltas served") {
			if m := reqIDRe.FindStringSubmatch(line); m != nil {
				deltaID = m[1]
			}
		}
	}
	if deltaID == "" {
		t.Fatalf("partition log has no request ID for the delta poll:\n%s", partLog.String())
	}
	if !strings.Contains(coordLog.String(), deltaID) {
		t.Fatalf("coordinator log does not mention its own delta request %s:\n%s", deltaID, coordLog.String())
	}

	// Triage reads echo the ID back to the caller.
	req, _ := http.NewRequest(http.MethodGet, coordTS.URL+"/v1/triage", nil)
	req.Header.Set(fleet.RequestIDHeader, "feedfacefeedface")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(fleet.RequestIDHeader); got != "feedfacefeedface" {
		t.Fatalf("triage read echoed %q, want the caller's ID", got)
	}
}

// TestConcurrentCorrectKeepsTriageCurrent: correction passes run from
// several goroutines at once (the Run loop, Sync, a promotion) while
// evidence streams in. Passes serialize, so each triage pass builds on
// the ones before it: after a final sync the coordinator ranks exactly
// like a fresh coordinator that synced once over the same evidence.
func TestConcurrentCorrectKeepsTriageCurrent(t *testing.T) {
	ctx := context.Background()
	cfg := cumulative.DefaultConfig()
	var partURLs []string
	for i := 0; i < 2; i++ {
		srv := fleet.NewServer(fleet.ServerOptions{Config: cfg, CorrectEvery: -1, DisableCorrection: true})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		partURLs = append(partURLs, ts.URL)
	}
	router, err := NewRouter("routed", partURLs...)
	if err != nil {
		t.Fatal(err)
	}
	newCoord := func() *Coordinator {
		c, err := NewCoordinator(CoordinatorOptions{Partitions: partURLs, Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	coord := newCoord()

	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				if _, err := coord.Sync(ctx); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20; i++ {
		if err := pushRouted(ctx, router, testBatch(rng)); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if _, err := coord.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	fresh := newCoord()
	if _, err := fresh.Sync(ctx); err != nil {
		t.Fatal(err)
	}

	type row struct {
		id                 string
		sites, occurrences int
		pooled, top        float64
	}
	rows := func(c *Coordinator) []row {
		var out []row
		for _, s := range c.Triage().Rankings(0, triage.MaxPageSize).Clusters {
			out = append(out, row{s.ID, s.Sites, s.Occurrences, s.PooledBayes, s.TopBayes})
		}
		return out
	}
	got, want := rows(coord), rows(fresh)
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("ranking after concurrent passes:\n%v\nfresh coordinator:\n%v", got, want)
	}
}

// TestInfiniteBayesFactorKeepsTriageEncodable: under §5.1 an X = 0,
// Y = 1 observation is infinite evidence, and cumulative.BayesFactor
// says so with +Inf. One such upload over N = 1,000 sites must leave
// GET /v1/triage decodable on fleetd and on the coordinator, with that
// site's cluster ranked first; the alert it arms must marshal, and the
// coordinator snapshot that carries the alert must save.
func TestInfiniteBayesFactorKeepsTriageEncodable(t *testing.T) {
	ctx := context.Background()
	cfg := cumulative.DefaultConfig()
	alerting := triage.Config{Alert: triage.AlertConfig{URL: "http://127.0.0.1:1/hook", BayesThreshold: 2}}

	single := fleet.NewServer(fleet.ServerOptions{Config: cfg, CorrectEvery: -1, Triage: alerting})
	singleTS := httptest.NewServer(single.Handler())
	defer singleTS.Close()
	_, partURL := haPartition(t, cfg)
	coord, err := NewCoordinator(CoordinatorOptions{Partitions: []string{partURL}, Config: cfg, Triage: alerting})
	if err != nil {
		t.Fatal(err)
	}
	coordTS := httptest.NewServer(coord.Handler())
	defer coordTS.Close()

	const certain = site.ID(0xC0DE)
	s := &cumulative.Snapshot{C: cfg.C, P: cfg.P, Runs: 1}
	for i := 0; i < 1000; i++ {
		id := site.ID(0x10000 + i)
		s.Sites = append(s.Sites, id)
		s.Overflow = append(s.Overflow, cumulative.SiteObservations{Site: id, Obs: []cumulative.Observation{{X: 0.5}}})
	}
	s.Sites = append(s.Sites, certain)
	s.Overflow = append(s.Overflow, cumulative.SiteObservations{Site: certain, Obs: []cumulative.Observation{{X: 0, Y: true}}})
	if _, err := pushStamped(ctx, fleet.NewClient(singleTS.URL, "single"), s); err != nil {
		t.Fatal(err)
	}
	router, err := NewRouter("certain", partURL)
	if err != nil {
		t.Fatal(err)
	}
	if err := pushRouted(ctx, router, s); err != nil {
		t.Fatal(err)
	}
	single.Correct()
	if _, err := coord.Sync(ctx); err != nil {
		t.Fatal(err)
	}

	want := "overflow-site-" + strconv.FormatUint(uint64(certain), 16)
	for tier, base := range map[string]string{"fleetd": singleTS.URL, "coordinator": coordTS.URL} {
		var rr triage.RankingReply
		getJSON(t, base+"/v1/triage", &rr)
		if len(rr.Clusters) == 0 || rr.Clusters[0].ID != want {
			t.Fatalf("%s: ranking %+v, want %s first", tier, rr.Clusters, want)
		}
	}
	for tier, eng := range map[string]*triage.Engine{"fleetd": single.Triage(), "coordinator": coord.Triage()} {
		state, err := eng.AlertState()
		if err != nil {
			t.Fatalf("%s: alert state does not marshal: %v", tier, err)
		}
		if !strings.Contains(string(state), want) {
			t.Fatalf("%s: no alert armed for %s: %s", tier, want, state)
		}
	}
	if err := coord.SaveSnapshot(filepath.Join(t.TempDir(), "coord.snap")); err != nil {
		t.Fatalf("coordinator snapshot: %v", err)
	}
}
