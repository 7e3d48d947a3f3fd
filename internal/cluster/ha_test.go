package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"exterminator/internal/cumulative"
	"exterminator/internal/fleet"
	"exterminator/internal/fleet/codec"
	"exterminator/internal/patch"
	"exterminator/internal/site"
	"exterminator/internal/testutil"
	"exterminator/internal/testutil/chaos"
)

// haPartition spins up one partition server and a coordinator-ready
// base URL for it.
func haPartition(t *testing.T, cfg cumulative.Config) (*fleet.Server, string) {
	t.Helper()
	srv := fleet.NewServer(fleet.ServerOptions{Config: cfg, CorrectEvery: -1})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts.URL
}

// feedCluster pushes n deterministic batches through a router over the
// given partitions.
func feedCluster(t *testing.T, ctx context.Context, seed int64, n int, partURLs ...string) {
	t.Helper()
	router, err := NewRouter("ha-feed", partURLs...)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		if err := pushRouted(ctx, router, testBatch(rng)); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
}

// feedSecondWave indicts a fresh overflow site (strong evidence plus a
// pad hint) so a correction pass after it must bump the patch version.
func feedSecondWave(t *testing.T, ctx context.Context, partURLs ...string) {
	t.Helper()
	router, err := NewRouter("ha-feed-2", partURLs...)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 8; i++ {
		s := testBatch(rng)
		s.Sites = append(s.Sites, lateGuiltySite)
		s.Overflow = append(s.Overflow, cumulative.SiteObservations{
			Site: lateGuiltySite,
			Obs:  []cumulative.Observation{{X: 0.1, Y: true}, {X: 0.15, Y: true}},
		})
		s.PadHints = append(s.PadHints, cumulative.PadHint{Site: lateGuiltySite, Pad: lateGuiltyPad})
		if err := pushRouted(ctx, router, s); err != nil {
			t.Fatalf("second-wave push %d: %v", i, err)
		}
	}
}

const (
	lateGuiltySite = site.ID(0xBAD2)
	lateGuiltyPad  = uint32(40)
)

func TestStandbyGatesClientSurfaceUntilPromoted(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	ctx := context.Background()
	cfg := cumulative.DefaultConfig()
	_, partURL := haPartition(t, cfg)
	feedCluster(t, ctx, 11, 8, partURL)

	standby, err := NewCoordinator(CoordinatorOptions{
		Partitions:  []string{partURL},
		Config:      cfg,
		Standby:     true,
		LeaseHolder: "coord-b",
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(standby.Handler())
	defer ts.Close()

	// The standby mirrors journals like any coordinator...
	if _, err := standby.PollOnce(ctx); err != nil {
		t.Fatalf("standby poll: %v", err)
	}
	if standby.Primary() {
		t.Fatal("coordinator built with Standby: true reports Primary() == true")
	}

	// ...but gates the whole client-facing surface behind 503.
	for _, path := range []string{"/v1/patches?since=0", "/v1/triage", "/v1/reports"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("standby GET %s = %d, want 503", path, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("standby 503 on %s lacks Retry-After", path)
		}
		resp.Body.Close()
	}

	// Ungated surface: lease, status, membership, health.
	lr := getLease(t, ts.URL)
	if lr.Primary || lr.Holder != "coord-b" {
		t.Fatalf("standby lease = %+v, want primary=false holder=coord-b", lr)
	}
	for _, path := range []string{"/v1/status", "/v1/membership", "/healthz", "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("standby GET %s = %d, want 200", path, resp.StatusCode)
		}
		resp.Body.Close()
	}
	if st := standby.Status(); st.Primary || st.LeaseHolder != "coord-b" {
		t.Fatalf("standby status = primary=%v holder=%q", st.Primary, st.LeaseHolder)
	}

	// Promotion opens the gate with a fresh epoch and a warmed patch log.
	preEpoch := standby.Epoch()
	if err := standby.Promote(ctx); err != nil {
		t.Fatal(err)
	}
	if !standby.Primary() {
		t.Fatal("Promote did not make the standby primary")
	}
	if standby.Epoch() <= preEpoch {
		t.Fatalf("promotion epoch %d did not rise above pre-promotion epoch %d", standby.Epoch(), preEpoch)
	}
	var w codec.PatchSet
	getJSON(t, ts.URL+"/v1/patches?since=0", &w)
	if w.Epoch != standby.Epoch() {
		t.Fatalf("patch response epoch %d != coordinator epoch %d", w.Epoch, standby.Epoch())
	}
	if w.Version == 0 {
		t.Fatal("promoted standby serves an unwarmed (version 0) patch log")
	}
	// Promote is idempotent: the epoch must not move again.
	epoch := standby.Epoch()
	if err := standby.Promote(ctx); err != nil {
		t.Fatal(err)
	}
	if standby.Epoch() != epoch {
		t.Fatalf("second Promote moved the epoch %d -> %d", epoch, standby.Epoch())
	}
}

// TestStandbyStaysGatedWhilePromoting: Promote opens the lease gate only
// after the epoch bump, the rebalance re-drive and the warm-up pass. A
// promotion held inside the re-drive of an unfinished plan (at its
// "announced" point) still answers 503 on the client surface, so a
// replica that fails over to the standby meanwhile keeps the version and
// entries it had instead of resyncing to the standby's empty log.
func TestStandbyStaysGatedWhilePromoting(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	ctx := context.Background()
	cfg := cumulative.DefaultConfig()
	_, partURL := haPartition(t, cfg)
	_, spareURL := haPartition(t, cfg)
	feedCluster(t, ctx, 31, 8, partURL)

	primary, err := NewCoordinator(CoordinatorOptions{Partitions: []string{partURL}, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	primaryTS := httptest.NewServer(primary.Handler())
	defer primaryTS.Close()
	if _, err := primary.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	proxy, err := chaos.NewProxy(primaryTS.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	// The old primary died mid-rebalance: the shared journal holds a plan
	// that never finished, which the promotion must re-drive.
	journal := filepath.Join(t.TempDir(), "rebalance.journal")
	begin, err := json.Marshal(rebalRecord{Op: "begin", Version: 2, Old: []string{partURL}, New: []string{partURL, spareURL}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(journal, append(begin, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	standby, err := NewCoordinator(CoordinatorOptions{
		Partitions: []string{partURL}, Config: cfg, Standby: true, RebalanceJournal: journal,
	})
	if err != nil {
		t.Fatal(err)
	}
	standbyTS := httptest.NewServer(standby.Handler())
	defer standbyTS.Close()
	if _, err := standby.PollOnce(ctx); err != nil {
		t.Fatal(err)
	}

	rep, err := NewReplica(ReplicaOptions{Upstreams: []string{proxy.URL(), standbyTS.URL}})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.PollOnce(ctx); err != nil {
		t.Fatal(err)
	}
	before, entries := rep.Status(), rep.log.Len()
	if before.ReplicaVersion == 0 || entries == 0 {
		t.Fatalf("replica mirrors version %d with %d entries; the primary derived nothing", before.ReplicaVersion, entries)
	}

	// Kill the primary and hold the promotion inside its re-drive.
	held, release := make(chan struct{}), make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	defer releaseOnce()
	standby.testRebalanceCrash = func(stage string) error {
		if stage == "announced" {
			close(held)
			<-release
		}
		return nil
	}
	proxy.Drop()
	promoted := make(chan error, 1)
	go func() { promoted <- standby.Promote(ctx) }()
	select {
	case <-held:
	case err := <-promoted:
		t.Fatalf("Promote returned (%v) without re-driving the journaled plan", err)
	}

	for _, path := range []string{"/v1/patches?since=0", "/v1/triage"} {
		resp, err := http.Get(standbyTS.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("GET %s mid-promotion = %d, want 503", path, resp.StatusCode)
		}
	}
	if standby.Primary() {
		t.Error("standby reports Primary() before its promotion finished")
	}
	if err := rep.PollOnce(ctx); err == nil {
		t.Error("replica poll succeeded with the primary dead and the standby still promoting")
	}
	if st := rep.Status(); st.ReplicaEpoch != before.ReplicaEpoch || st.ReplicaVersion != before.ReplicaVersion || rep.log.Len() != entries {
		t.Errorf("replica failing over mid-promotion moved from epoch %d version %d with %d entries to epoch %d version %d with %d",
			before.ReplicaEpoch, before.ReplicaVersion, entries, st.ReplicaEpoch, st.ReplicaVersion, rep.log.Len())
	}
	// A second Promote while the first is under way is a no-op.
	epoch := standby.Epoch()
	if err := standby.Promote(ctx); err != nil {
		t.Fatal(err)
	}
	if standby.Epoch() != epoch || standby.Primary() {
		t.Error("a concurrent Promote moved the epoch or opened the gate")
	}

	releaseOnce()
	if err := <-promoted; err != nil {
		t.Fatal(err)
	}
	if !standby.Primary() || standby.Epoch() != epoch {
		t.Fatalf("after promotion: primary=%v epoch %d, want true and %d", standby.Primary(), standby.Epoch(), epoch)
	}
	if err := rep.PollOnce(ctx); err != nil {
		t.Fatalf("poll after the promotion: %v", err)
	}
	if st := rep.Status(); st.ReplicaEpoch != epoch || st.ReplicaVersion == 0 || rep.log.Len() < entries {
		t.Fatalf("replica follows the promoted standby at epoch %d version %d with %d entries, want epoch %d and at least %d entries",
			st.ReplicaEpoch, st.ReplicaVersion, rep.log.Len(), epoch, entries)
	}
}

func TestManualPromotionViaLeaseEndpointIsTokenGated(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	cfg := cumulative.DefaultConfig()
	_, partURL := haPartition(t, cfg)
	standby, err := NewCoordinator(CoordinatorOptions{
		Partitions: []string{partURL},
		Config:     cfg,
		Standby:    true,
		Token:      "S3CRET",
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(standby.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/lease", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated POST /v1/lease = %d, want 401", resp.StatusCode)
	}
	if standby.Primary() {
		t.Fatal("unauthenticated lease POST promoted the standby")
	}

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/lease", nil)
	req.Header.Set("Authorization", "Bearer S3CRET")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var lr fleet.LeaseReply
	decodeBody(t, resp, &lr)
	if !lr.Primary || !standby.Primary() {
		t.Fatal("authorized POST /v1/lease did not promote the standby")
	}
}

func TestStandbyPromotesAfterConsecutiveProbeFailures(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	ctx := context.Background()
	cfg := cumulative.DefaultConfig()
	_, partURL := haPartition(t, cfg)

	primary, err := NewCoordinator(CoordinatorOptions{
		Partitions: []string{partURL}, Config: cfg, LeaseHolder: "coord-a",
	})
	if err != nil {
		t.Fatal(err)
	}
	primaryTS := httptest.NewServer(primary.Handler())
	defer primaryTS.Close()
	proxy, err := chaos.NewProxy(primaryTS.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	standby, err := NewCoordinator(CoordinatorOptions{
		Partitions:    []string{partURL},
		Config:        cfg,
		Standby:       true,
		Primary:       proxy.URL(),
		TakeoverAfter: 3,
		LeaseHolder:   "coord-b",
	})
	if err != nil {
		t.Fatal(err)
	}

	// While the primary answers, probes track its epoch and never promote.
	for i := 0; i < 5; i++ {
		standby.probePrimary(ctx)
	}
	if standby.Primary() {
		t.Fatal("standby promoted itself while the primary was healthy")
	}
	if got := standby.seenPrimaryEpoch.Load(); got != primary.Epoch() {
		t.Fatalf("standby tracked primary epoch %d, want %d", got, primary.Epoch())
	}

	// Partition the primary away: promotion exactly at the threshold.
	proxy.Drop()
	standby.probePrimary(ctx)
	standby.probePrimary(ctx)
	if standby.Primary() {
		t.Fatalf("standby promoted after 2 failed probes, want TakeoverAfter=3")
	}
	standby.probePrimary(ctx)
	if !standby.Primary() {
		t.Fatal("standby did not promote after 3 consecutive failed probes")
	}
	// The fencing invariant: the new epoch clears everything the old
	// primary ever issued.
	if standby.Epoch() <= primary.Epoch() {
		t.Fatalf("promoted epoch %d does not clear the deposed primary's %d",
			standby.Epoch(), primary.Epoch())
	}
}

// TestStandbyProbeRecoveryResetsFailureCount pins that a transient
// outage shorter than the threshold never promotes: fail, fail, heal,
// fail, fail — the counter restarts at the heal.
func TestStandbyProbeRecoveryResetsFailureCount(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	ctx := context.Background()
	cfg := cumulative.DefaultConfig()
	_, partURL := haPartition(t, cfg)
	primary, err := NewCoordinator(CoordinatorOptions{Partitions: []string{partURL}, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	primaryTS := httptest.NewServer(primary.Handler())
	defer primaryTS.Close()
	proxy, err := chaos.NewProxy(primaryTS.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	standby, err := NewCoordinator(CoordinatorOptions{
		Partitions: []string{partURL}, Config: cfg,
		Standby: true, Primary: proxy.URL(), TakeoverAfter: 3,
	})
	if err != nil {
		t.Fatal(err)
	}

	proxy.Drop()
	standby.probePrimary(ctx)
	standby.probePrimary(ctx)
	proxy.Restore()
	standby.probePrimary(ctx) // heals: resets the consecutive count
	proxy.Drop()
	standby.probePrimary(ctx)
	standby.probePrimary(ctx)
	if standby.Primary() {
		t.Fatal("standby promoted across a healed probe — failure count did not reset")
	}
	standby.probePrimary(ctx)
	if !standby.Primary() {
		t.Fatal("standby did not promote after 3 consecutive post-heal failures")
	}
}

func TestReplicaServesCachedPatchesAndTriage(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	ctx := context.Background()
	cfg := cumulative.DefaultConfig()
	_, partURL := haPartition(t, cfg)
	coord, err := NewCoordinator(CoordinatorOptions{Partitions: []string{partURL}, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	coordTS := httptest.NewServer(coord.Handler())
	defer coordTS.Close()

	feedCluster(t, ctx, 23, 10, partURL)
	if _, err := coord.Sync(ctx); err != nil {
		t.Fatal(err)
	}

	rep, err := NewReplica(ReplicaOptions{Upstreams: []string{coordTS.URL}})
	if err != nil {
		t.Fatal(err)
	}
	repTS := httptest.NewServer(rep.Handler())
	defer repTS.Close()

	// Before the first successful upstream poll the replica is warming.
	resp, err := http.Get(repTS.URL + "/v1/patches")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("unsynced replica GET /v1/patches = %d, want 503", resp.StatusCode)
	}

	if err := rep.PollOnce(ctx); err != nil {
		t.Fatal(err)
	}

	// Byte-identical read path: a poller cannot tell the replica from
	// the coordinator.
	coordPatches := getBytes(t, coordTS.URL+"/v1/patches?since=0")
	repPatches := getBytes(t, repTS.URL+"/v1/patches?since=0")
	if !bytes.Equal(coordPatches, repPatches) {
		t.Fatalf("replica patches diverge from coordinator:\ncoord:   %s\nreplica: %s", coordPatches, repPatches)
	}
	coordTriage := getBytes(t, coordTS.URL+"/v1/triage?limit=200")
	repTriage := getBytes(t, repTS.URL+"/v1/triage")
	if !bytes.Equal(coordTriage, repTriage) {
		t.Fatalf("replica triage diverges from coordinator:\ncoord:   %s\nreplica: %s", coordTriage, repTriage)
	}

	// Revalidation: echoing the validator costs a 304, no body.
	st := rep.Status()
	if !st.Synced || st.ReplicaVersion == 0 {
		t.Fatalf("replica status after poll = %+v", st)
	}
	etag := fleet.PatchETag(st.ReplicaEpoch, st.ReplicaVersion)
	req, _ := http.NewRequest(http.MethodGet, repTS.URL+"/v1/patches", nil)
	req.Header.Set("If-None-Match", etag)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidating poll = %d, want 304", resp.StatusCode)
	}
	if got := rep.Status(); got.PatchNotModified != 1 || got.PatchRequests < 2 {
		t.Fatalf("hit counters = %d not-modified / %d requests", got.PatchNotModified, got.PatchRequests)
	}

	// Delta ring: a cursor inside the ring gets exactly the coordinator's
	// delta answer, stamped with the upstream version numbering. The
	// second wave indicts a *new* site so the patch log actually moves.
	firstVersion := st.ReplicaVersion
	feedSecondWave(t, ctx, partURL)
	if _, err := coord.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if err := rep.PollOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if got := rep.Status().ReplicaVersion; got <= firstVersion {
		t.Fatalf("replica version did not advance past %d (got %d)", firstVersion, got)
	}
	coordDelta := getBytes(t, coordTS.URL+"/v1/patches?since="+utoa(firstVersion))
	repDelta := getBytes(t, repTS.URL+"/v1/patches?since="+utoa(firstVersion))
	if !bytes.Equal(coordDelta, repDelta) {
		t.Fatalf("replica delta answer diverges:\ncoord:   %s\nreplica: %s", coordDelta, repDelta)
	}
}

// TestPatchesIdenticalAcrossTiers: GET /v1/patches has one
// implementation, fleet.PatchLog's, so fleetd, a coordinator and a
// replica following that coordinator answer every poll of one patch
// history alike — status, ETag and body, on either encoding — whatever
// the cursor. The history is long enough that every log has compacted
// its delta window.
func TestPatchesIdenticalAcrossTiers(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	ctx := context.Background()
	cfg := cumulative.DefaultConfig()
	single := fleet.NewServer(fleet.ServerOptions{Config: cfg, CorrectEvery: -1})
	singleTS := httptest.NewServer(single.Handler())
	defer singleTS.Close()
	_, partURL := haPartition(t, cfg)
	coord, err := NewCoordinator(CoordinatorOptions{Partitions: []string{partURL}, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	coordTS := httptest.NewServer(coord.Handler())
	defer coordTS.Close()
	// Both origins speak for one incarnation, so their validators match.
	const epoch = 0xE90C
	single.PatchLog().SetEpoch(epoch)
	coord.PatchLog().SetEpoch(epoch)
	rep, err := NewReplica(ReplicaOptions{Upstreams: []string{coordTS.URL}})
	if err != nil {
		t.Fatal(err)
	}
	repTS := httptest.NewServer(rep.Handler())
	defer repTS.Close()
	if err := rep.PollOnce(ctx); err != nil {
		t.Fatal(err)
	}

	const versions = 300
	for v := 1; v <= versions; v++ {
		ps := patch.New()
		ps.AddPad(site.ID(0x4000+v), uint32(8+v%5))
		if v%3 == 0 {
			ps.AddDeferral(site.Pair{Alloc: site.ID(0x4000 + v), Free: 0x99}, uint64(v))
		}
		single.PatchLog().Fold(ps)
		coord.PatchLog().Fold(ps)
		if err := rep.PollOnce(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if st := rep.Status(); st.ReplicaVersion != versions || st.ReplicaEpoch != epoch {
		t.Fatalf("replica at epoch %d version %d, want %d/%d", st.ReplicaEpoch, st.ReplicaVersion, epoch, versions)
	}

	type answer struct {
		status     int
		etag, body string
	}
	poll := func(base, query, inm, accept string) answer {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, base+"/v1/patches"+query, nil)
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return answer{resp.StatusCode, resp.Header.Get("ETag"), string(body)}
	}
	full, _ := coord.PatchLog().Full()
	cases := []struct {
		name, query, inm string
		want             int // entries in the 200 answer
	}{
		{"cursor 0", "?since=0", "", full.Len()},
		{"current version", "?since=300", "", 0},
		{"cursor inside the window", "?since=297", "", 4},
		{"cursor below the window", "?since=100", "", full.Len()},
		{"cursor ahead of the version", "?since=1000", "", full.Len()},
		{"matching If-None-Match", "?since=100", fleet.PatchETag(epoch, versions), 0},
	}
	for _, tc := range cases {
		for _, accept := range []string{"", codec.ContentTypeV2} {
			tiers := map[string]answer{
				"fleetd":      poll(singleTS.URL, tc.query, tc.inm, accept),
				"coordinator": poll(coordTS.URL, tc.query, tc.inm, accept),
				"replica":     poll(repTS.URL, tc.query, tc.inm, accept),
			}
			want := tiers["fleetd"]
			for tier, got := range tiers {
				if got != want {
					t.Errorf("%s (accept %q): %s answered %d %s %q, fleetd %d %s %q",
						tc.name, accept, tier, got.status, got.etag, got.body, want.status, want.etag, want.body)
				}
			}
			if want.etag != fleet.PatchETag(epoch, versions) {
				t.Errorf("%s: ETag %s", tc.name, want.etag)
			}
			if tc.inm != "" {
				if want.status != http.StatusNotModified || want.body != "" {
					t.Errorf("%s: answered %d with %d body bytes, want a bare 304", tc.name, want.status, len(want.body))
				}
				continue
			}
			if accept != "" {
				continue
			}
			var w codec.PatchSet
			if err := json.Unmarshal([]byte(want.body), &w); err != nil || want.status != http.StatusOK {
				t.Fatalf("%s: answered %d %q (%v)", tc.name, want.status, want.body, err)
			}
			if n := w.Set().Len(); n != tc.want || w.Version != versions || w.Epoch != epoch {
				t.Errorf("%s: %d entries at epoch %d version %d, want %d at %d/%d",
					tc.name, n, w.Epoch, w.Version, tc.want, epoch, versions)
			}
		}
	}
}

func TestReplicaFollowsCoordinatorFailover(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	ctx := context.Background()
	cfg := cumulative.DefaultConfig()
	_, partURL := haPartition(t, cfg)
	feedCluster(t, ctx, 31, 8, partURL)

	primary, err := NewCoordinator(CoordinatorOptions{Partitions: []string{partURL}, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	primaryTS := httptest.NewServer(primary.Handler())
	defer primaryTS.Close()
	if _, err := primary.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	proxy, err := chaos.NewProxy(primaryTS.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	standby, err := NewCoordinator(CoordinatorOptions{
		Partitions: []string{partURL}, Config: cfg, Standby: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	standbyTS := httptest.NewServer(standby.Handler())
	defer standbyTS.Close()
	if _, err := standby.PollOnce(ctx); err != nil {
		t.Fatal(err)
	}
	standbyProxy, err := chaos.NewProxy(standbyTS.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer standbyProxy.Close()

	rep, err := NewReplica(ReplicaOptions{Upstreams: []string{proxy.URL(), standbyProxy.URL()}})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.PollOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if got := rep.Status().ReplicaEpoch; got != primary.Epoch() {
		t.Fatalf("replica mirrors epoch %d, want primary's %d", got, primary.Epoch())
	}

	// Kill the primary, promote the standby: the next poll rotates and
	// adopts the promoted epoch.
	proxy.Drop()
	if err := standby.Promote(ctx); err != nil {
		t.Fatal(err)
	}
	if err := rep.PollOnce(ctx); err != nil {
		t.Fatalf("post-failover poll: %v", err)
	}
	want := rep.Status()
	if want.ReplicaEpoch != standby.Epoch() || want.ReplicaVersion != standby.PatchLog().Version() {
		t.Fatalf("replica at epoch %d version %d after failover, want promoted %d/%d",
			want.ReplicaEpoch, want.ReplicaVersion, standby.Epoch(), standby.PatchLog().Version())
	}
	// holds checks that the cache still mirrors the promoted upstream and
	// that the replica polls it.
	holds := func(when string) {
		t.Helper()
		st := rep.Status()
		if st.ReplicaEpoch != want.ReplicaEpoch || st.ReplicaVersion != want.ReplicaVersion {
			t.Fatalf("%s: replica at epoch %d version %d, want promoted %d/%d",
				when, st.ReplicaEpoch, st.ReplicaVersion, want.ReplicaEpoch, want.ReplicaVersion)
		}
		if st.Upstream != standbyProxy.URL() {
			t.Fatalf("%s: replica upstream %q, want the promoted %q", when, st.Upstream, standbyProxy.URL())
		}
	}
	holds("after failover")

	// The deposed primary keeps deriving under its old epoch and comes
	// back: a poll must never cache its epoch or version.
	feedSecondWave(t, ctx, partURL)
	if _, err := primary.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if primary.PatchLog().Version() == want.ReplicaVersion {
		t.Fatal("the deposed primary's version does not differ from the promoted one's")
	}
	proxy.Restore()
	if err := rep.PollOnce(ctx); err != nil {
		t.Fatalf("poll with the deposed primary reachable: %v", err)
	}
	holds("deposed primary reachable")

	// With the promoted standby unreachable, only the stale primary
	// answers: the poll fails with StalePrimaryError and changes nothing.
	standbyProxy.Drop()
	err = rep.PollOnce(ctx)
	var stale *fleet.StalePrimaryError
	if !errors.As(err, &stale) {
		t.Fatalf("poll with every upstream stale = %v, want *fleet.StalePrimaryError", err)
	}
	if st := rep.Status(); st.ReplicaEpoch != want.ReplicaEpoch || st.ReplicaVersion != want.ReplicaVersion {
		t.Fatalf("stale answer changed the cache to epoch %d version %d", st.ReplicaEpoch, st.ReplicaVersion)
	}

	// The standby heals. The next poll meets the deposed primary first —
	// the client was left on it — rejects its epoch and lands back on
	// the promoted upstream.
	standbyProxy.Restore()
	if err := rep.PollOnce(ctx); err != nil {
		t.Fatalf("poll after the standby healed: %v", err)
	}
	holds("after the standby healed")
}

// getLease fetches and decodes GET /v1/lease.
func getLease(t *testing.T, base string) *fleet.LeaseReply {
	t.Helper()
	var lr fleet.LeaseReply
	getJSON(t, base+"/v1/lease", &lr)
	return &lr
}

// getJSON fetches url and decodes the 200 body into v.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp, v)
}

func decodeBody(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET = %d, want 200", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func utoa(v uint64) string { return strconv.FormatUint(v, 10) }
