package cluster

import (
	"bytes"
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"

	"exterminator/internal/cumulative"
	"exterminator/internal/engine"
	"exterminator/internal/fleet"
	"exterminator/internal/report"
	"exterminator/internal/site"
)

const (
	guiltySite  = site.ID(0xBAD)
	guiltyPad   = uint32(24)
	guiltyAlloc = site.ID(0xDA)
	guiltyFree  = site.ID(0xDF)
	guiltyDefer = uint64(128)
)

// testBatch builds one installation's upload: strong evidence for the
// guilty overflow site and dangling pair, chance-consistent noise for a
// crowd of innocent sites. Hints are constant so the derived patch set
// is identical no matter how many correction passes interleave.
func testBatch(rng *rand.Rand) *cumulative.Snapshot {
	s := &cumulative.Snapshot{C: 4, P: 0.5, Runs: 3, FailedRuns: 1, CorruptRuns: 1}
	seen := map[site.ID]bool{guiltySite: true, guiltyAlloc: true}
	s.Sites = append(s.Sites, guiltySite, guiltyAlloc)
	for i := 0; i < 40; i++ {
		id := site.ID(0x1000 + uint32(rng.Intn(200)))
		if !seen[id] {
			seen[id] = true
			s.Sites = append(s.Sites, id)
		}
		x := 0.05 + 0.4*rng.Float64()
		s.Overflow = append(s.Overflow, cumulative.SiteObservations{
			Site: id,
			Obs:  []cumulative.Observation{{X: x, Y: rng.Float64() < x}},
		})
	}
	s.Overflow = append(s.Overflow, cumulative.SiteObservations{
		Site: guiltySite,
		Obs:  []cumulative.Observation{{X: 0.1, Y: true}, {X: 0.15, Y: true}},
	})
	s.PadHints = append(s.PadHints, cumulative.PadHint{Site: guiltySite, Pad: guiltyPad})
	s.Dangling = append(s.Dangling, cumulative.PairObservations{
		Alloc: guiltyAlloc, Free: guiltyFree,
		Obs: []cumulative.Observation{{X: 0.5, Y: true}, {X: 0.5, Y: true}},
	})
	for i := 0; i < 5; i++ {
		s.Dangling = append(s.Dangling, cumulative.PairObservations{
			Alloc: site.ID(0x2000 + uint32(rng.Intn(20))), Free: site.ID(0x3000 + uint32(i)),
			Obs: []cumulative.Observation{{X: 0.75, Y: rng.Float64() < 0.75}},
		})
	}
	s.DeferralHints = append(s.DeferralHints, cumulative.DeferralHint{
		Alloc: guiltyAlloc, Free: guiltyFree, Deferral: guiltyDefer,
	})
	return s
}

func canonicalPatchBytes(t *testing.T, log *fleet.PatchLog) []byte {
	t.Helper()
	ps, _ := log.Full()
	var buf bytes.Buffer
	if err := fleet.EncodePatchSet(&buf, ps, 0); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestClusterConvergesWithSingleFleetd is the end-to-end acceptance
// test: three partition servers plus a coordinator, fed the identical
// observation stream as one single-node fleetd, must publish the
// byte-identical canonicalized patch set.
func TestClusterConvergesWithSingleFleetd(t *testing.T) {
	ctx := context.Background()
	cfg := cumulative.DefaultConfig()

	single := fleet.NewServer(fleet.ServerOptions{Config: cfg, CorrectEvery: -1})
	singleTS := httptest.NewServer(single.Handler())
	defer singleTS.Close()
	singleClient := fleet.NewClient(singleTS.URL, "single")

	var partURLs []string
	var partServers []*fleet.Server
	for i := 0; i < 3; i++ {
		srv := fleet.NewServer(fleet.ServerOptions{Config: cfg, CorrectEvery: -1})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		partServers = append(partServers, srv)
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

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		batch := testBatch(rng)
		if _, err := singleClient.PushSnapshot(batch); err != nil {
			t.Fatalf("single push: %v", err)
		}
		if _, err := router.PushSnapshot(ctx, batch); err != nil {
			t.Fatalf("routed push: %v", err)
		}
		if i%10 == 5 {
			// Interleave correction passes: the patch log folds by
			// maxima, so mid-stream passes must not change the outcome.
			single.Correct()
			if _, err := coord.Sync(ctx); err != nil {
				t.Fatalf("mid-stream sync: %v", err)
			}
		}
	}
	single.Correct()
	if _, err := coord.Sync(ctx); err != nil {
		t.Fatalf("final sync: %v", err)
	}

	// Every partition holds a strict subset of the sites...
	total := 0
	for i, srv := range partServers {
		n := srv.Store().Sites()
		if n == 0 {
			t.Fatalf("partition %d received no evidence — ring routed nothing to it", i)
		}
		if n == single.Store().Sites() {
			t.Fatalf("partition %d holds every site — batches were not split", i)
		}
		total += n
	}
	// ...and the partitions are disjoint: their site counts sum to the total.
	if total != single.Store().Sites() {
		t.Fatalf("partition sites sum to %d, single store has %d", total, single.Store().Sites())
	}

	singleBytes := canonicalPatchBytes(t, single.PatchLog())
	clusterBytes := canonicalPatchBytes(t, coord.PatchLog())
	if !bytes.Equal(singleBytes, clusterBytes) {
		t.Fatalf("cluster patch set diverged from single fleetd:\nsingle:  %s\ncluster: %s", singleBytes, clusterBytes)
	}
	ps, _ := coord.PatchLog().Full()
	if ps.Pad(guiltySite) != guiltyPad {
		t.Fatalf("guilty overflow not patched: %v", ps)
	}
	if ps.Deferral(site.Pair{Alloc: guiltyAlloc, Free: guiltyFree}) != guiltyDefer {
		t.Fatalf("guilty dangling pair not patched: %v", ps)
	}

	// Run counters: each batch's counters ride exactly one partition, so
	// the coordinator's totals match the single store's.
	st := coord.Status()
	if st.Runs != single.Store().Runs() || st.CorruptRuns != single.Store().CorruptRuns() {
		t.Fatalf("coordinator counters (runs=%d corrupt=%d) != single (runs=%d corrupt=%d)",
			st.Runs, st.CorruptRuns, single.Store().Runs(), single.Store().CorruptRuns())
	}

	// An unmodified fleet.Client polls the coordinator like any fleetd.
	coordTS := httptest.NewServer(coord.Handler())
	defer coordTS.Close()
	poller := fleet.NewClient(coordTS.URL, "poller")
	got, _, err := poller.Patches(0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Pad(guiltySite) != guiltyPad {
		t.Fatalf("fleet.Client poll against coordinator returned %v", got)
	}
	// ...including report uploads, which the client gzips by default.
	if err := poller.PushReport(report.FromPatches(got, nil)); err != nil {
		t.Fatalf("gzip report upload to coordinator: %v", err)
	}
	if coord.Status().Reports != 1 {
		t.Fatalf("coordinator retained %d reports, want 1", coord.Status().Reports)
	}
}

// swappable lets a test "restart" a partition behind a stable URL.
type swappable struct {
	mu sync.Mutex
	h  http.Handler
}

func (s *swappable) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *swappable) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := s.h
	s.mu.Unlock()
	h.ServeHTTP(w, r)
}

// TestCoordinatorIdempotentUnderPartitionRestart: a partition restarting
// from its snapshot (same evidence, new epoch, reset journal) must not
// change the coordinator's merged totals or patch set, no matter how
// often it re-polls.
func TestCoordinatorIdempotentUnderPartitionRestart(t *testing.T) {
	ctx := context.Background()
	cfg := cumulative.DefaultConfig()

	sw := &swappable{}
	srv1 := fleet.NewServer(fleet.ServerOptions{Config: cfg, CorrectEvery: -1})
	sw.set(srv1.Handler())
	ts := httptest.NewServer(sw)
	defer ts.Close()

	coord, err := NewCoordinator(CoordinatorOptions{Partitions: []string{ts.URL}, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}

	client := fleet.NewClient(ts.URL, "c1")
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 30; i++ {
		if _, err := client.PushSnapshot(testBatch(rng)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := coord.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	wantRuns := coord.Status().Runs
	wantPatches := canonicalPatchBytes(t, coord.PatchLog())
	if wantRuns == 0 || len(coord.Status().Partitions) != 1 {
		t.Fatalf("bad pre-restart state: %+v", coord.Status())
	}

	// Restart the partition through the real fleetd path: persist the
	// snapshot, then restore it into a fresh server (new epoch, journal
	// invalidated so delta cursors cannot skip the restored evidence).
	snapPath := filepath.Join(t.TempDir(), "part.snap")
	if err := srv1.SaveSnapshot(snapPath); err != nil {
		t.Fatal(err)
	}
	srv2 := fleet.NewServer(fleet.ServerOptions{Config: cfg, CorrectEvery: -1})
	if err := srv2.LoadSnapshot(snapPath); err != nil {
		t.Fatal(err)
	}
	sw.set(srv2.Handler())

	for round := 0; round < 3; round++ {
		if _, err := coord.Sync(ctx); err != nil {
			t.Fatalf("post-restart sync %d: %v", round, err)
		}
		st := coord.Status()
		if st.Runs != wantRuns {
			t.Fatalf("sync %d after restart double-counted: runs %d, want %d", round, st.Runs, wantRuns)
		}
		if got := canonicalPatchBytes(t, coord.PatchLog()); !bytes.Equal(got, wantPatches) {
			t.Fatalf("sync %d after restart changed the patch set", round)
		}
	}
	if coord.Status().Resyncs == 0 {
		t.Fatal("coordinator never detected the restart (no full resync)")
	}

	// New evidence uploaded to the restarted partition still flows — and
	// enough of it that the new incarnation's journal seq climbs past the
	// coordinator's stale cursor, exercising the cross-epoch refetch path
	// (a naive delta there would drop the snapshot-restored evidence).
	for i := 0; i < 35; i++ {
		if _, err := client.PushSnapshot(testBatch(rng)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := coord.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if got := coord.Status().Runs; got != wantRuns+35*3 {
		t.Fatalf("post-restart evidence lost or duplicated: runs %d, want %d", got, wantRuns+35*3)
	}
}

// TestClusterSinkPartialPushNoDoubleCount: with one partition down, the
// sink marks the delivered pieces uploaded immediately; retries re-send
// only the missing piece, so no partition ever absorbs the same
// evidence twice.
func TestClusterSinkPartialPushNoDoubleCount(t *testing.T) {
	ctx := context.Background()
	cfg := cumulative.DefaultConfig()

	up := fleet.NewServer(fleet.ServerOptions{Config: cfg, CorrectEvery: -1})
	upTS := httptest.NewServer(up.Handler())
	defer upTS.Close()

	down := fleet.NewServer(fleet.ServerOptions{Config: cfg, CorrectEvery: -1})
	downSW := &swappable{}
	outage := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "outage", http.StatusBadGateway)
	})
	downSW.set(outage)
	downTS := httptest.NewServer(downSW)
	defer downTS.Close()

	sink, err := NewSink(upTS.URL /* coordinator unused: no derived patches */, "partial", upTS.URL, downTS.URL)
	if err != nil {
		t.Fatal(err)
	}

	hist := cumulative.NewHistory(cfg)
	hist.Absorb(testBatch(rand.New(rand.NewSource(41))))
	ev := &engine.Evidence{History: hist}

	if err := sink.Commit(ctx, ev); err == nil {
		t.Fatal("commit with a dead partition must report the failure")
	}
	upBatches := up.Store().Batches()
	if upBatches == 0 {
		t.Fatal("healthy partition received nothing")
	}

	// Retry while the partition is still down: the healthy partition's
	// pieces are already watermarked, so it must receive nothing new.
	if err := sink.Commit(ctx, ev); err == nil {
		t.Fatal("second commit should still fail")
	}
	if got := up.Store().Batches(); got != upBatches {
		t.Fatalf("retry re-sent delivered pieces: batches %d -> %d", upBatches, got)
	}

	// Partition recovers: the third commit delivers only its piece.
	downSW.set(down.Handler())
	if err := sink.Commit(ctx, ev); err != nil {
		t.Fatalf("commit after recovery: %v", err)
	}
	if got := up.Store().Batches(); got != upBatches {
		t.Fatalf("recovery commit re-sent healthy partition's pieces: batches %d -> %d", upBatches, got)
	}

	// Exactly-once across the cluster: merging both partitions
	// reproduces the history's canonical evidence with no duplication.
	merged := cumulative.NewHistory(cfg)
	merged.Absorb(up.Store().Combined().Snapshot())
	merged.Absorb(down.Store().Combined().Snapshot())
	merged.Canonicalize()
	want := cumulative.NewHistory(cfg)
	want.Absorb(hist.Snapshot())
	want.Canonicalize()
	if !merged.Equal(want) {
		t.Fatalf("cluster evidence diverged from the history: %s vs %s", merged, want)
	}

	// Nothing left to upload.
	if d := hist.UploadDelta(); !cumulative.DeltaEmpty(d) {
		t.Fatalf("watermark incomplete after full delivery: %+v", d)
	}
}

// TestClusterSinkFreshHistoriesUnderOneIDBothCount is the batch-ID
// collision regression through the router: two fresh sessions of one
// installation id split the same first delta into the same pieces at
// watermark position (0, 0). Their lineages differ, so every piece ID
// differs and the partitions absorb both uploads.
func TestClusterSinkFreshHistoriesUnderOneIDBothCount(t *testing.T) {
	for _, v2 := range []bool{false, true} {
		name := "json"
		if v2 {
			name = "v2"
		}
		t.Run(name, func(t *testing.T) {
			cfg := cumulative.DefaultConfig()
			var parts []*fleet.Server
			var urls []string
			for i := 0; i < 2; i++ {
				srv := fleet.NewServer(fleet.ServerOptions{Config: cfg, CorrectEvery: -1})
				ts := httptest.NewServer(srv.Handler())
				defer ts.Close()
				parts = append(parts, srv)
				urls = append(urls, ts.URL)
			}
			for session := 0; session < 2; session++ {
				sink, err := NewSink(urls[0] /* coordinator unused: no derived patches */, "install-1", urls...)
				if err != nil {
					t.Fatal(err)
				}
				sink.SetWireV2(v2)
				hist := cumulative.NewHistory(cfg)
				hist.Absorb(testBatch(rand.New(rand.NewSource(43))))
				if err := sink.Commit(context.Background(), &engine.Evidence{History: hist}); err != nil {
					t.Fatal(err)
				}
			}
			var runs int64
			for _, p := range parts {
				runs += p.Store().Runs()
			}
			if runs != 6 {
				t.Fatalf("runs = %d, want 6: the second session's pieces were deduped against the first", runs)
			}
		})
	}
}

// TestSplitSnapshotPartitionsEvidence: the split is a partition of the
// batch — reassembling the pieces reproduces the original evidence, each
// key lands on the ring owner, and run counters appear exactly once.
func TestSplitSnapshotPartitionsEvidence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	s := testBatch(rng)
	ring := NewRing(0, "p1", "p2", "p3", "p4")
	parts := SplitSnapshot(ring, s)
	if len(parts) < 2 {
		t.Fatalf("split produced %d piece(s), want several", len(parts))
	}

	runs, failed := 0, 0
	reassembled := cumulative.NewHistory(cumulative.DefaultConfig())
	for node, p := range parts {
		runs += p.Runs
		failed += p.FailedRuns
		for _, so := range p.Overflow {
			if ring.Owner(so.Site) != node {
				t.Fatalf("overflow key %v on %s, owner is %s", so.Site, node, ring.Owner(so.Site))
			}
		}
		for _, po := range p.Dangling {
			if ring.Owner(po.Alloc) != node {
				t.Fatalf("dangling key %v on %s, owner is %s", po.Alloc, node, ring.Owner(po.Alloc))
			}
		}
		reassembled.Absorb(p)
	}
	if runs != s.Runs || failed != s.FailedRuns {
		t.Fatalf("run counters duplicated or dropped: got %d/%d, want %d/%d", runs, failed, s.Runs, s.FailedRuns)
	}

	direct := cumulative.NewHistory(cumulative.DefaultConfig())
	direct.Absorb(s)
	if !reassembled.Equal(direct) {
		t.Fatal("reassembled pieces differ from absorbing the whole batch")
	}
}

// TestCoordinatorToleratesPartitionOutage: an unreachable partition only
// delays its own evidence; the others keep flowing, and the laggard
// catches up once it returns.
func TestCoordinatorToleratesPartitionOutage(t *testing.T) {
	ctx := context.Background()
	cfg := cumulative.DefaultConfig()

	up := fleet.NewServer(fleet.ServerOptions{Config: cfg, CorrectEvery: -1})
	upTS := httptest.NewServer(up.Handler())
	defer upTS.Close()

	down := fleet.NewServer(fleet.ServerOptions{Config: cfg, CorrectEvery: -1})
	downSW := &swappable{}
	downSW.set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "outage", http.StatusBadGateway)
	}))
	downTS := httptest.NewServer(downSW)
	defer downTS.Close()

	coord, err := NewCoordinator(CoordinatorOptions{Partitions: []string{upTS.URL, downTS.URL}, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(31))
	upClient := fleet.NewClient(upTS.URL, "up")
	downClient := fleet.NewClient(downTS.URL, "down")
	for i := 0; i < 5; i++ {
		if _, err := upClient.PushSnapshot(testBatch(rng)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := coord.Sync(ctx); err == nil {
		t.Fatal("sync with a dead partition should surface its error")
	}
	if got := coord.Status().Runs; got != 15 {
		t.Fatalf("healthy partition's evidence missing: runs %d, want 15", got)
	}

	// Partition recovers with its own evidence.
	downSW.set(down.Handler())
	if _, err := downClient.PushSnapshot(testBatch(rng)); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if got := coord.Status().Runs; got != 18 {
		t.Fatalf("recovered partition's evidence missing: runs %d, want 18", got)
	}
}
