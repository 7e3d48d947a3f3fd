package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"exterminator/internal/cumulative"
	"exterminator/internal/engine"
	"exterminator/internal/fleet"
	"exterminator/internal/fleet/codec"
	"exterminator/internal/report"
	"exterminator/internal/site"
	"exterminator/internal/triage"
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

// uploads hands every test upload its own lineage, so equal contents —
// a piece carrying only the constant guilty-site evidence, say — still
// count once per upload instead of deduplicating against each other.
var uploads atomic.Uint64

// pushStamped uploads s through a plain fleet client as one stamped
// batch with its own lineage.
func pushStamped(ctx context.Context, c *fleet.Client, s *cumulative.Snapshot) (*fleet.IngestReply, error) {
	return c.PushBatchContext(ctx, &codec.Batch{
		Snapshot: s,
		BatchID:  codec.BatchID(c.ID(), uploads.Add(1), 0, 0, s),
	})
}

// pushRouted uploads s through rt the way Sink does, with its own
// lineage: split along the ring into stamped pieces, then push every
// piece. Failed pieces are joined into the error; the others stay
// absorbed.
func pushRouted(ctx context.Context, rt *Router, s *cumulative.Snapshot) error {
	d := *s
	d.Lineage = uploads.Add(1)
	pieces, err := rt.SplitBatch(0, 0, &d)
	if err != nil {
		return err
	}
	var errs []error
	for _, p := range pieces {
		if _, err := rt.PushPiece(ctx, p); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

func canonicalPatchBytes(t *testing.T, log *fleet.PatchLog) []byte {
	t.Helper()
	ps, _ := log.Full()
	data, err := json.Marshal(codec.ToWire(ps, 0))
	if err != nil {
		t.Fatal(err)
	}
	return data
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
		if _, err := pushStamped(ctx, singleClient, batch); err != nil {
			t.Fatalf("single push: %v", err)
		}
		if err := pushRouted(ctx, router, batch); err != nil {
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
		if _, err := pushStamped(ctx, client, testBatch(rng)); err != nil {
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
		if _, err := pushStamped(ctx, client, testBatch(rng)); err != nil {
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

// TestCoordinatorRebuildsAfterPartitionRestoresOlderSnapshot: a
// partition restarts from a snapshot older than the evidence the
// coordinator already mirrors, so its share of the later uploads is gone.
// The resync replaces the mirror and the coordinator's next pass refills
// its merged evidence from the mirrors and rescores every key: its patch
// log and triage ranking must then equal those of a fresh coordinator
// over the same partitions.
func TestCoordinatorRebuildsAfterPartitionRestoresOlderSnapshot(t *testing.T) {
	ctx := context.Background()
	cfg := cumulative.DefaultConfig()

	sw := &swappable{}
	older := fleet.NewServer(fleet.ServerOptions{Config: cfg, CorrectEvery: -1, DisableCorrection: true})
	sw.set(older.Handler())
	restartTS := httptest.NewServer(sw)
	defer restartTS.Close()
	steady := fleet.NewServer(fleet.ServerOptions{Config: cfg, CorrectEvery: -1, DisableCorrection: true})
	steadyTS := httptest.NewServer(steady.Handler())
	defer steadyTS.Close()
	partURLs := []string{restartTS.URL, steadyTS.URL}

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
	coordTS := httptest.NewServer(coord.Handler())
	defer coordTS.Close()

	rng := rand.New(rand.NewSource(29))
	push := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := pushRouted(ctx, router, testBatch(rng)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := coord.Sync(ctx); err != nil {
			t.Fatal(err)
		}
	}
	push(30)
	snapPath := filepath.Join(t.TempDir(), "older.snap")
	if err := older.SaveSnapshot(snapPath); err != nil {
		t.Fatal(err)
	}
	push(15)

	restarted := fleet.NewServer(fleet.ServerOptions{Config: cfg, CorrectEvery: -1, DisableCorrection: true})
	if err := restarted.LoadSnapshot(snapPath); err != nil {
		t.Fatal(err)
	}
	had := fleet.SnapshotObservations(older.Store().Combined().Snapshot())
	if kept := fleet.SnapshotObservations(restarted.Store().Combined().Snapshot()); kept >= had {
		t.Fatalf("the older snapshot holds %d observations, the partition had %d", kept, had)
	}
	sw.set(restarted.Handler())
	if _, err := coord.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if coord.Status().Resyncs == 0 {
		t.Fatal("coordinator never resynced the restarted partition")
	}

	fresh := newCoord()
	freshTS := httptest.NewServer(fresh.Handler())
	defer freshTS.Close()
	if _, err := fresh.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if got, want := canonicalPatchBytes(t, coord.PatchLog()), canonicalPatchBytes(t, fresh.PatchLog()); !bytes.Equal(got, want) {
		t.Fatalf("patch log after the rebuild diverged from a fresh coordinator:\ngot:  %s\nwant: %s", got, want)
	}
	if coord.PatchLog().Len() == 0 {
		t.Fatal("no patches derived: the evidence is too weak for this test")
	}
	// Pass numbers and lifecycle age (new → active) differ between a
	// long-lived and a fresh coordinator; the evidence in a ranking row
	// must not.
	type row struct {
		ID, Kind              string
		Sites, Occurrences    int
		PooledBayes, TopBayes float64
		AboveThreshold        bool
	}
	rows := func(url string) []row {
		rank, err := fleet.NewClient(url, "poller").TriageRankings(ctx, 0, triage.MaxPageSize)
		if err != nil {
			t.Fatal(err)
		}
		var out []row
		for _, c := range rank.Clusters {
			out = append(out, row{c.ID, c.Kind, c.Sites, c.Occurrences, c.PooledBayes, c.TopBayes, c.AboveThreshold})
		}
		return out
	}
	got, want := rows(coordTS.URL), rows(freshTS.URL)
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("triage after the rebuild:\n%v\nfresh coordinator:\n%v", got, want)
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
	// The subtest is named for the wire the uploads ride.
	t.Run("v2", func(t *testing.T) {
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
		if _, err := pushStamped(ctx, upClient, testBatch(rng)); err != nil {
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
	if _, err := pushStamped(ctx, downClient, testBatch(rng)); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if got := coord.Status().Runs; got != 18 {
		t.Fatalf("recovered partition's evidence missing: runs %d, want 18", got)
	}
}

// TestCoordinatorRefusesDeltaWithNonProbabilityX: a partition's delta
// frame comes from another process, and the coordinator folds it into a
// mirror that keeps X without its sign bit. A delta whose X is −0.5 is a
// poll error, and the mirror stays empty.
func TestCoordinatorRefusesDeltaWithNonProbabilityX(t *testing.T) {
	frame := codec.EncodeDelta(&codec.Buffer{}, &codec.Delta{
		Epoch: 1, Seq: 1,
		Snapshot: &cumulative.Snapshot{
			Runs: 1, FailedRuns: 1, Sites: []site.ID{0x10},
			Overflow: []cumulative.SiteObservations{
				{Site: 0x10, Obs: []cumulative.Observation{{X: -0.5, Y: true}}},
			},
		},
	})
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/deltas" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", codec.ContentTypeV2)
		w.Write(frame)
	}))
	defer stub.Close()

	coord, err := NewCoordinator(CoordinatorOptions{Partitions: []string{stub.URL}, Config: cumulative.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.PollOnce(context.Background()); err == nil {
		t.Fatal("a delta with X = -0.5 polled without error")
	}
	st := coord.Status()
	if p := st.Partitions[0]; p.Errors != 1 || p.LastError == "" || p.Seq != 0 || p.Sites != 0 || p.Runs != 0 {
		t.Fatalf("partition after a refused delta: %+v", p)
	}
	if st.Runs != 0 || st.Sites != 0 {
		t.Fatalf("merged evidence after a refused delta: %d runs, %d sites", st.Runs, st.Sites)
	}
}

// TestReportIntakeSharedAcrossTiers: fleetd and the coordinator run one
// /v1/reports intake, so both replies carry the retained count and both
// rings keep only the newest MaxReports.
func TestReportIntakeSharedAcrossTiers(t *testing.T) {
	single := fleet.NewServer(fleet.ServerOptions{CorrectEvery: -1, MaxReports: 2})
	singleTS := httptest.NewServer(single.Handler())
	defer singleTS.Close()
	_, partURL := haPartition(t, cumulative.DefaultConfig())
	coord, err := NewCoordinator(CoordinatorOptions{Partitions: []string{partURL}, MaxReports: 2})
	if err != nil {
		t.Fatal(err)
	}
	coordTS := httptest.NewServer(coord.Handler())
	defer coordTS.Close()

	for tier, base := range map[string]string{"fleetd": singleTS.URL, "coordinator": coordTS.URL} {
		for i, want := range []int{1, 2, 2} {
			body := `{"Findings":[{"Kind":"buffer-overflow","Title":"report-` + string(rune('a'+i)) + `"}]}`
			resp, err := http.Post(base+"/v1/reports", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var reply struct {
				OK       bool `json:"ok"`
				Retained *int `json:"retained"`
			}
			decodeBody(t, resp, &reply)
			if !reply.OK || reply.Retained == nil || *reply.Retained != want {
				t.Fatalf("%s: report %d reply %+v, want ok with retained %d", tier, i, reply, want)
			}
		}
		var kept []report.Report
		getJSON(t, base+"/v1/reports", &kept)
		if len(kept) != 2 || kept[0].Findings[0].Title != "report-b" || kept[1].Findings[0].Title != "report-c" {
			t.Fatalf("%s: GET /v1/reports kept %+v, want the newest two", tier, kept)
		}
	}
	var st fleet.StatusReply
	getJSON(t, singleTS.URL+"/v1/status", &st)
	if st.Reports != 3 || coord.Status().Reports != 3 {
		t.Fatalf("reports seen: fleetd %d, coordinator %d, want 3", st.Reports, coord.Status().Reports)
	}
}
