package cluster

import (
	"bytes"
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"exterminator/internal/cumulative"
	"exterminator/internal/engine"
	"exterminator/internal/fleet"
	"exterminator/internal/site"
	"exterminator/internal/testutil"
)

// TestDuplicateUploadsConvergeWithCleanSender is the exactly-once
// acceptance test: a client that re-sends every batch twice (simulating
// lost acks on every upload) against a 3-partition cluster must converge
// to the byte-identical canonicalized patch set as a single
// clean-sending client against one fleetd — and to identical fleet-wide
// run totals.
func TestDuplicateUploadsConvergeWithCleanSender(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	ctx := context.Background()
	cfg := cumulative.DefaultConfig()

	single := fleet.NewServer(fleet.ServerOptions{Config: cfg, CorrectEvery: -1})
	singleTS := httptest.NewServer(single.Handler())
	defer singleTS.Close()
	clean := fleet.NewClient(singleTS.URL, "clean")

	var partURLs []string
	var partServers []*fleet.Server
	for i := 0; i < 3; i++ {
		srv := fleet.NewServer(fleet.ServerOptions{Config: cfg, CorrectEvery: -1})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		partServers = append(partServers, srv)
		partURLs = append(partURLs, ts.URL)
	}
	router, err := NewRouter("doubler", partURLs...)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(CoordinatorOptions{Partitions: partURLs, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}

	// The doubling client maintains a real history with an upload
	// watermark, cuts a delta per round, splits it with per-piece batch
	// IDs — and pushes every piece TWICE before acknowledging it.
	hist := cumulative.NewHistory(cfg)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		batch := testBatch(rng)
		if _, err := pushStamped(ctx, clean, batch); err != nil {
			t.Fatalf("clean push: %v", err)
		}
		hist.Absorb(batch)
		delta := hist.UploadDelta()
		wmRuns, wmObs := hist.UploadedCounts()
		pieces, err := router.SplitBatch(wmRuns, wmObs, delta)
		if err != nil {
			t.Fatal(err)
		}
		for _, piece := range pieces {
			for attempt := 0; attempt < 2; attempt++ {
				reply, err := router.PushPiece(ctx, piece)
				if err != nil {
					t.Fatalf("routed push: %v", err)
				}
				if attempt == 1 && !reply.Duplicate {
					t.Fatal("second delivery of a piece was not deduped")
				}
			}
			hist.MarkUploaded(piece.Batch.Snapshot)
		}
		if i%10 == 5 {
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

	if got, want := coord.Status().Runs, single.Store().Runs(); got != want {
		t.Fatalf("double-sending inflated the cluster: runs %d, want %d", got, want)
	}
	singleBytes := canonicalPatchBytes(t, single.PatchLog())
	clusterBytes := canonicalPatchBytes(t, coord.PatchLog())
	if !bytes.Equal(singleBytes, clusterBytes) {
		t.Fatalf("double-sending diverged the patch set:\nsingle:  %s\ncluster: %s", singleBytes, clusterBytes)
	}

	// Every partition saw duplicates and deduped them.
	for i := range partServers {
		st, err := fleet.NewClient(partURLs[i], "probe").Status()
		if err != nil {
			t.Fatal(err)
		}
		if st.Deduped == 0 {
			t.Fatalf("partition %d deduped nothing — duplicates were absorbed", i)
		}
	}
}

// TestRunCountersSingleCountAcrossShiftedOwner: run counters ride the
// piece of whichever node owns the delta's lowest evidence key. If the
// counter-carrying piece is parked pending on a down partition and a
// later delta's lowest key is owned by a *healthy* node, naively
// re-cutting the counters into the new delta would absorb the
// overlapping range twice. The sink must strip counters from re-cut
// deltas while a pending piece still carries them.
func TestRunCountersSingleCountAcrossShiftedOwner(t *testing.T) {
	testutil.VerifyNoLeaks(t)
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

	sink, err := NewSink(upTS.URL, "ctr", upTS.URL, downTS.URL)
	if err != nil {
		t.Fatal(err)
	}

	// Probe the ring for a key owned by the down partition and a LOWER
	// key owned by the healthy one, so the counter owner shifts between
	// the two delta cuts.
	ring := sink.Router().Ring()
	var siteDown, siteUp site.ID
	haveDown, haveUp := false, false
	for id := site.ID(10000); id > 0; id-- {
		if ring.Owner(id) == downTS.URL {
			siteDown, haveDown = id, true
			break
		}
	}
	for id := site.ID(1); haveDown && id < siteDown; id++ {
		if ring.Owner(id) == upTS.URL {
			siteUp, haveUp = id, true
			break
		}
	}
	if !haveDown || !haveUp {
		t.Skip("ring assigned no suitable key pair (vanishingly unlikely)")
	}

	hist := cumulative.NewHistory(cfg)
	ev := &engine.Evidence{History: hist}

	// Run 1: evidence only at the down-owned key, so its piece carries
	// the run counters — and is parked pending.
	hist.Absorb(&cumulative.Snapshot{C: cfg.C, P: cfg.P, Runs: 1, Sites: []site.ID{siteDown}})
	if err := sink.Commit(ctx, ev); err == nil {
		t.Fatal("commit with the counter owner down must fail")
	}

	// Run 2: new evidence at a lower, healthy-owned key — the re-cut
	// delta's counter owner is now the healthy node.
	hist.Absorb(&cumulative.Snapshot{C: cfg.C, P: cfg.P, Runs: 1, Sites: []site.ID{siteUp}})
	if err := sink.Commit(ctx, ev); err == nil {
		t.Fatal("commit with a pending piece outstanding must still report it")
	}
	// The healthy partition got the new key's evidence but NOT the run
	// counters: those overlap the pending piece and must stay held until
	// it clears — delivering them here is the double count.
	if got := up.Store().Runs(); got != 0 {
		t.Fatalf("healthy partition absorbed %d run(s) while the counter piece was pending", got)
	}
	if got := up.Store().Sites(); got == 0 {
		t.Fatal("healthy partition missing the new key's evidence")
	}

	// Recovery: the pending counter piece finally lands, then the held
	// counter movement streams.
	downSW.set(down.Handler())
	if err := sink.Commit(ctx, ev); err != nil {
		t.Fatalf("commit after recovery: %v", err)
	}
	if err := sink.Commit(ctx, ev); err != nil {
		t.Fatalf("final drain commit: %v", err)
	}

	total := up.Store().Runs() + down.Store().Runs()
	if total != int64(hist.Runs) {
		t.Fatalf("cluster-wide runs = %d, history recorded %d (counters double-counted or lost)", total, hist.Runs)
	}
	// No partition may ever have seen a negative run count (the
	// signature of an over-advanced watermark "correcting" itself).
	if up.Store().Runs() < 0 || down.Store().Runs() < 0 {
		t.Fatalf("negative run counters on a partition: up=%d down=%d", up.Store().Runs(), down.Store().Runs())
	}
	if d := hist.UploadDelta(); !cumulative.DeltaEmpty(d) {
		t.Fatalf("watermark incomplete after full delivery: %+v", d)
	}
}

// TestCoordinatorSnapshotRestart: a coordinator restored from its
// snapshot carries its merged history and journal cursors across the
// restart — totals and patches identical before any poll, no
// double-count and no forced resync after polling resumes, and new
// evidence keeps flowing incrementally.
func TestCoordinatorSnapshotRestart(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	ctx := context.Background()
	cfg := cumulative.DefaultConfig()

	var partURLs []string
	for i := 0; i < 2; i++ {
		srv := fleet.NewServer(fleet.ServerOptions{Config: cfg, CorrectEvery: -1})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		partURLs = append(partURLs, ts.URL)
	}
	router, err := NewRouter("c1", partURLs...)
	if err != nil {
		t.Fatal(err)
	}

	coord, err := NewCoordinator(CoordinatorOptions{Partitions: partURLs, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 30; i++ {
		if err := pushRouted(ctx, router, testBatch(rng)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := coord.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	wantRuns := coord.Status().Runs
	wantPatches := canonicalPatchBytes(t, coord.PatchLog())
	if wantRuns == 0 || len(wantPatches) == 0 {
		t.Fatalf("bad pre-restart state: %+v", coord.Status())
	}

	snap := filepath.Join(t.TempDir(), "coord.snap")
	if err := coord.SaveSnapshot(snap); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh coordinator over the same partitions restores
	// the snapshot. Merged history and patch log are rebuilt from the
	// persisted mirrors before any partition is polled.
	coord2, err := NewCoordinator(CoordinatorOptions{Partitions: partURLs, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord2.LoadSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if got := coord2.Status().Runs; got != wantRuns {
		t.Fatalf("restored runs = %d, want %d", got, wantRuns)
	}
	if got := canonicalPatchBytes(t, coord2.PatchLog()); !bytes.Equal(got, wantPatches) {
		t.Fatal("restored patch set differs")
	}

	// Polling resumes from the persisted cursors: the live partitions
	// answer with empty deltas — no resync, no double count.
	for round := 0; round < 3; round++ {
		if _, err := coord2.Sync(ctx); err != nil {
			t.Fatalf("post-restore sync %d: %v", round, err)
		}
	}
	st := coord2.Status()
	if st.Runs != wantRuns {
		t.Fatalf("post-restore poll double-counted: runs %d, want %d", st.Runs, wantRuns)
	}
	if st.Resyncs != 0 {
		t.Fatalf("restored cursors forced %d full resync(s); deltas should have sufficed", st.Resyncs)
	}
	if got := canonicalPatchBytes(t, coord2.PatchLog()); !bytes.Equal(got, wantPatches) {
		t.Fatal("post-restore poll changed the patch set")
	}

	// New evidence still flows incrementally through the restored cursors.
	for i := 0; i < 5; i++ {
		if err := pushRouted(ctx, router, testBatch(rng)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := coord2.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if got := coord2.Status().Runs; got != wantRuns+5*3 {
		t.Fatalf("post-restore evidence lost or duplicated: runs %d, want %d", got, wantRuns+5*3)
	}
}
