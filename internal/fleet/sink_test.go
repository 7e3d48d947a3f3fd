package fleet_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"exterminator/internal/cluster"
	"exterminator/internal/cumulative"
	"exterminator/internal/engine"
	"exterminator/internal/fleet"
	"exterminator/internal/patch"
	"exterminator/internal/site"
	"exterminator/internal/testutil"
)

// The tests in this file drive cluster.Sink — the one engine sink for the
// fleet — against a single fleetd, the one-partition ring `exterminate
// -fleet URL` builds: cluster.NewSink(url, id, url).

// singleFleetdSink returns a sink uploading to, and fetching from, the
// fleetd at url.
func singleFleetdSink(t *testing.T, url, id string) *cluster.Sink {
	t.Helper()
	sink, err := cluster.NewSink(url, id, url)
	if err != nil {
		t.Fatal(err)
	}
	return sink
}

// overflowSnapshot is runs runs of evidence: one innocent overflow
// observation per site.
func overflowSnapshot(runs int, sites ...site.ID) *cumulative.Snapshot {
	s := &cumulative.Snapshot{C: 4, P: 0.5, Runs: runs}
	for _, id := range sites {
		s.Sites = append(s.Sites, id)
		s.Overflow = append(s.Overflow, cumulative.SiteObservations{
			Site: id,
			Obs:  []cumulative.Observation{{X: 0.25, Y: false}},
		})
	}
	return s
}

// reportsSeen is the fleetd's bug-report count, read from GET /v1/status.
func reportsSeen(t *testing.T, url string) int64 {
	t.Helper()
	st, err := fleet.NewClient(url, "probe").Status()
	if err != nil {
		t.Fatal(err)
	}
	return st.Reports
}

// TestSinkFetchAndCommit drives the sink contract against a single
// fleetd: FetchPatches downloads the fleet's current set (the membership
// refresh riding it gets a 404 there and is ignored), Commit uploads
// observation history and reports newly derived patches.
func TestSinkFetchAndCommit(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	srv := fleet.NewServer(fleet.ServerOptions{CorrectEvery: 0})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Seed the fleet's patch log so the fetch has something to return.
	seeded := patch.New()
	seeded.AddPad(site.ID(0xF00), 48)
	srv.PatchLog().Fold(seeded)

	sink := singleFleetdSink(t, ts.URL, "sink-test")
	ctx := context.Background()

	ps, err := sink.FetchPatches(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Pad(site.ID(0xF00)) != 48 {
		t.Fatalf("fetched set missing seeded pad: %s", ps)
	}
	if entries, version := sink.Fetched(); entries != 1 || version == 0 {
		t.Fatalf("fetch bookkeeping: entries=%d version=%d", entries, version)
	}

	// Commit: a cumulative history plus one newly derived entry.
	hist := cumulative.NewHistory(cumulative.DefaultConfig())
	hist.Absorb(overflowSnapshot(3, 0x100, 0x101))
	derived := patch.New()
	derived.AddPad(site.ID(0xD0D0), 16)
	ev := &engine.Evidence{
		Workload: "sink-test",
		Mode:     engine.ModeCumulative,
		History:  hist,
		Derived:  derived,
	}
	if err := sink.Commit(ctx, ev); err != nil {
		t.Fatal(err)
	}
	if reply := sink.LastIngest(); reply == nil || reply.Runs != int64(hist.Runs) {
		t.Fatalf("ingest reply: %+v", sink.LastIngest())
	}
	if got := srv.Store().Runs(); got != int64(hist.Runs) {
		t.Fatalf("server runs: %d, want %d", got, hist.Runs)
	}
	if got := reportsSeen(t, ts.URL); got != 1 {
		t.Fatalf("derived-patch report not uploaded: %d retained", got)
	}
}

// TestSinkCommitSkipsEmptyEvidence: nothing is uploaded for a session
// with no history and no derived patches (e.g. a clean iterative run).
func TestSinkCommitSkipsEmptyEvidence(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	srv := fleet.NewServer(fleet.ServerOptions{CorrectEvery: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	sink := singleFleetdSink(t, ts.URL, "quiet")
	ev := &engine.Evidence{Workload: "quiet", Mode: engine.ModeIterative, Derived: patch.New()}
	if err := sink.Commit(context.Background(), ev); err != nil {
		t.Fatal(err)
	}
	if srv.Store().Batches() != 0 || reportsSeen(t, ts.URL) != 0 {
		t.Fatal("empty evidence produced uploads")
	}
}

// TestSinkUploadsDeltaOnly is the -resume-history + -fleet dedup test at
// the sink level: committing the same history twice must not double the
// server's evidence.
func TestSinkUploadsDeltaOnly(t *testing.T) {
	srv := fleet.NewServer(fleet.ServerOptions{CorrectEvery: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	hist := cumulative.NewHistory(cumulative.DefaultConfig())
	hist.Absorb(overflowSnapshot(2, 0x42))

	sink := singleFleetdSink(t, ts.URL, "dedup")
	ev := &engine.Evidence{History: hist}
	if err := sink.Commit(context.Background(), ev); err != nil {
		t.Fatal(err)
	}
	if got := srv.Store().Runs(); got != 2 {
		t.Fatalf("first commit: runs = %d, want 2", got)
	}

	// Second commit with nothing new: nothing uploaded.
	if err := sink.Commit(context.Background(), ev); err != nil {
		t.Fatal(err)
	}
	if got := srv.Store().Runs(); got != 2 {
		t.Fatalf("re-commit double-counted: runs = %d, want 2", got)
	}
	if got := srv.Store().Batches(); got != 1 {
		t.Fatalf("re-commit sent a batch: %d", got)
	}

	// New evidence: only the delta goes up.
	hist.Absorb(overflowSnapshot(2, 0x43))
	if err := sink.Commit(context.Background(), ev); err != nil {
		t.Fatal(err)
	}
	if got := srv.Store().Runs(); got != 4 {
		t.Fatalf("delta commit: runs = %d, want 4", got)
	}
}

// lossyAck wraps a handler: while lossy, requests are fully processed
// (the server absorbs the batch) but the client receives a 500 — the
// lost-ack failure mode exactly-once ingest exists for.
type lossyAck struct {
	mu    sync.Mutex
	lossy bool
	inner http.Handler
}

func (l *lossyAck) set(lossy bool) {
	l.mu.Lock()
	l.lossy = lossy
	l.mu.Unlock()
}

func (l *lossyAck) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	l.mu.Lock()
	lossy := l.lossy
	l.mu.Unlock()
	if !lossy {
		l.inner.ServeHTTP(w, r)
		return
	}
	rec := httptest.NewRecorder()
	l.inner.ServeHTTP(rec, r)
	http.Error(w, "ack lost", http.StatusInternalServerError)
}

// TestSinkExactlyOnceAfterLostAck: the sink's first upload is absorbed
// but the ack is lost; the retried commit re-sends the identical piece,
// the server dedups it, and the fleet counts the evidence exactly once.
func TestSinkExactlyOnceAfterLostAck(t *testing.T) {
	srv := fleet.NewServer(fleet.ServerOptions{CorrectEvery: -1})
	la := &lossyAck{inner: srv.Handler(), lossy: true}
	ts := httptest.NewServer(la)
	defer ts.Close()

	sink := singleFleetdSink(t, ts.URL, "lossy")
	hist := cumulative.NewHistory(cumulative.DefaultConfig())
	hist.Absorb(overflowSnapshot(4, 0x500, 0x501))
	ev := &engine.Evidence{History: hist}

	if err := sink.Commit(context.Background(), ev); err == nil {
		t.Fatal("commit with a lost ack must report the failure")
	}
	if got := srv.Store().Runs(); got != 4 {
		t.Fatalf("server should have absorbed the batch despite the lost ack: runs = %d", got)
	}
	// The watermark must NOT have advanced: the sink has no proof of
	// delivery, so the evidence stays pending.
	if d := hist.UploadDelta(); cumulative.DeltaEmpty(d) {
		t.Fatal("watermark advanced on an unacknowledged upload")
	}

	la.set(false)
	if err := sink.Commit(context.Background(), ev); err != nil {
		t.Fatalf("retry commit: %v", err)
	}
	if got := srv.Store().Runs(); got != 4 {
		t.Fatalf("lost-ack retry double-counted: runs = %d, want 4", got)
	}
	if got := srv.Store().Batches(); got != 1 {
		t.Fatalf("batches = %d, want 1 (retry deduped, not re-absorbed)", got)
	}
	if d := hist.UploadDelta(); !cumulative.DeltaEmpty(d) {
		t.Fatalf("watermark incomplete after acknowledged retry: %+v", d)
	}

	// New evidence after the recovery flows as a fresh batch.
	hist.Absorb(overflowSnapshot(1, 0x502))
	if err := sink.Commit(context.Background(), ev); err != nil {
		t.Fatal(err)
	}
	if got := srv.Store().Runs(); got != 5 {
		t.Fatalf("follow-up delta lost: runs = %d, want 5", got)
	}
}

// TestSinkFreshHistoriesUnderOneIDBothCount is the batch-ID collision
// regression on a single fleetd: two fresh sessions of one installation
// id cut the same first delta — watermark position (0, 0), identical
// content. Their histories' lineages differ, so their batch IDs differ,
// and the server absorbs both. Without the lineage the second upload
// would be acknowledged as a duplicate of the first and its runs lost.
// TestClusterSinkFreshHistoriesUnderOneIDBothCount covers the sharded
// ring.
func TestSinkFreshHistoriesUnderOneIDBothCount(t *testing.T) {
	// The subtest is named for the wire the uploads ride.
	t.Run("v2", func(t *testing.T) {
		srv := fleet.NewServer(fleet.ServerOptions{CorrectEvery: -1})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		for session := 0; session < 2; session++ {
			hist := cumulative.NewHistory(cumulative.DefaultConfig())
			hist.Absorb(overflowSnapshot(3, 0x600, 0x601))
			sink := singleFleetdSink(t, ts.URL, "install-1")
			if err := sink.Commit(context.Background(), &engine.Evidence{History: hist}); err != nil {
				t.Fatal(err)
			}
		}
		if got := srv.Store().Runs(); got != 6 {
			t.Fatalf("runs = %d, want 6: the second session's upload was deduped against the first", got)
		}
	})
}
