package fleet

import (
	"context"
	"net/http/httptest"
	"testing"

	"exterminator/internal/cumulative"
	"exterminator/internal/engine"
	"exterminator/internal/patch"
	"exterminator/internal/site"
	"exterminator/internal/testutil"
)

// TestSinkFetchAndCommit drives the fleet client through the engine
// sink contract: FetchPatches downloads the fleet's current set, Commit
// uploads observation history and reports newly derived patches.
func TestSinkFetchAndCommit(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	srv := NewServer(ServerOptions{CorrectEvery: 0})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Seed the fleet's patch log so the fetch has something to return.
	seeded := patch.New()
	seeded.AddPad(site.ID(0xF00), 48)
	srv.PatchLog().Fold(seeded)

	sink := NewSink(NewClient(ts.URL, "sink-test"))
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
	hist.Absorb(testBatches(1)[0])
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
	if srv.reports.Seen() != 1 {
		t.Fatalf("derived-patch report not uploaded: %d retained", srv.reports.Seen())
	}
}

// TestSinkCommitSkipsEmptyEvidence: nothing is uploaded for a session
// with no history and no derived patches (e.g. a clean iterative run).
func TestSinkCommitSkipsEmptyEvidence(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	srv := NewServer(ServerOptions{CorrectEvery: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	sink := NewSink(NewClient(ts.URL, "quiet"))
	ev := &engine.Evidence{Workload: "quiet", Mode: engine.ModeIterative, Derived: patch.New()}
	if err := sink.Commit(context.Background(), ev); err != nil {
		t.Fatal(err)
	}
	if srv.Store().Batches() != 0 || srv.reports.Seen() != 0 {
		t.Fatal("empty evidence produced uploads")
	}
}
