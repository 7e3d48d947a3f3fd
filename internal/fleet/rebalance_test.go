package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"exterminator/internal/cumulative"
	"exterminator/internal/fleet/codec"
	"exterminator/internal/site"
	"exterminator/internal/triage"
)

// rebalanceTestSnapshot builds a small batch with deterministic keys.
func rebalanceTestSnapshot(salt int) *cumulative.Snapshot {
	s := &cumulative.Snapshot{C: 4, P: 0.5, Runs: 2, FailedRuns: 1, CorruptRuns: 1}
	for i := 0; i < 6; i++ {
		id := site.ID(0x4000 + uint32(salt*16+i))
		s.Sites = append(s.Sites, id)
		s.Overflow = append(s.Overflow, cumulative.SiteObservations{
			Site: id,
			Obs:  []cumulative.Observation{{X: 0.25, Y: i%2 == 0}},
		})
	}
	s.PadHints = append(s.PadHints, cumulative.PadHint{Site: s.Sites[0], Pad: uint32(8 + salt)})
	s.Dangling = append(s.Dangling, cumulative.PairObservations{
		Alloc: s.Sites[1], Free: site.ID(0x9000),
		Obs: []cumulative.Observation{{X: 0.5, Y: true}},
	})
	s.DeferralHints = append(s.DeferralHints, cumulative.DeferralHint{
		Alloc: s.Sites[1], Free: site.ID(0x9000), Deferral: 64,
	})
	return s
}

// TestStaleRingRejectionOrdering pins the ingest decision order that
// makes rebalancing safe: (1) a duplicate of a batch absorbed before the
// membership bump acks as Duplicate — rejecting it as stale would make
// the client re-split and double-deliver evidence the drain already
// moved; (2) a NEW batch under the old ring is rejected with 409 +
// StaleRing and not absorbed; (3) the requirement never regresses; (4)
// unversioned batches are always accepted.
func TestStaleRingRejectionOrdering(t *testing.T) {
	ctx := context.Background()
	srv := NewServer(ServerOptions{CorrectEvery: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := NewClient(ts.URL, "c1")

	first := &codec.Batch{Snapshot: rebalanceTestSnapshot(1), BatchID: "batch-1", RingVersion: 1}
	if _, err := c.PushBatchContext(ctx, first); err != nil {
		t.Fatalf("versioned push with no requirement set: %v", err)
	}
	if got := srv.Store().Batches(); got != 1 {
		t.Fatalf("batches = %d, want 1", got)
	}

	reply, err := c.AnnounceRing(ctx, 2)
	if err != nil || reply.Version != 2 {
		t.Fatalf("announce: %v, %+v", err, reply)
	}

	// Lost-ack retry of the pre-rebalance batch: duplicate, never stale.
	r, err := c.PushBatchContext(ctx, first)
	if err != nil {
		t.Fatalf("retry of pre-rebalance batch: %v", err)
	}
	if !r.Duplicate {
		t.Fatal("pre-rebalance retry was not deduped")
	}
	if got := srv.Store().Batches(); got != 1 {
		t.Fatalf("duplicate was absorbed: batches = %d", got)
	}

	// A fresh batch still split under the old ring bounces.
	staleBatch := &codec.Batch{Snapshot: rebalanceTestSnapshot(2), BatchID: "batch-2", RingVersion: 1}
	_, err = c.PushBatchContext(ctx, staleBatch)
	var sre *StaleRingError
	if !errors.As(err, &sre) {
		t.Fatalf("stale push error = %v, want StaleRingError", err)
	}
	if sre.Required != 2 {
		t.Fatalf("stale error requires v%d, want 2", sre.Required)
	}
	if got := srv.Store().Batches(); got != 1 {
		t.Fatalf("stale batch was absorbed: batches = %d", got)
	}

	// Re-split under the current ring: accepted.
	staleBatch.RingVersion = 2
	if _, err := c.PushBatchContext(ctx, staleBatch); err != nil {
		t.Fatalf("current-ring push: %v", err)
	}

	// The requirement never regresses.
	if reply, err = c.AnnounceRing(ctx, 1); err != nil || reply.Version != 2 {
		t.Fatalf("regressive announce: %v, %+v", err, reply)
	}

	// Unversioned uploads stay accepted.
	if _, err := c.PushBatchContext(ctx, stampedBatch("c1", rebalanceTestSnapshot(3))); err != nil {
		t.Fatalf("unversioned push: %v", err)
	}
	if got := srv.Store().Batches(); got != 3 {
		t.Fatalf("batches = %d, want 3", got)
	}
	st, err := c.Status()
	if err != nil || st.RingVersion != 2 {
		t.Fatalf("status ring version: %v, %+v", err, st)
	}
}

// TestEvictExtractsJournalsAndCaches: POST /v1/evict atomically removes
// and returns a key set's evidence, journals the removal for delta
// pollers (as an ordered op), and replays the original result for a
// repeated token — the crash-re-drive contract.
func TestEvictExtractsJournalsAndCaches(t *testing.T) {
	ctx := context.Background()
	cfg := cumulative.DefaultConfig()
	srv := NewServer(ServerOptions{Config: cfg, CorrectEvery: -1, DisableCorrection: true})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := NewClient(ts.URL, "c1")

	batch := rebalanceTestSnapshot(1)
	if _, err := c.PushBatchContext(ctx, stampedBatch("c1", batch)); err != nil {
		t.Fatal(err)
	}
	// Establish a delta cursor before the eviction.
	d0, err := c.Deltas(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}

	moved := []site.ID{batch.Sites[0], batch.Sites[1]}
	evicted, err := c.EvictKeys(ctx, "tok-1", moved, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(evicted.Overflow); got != 2 {
		t.Fatalf("evicted %d overflow keys, want 2", got)
	}
	if len(evicted.Dangling) != 1 || len(evicted.PadHints) != 1 || len(evicted.DeferralHints) != 1 {
		t.Fatalf("evicted snapshot incomplete: %+v", evicted)
	}
	if got, want := srv.Store().Sites(), len(batch.Sites)-2; got != want {
		t.Fatalf("store sites after evict = %d, want %d", got, want)
	}

	// Same token again — the cached original, even though the store moved on.
	if _, err := c.PushBatchContext(ctx, stampedBatch("c1", rebalanceTestSnapshot(7))); err != nil {
		t.Fatal(err)
	}
	again, err := c.EvictKeys(ctx, "tok-1", nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(evicted, again) {
		t.Fatalf("cached evict result differs:\n%+v\n%+v", evicted, again)
	}

	// Delta pollers see the ordered ops: eviction first, then the later
	// addition — and applying them to a mirror reproduces the store.
	d1, err := c.Deltas(ctx, d0.Seq)
	if err != nil {
		t.Fatal(err)
	}
	if len(d1.Ops) == 0 {
		t.Fatalf("delta after eviction carries no ops: %+v", d1)
	}
	if len(d1.Ops[0].Evict) != 2 {
		t.Fatalf("first op is not the eviction: %+v", d1.Ops[0])
	}
	// Applying the ordered ops to a mirror of the pre-evict state
	// reproduces the store exactly.
	replay := cumulative.NewHistory(cfg)
	replay.Absorb(batch)
	for _, op := range d1.Ops {
		if len(op.Evict) > 0 {
			replay.Extract(op.Evict)
		}
		if op.Snapshot != nil {
			replay.Absorb(op.Snapshot)
		}
	}
	replay.Canonicalize()
	want := srv.Store().Combined()
	want.Canonicalize()
	if !replay.Equal(want) {
		t.Fatalf("mirror replay diverged from store:\n%s\n%s", replay, want)
	}
}

// TestEvictCountersInvalidatesJournal: a counter drain (node leaving the
// cluster) cannot be expressed as a journal op, so it must invalidate
// delta cursors — otherwise a poller replaying the node's journal from
// before the drain re-counts runs whose counters moved to a survivor
// (caught live: a drained-then-re-added partition inflated the
// coordinator's totals by exactly its pre-drain run count).
func TestEvictCountersInvalidatesJournal(t *testing.T) {
	ctx := context.Background()
	cfg := cumulative.DefaultConfig()
	srv := NewServer(ServerOptions{Config: cfg, CorrectEvery: -1, DisableCorrection: true})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := NewClient(ts.URL, "c1")

	batch := rebalanceTestSnapshot(1)
	if _, err := c.PushBatchContext(ctx, stampedBatch("c1", batch)); err != nil {
		t.Fatal(err)
	}
	evicted, err := c.EvictKeys(ctx, "leave-1", srv.Store().Combined().EvidenceKeys(), true)
	if err != nil {
		t.Fatal(err)
	}
	if evicted.Runs != batch.Runs || evicted.FailedRuns != batch.FailedRuns {
		t.Fatalf("counters not drained: %+v", evicted)
	}
	if got := srv.Store().Runs(); got != 0 {
		t.Fatalf("store runs after counter drain = %d", got)
	}

	// A replay-from-zero poll must get a full resync of the post-drain
	// store — never the pre-drain journal entries.
	d, err := c.Deltas(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Full {
		t.Fatalf("cursor 0 after counter drain answered with a delta: %+v", d)
	}
	mirror := cumulative.NewHistory(cfg)
	mirror.Absorb(d.Snapshot)
	if mirror.Runs != 0 {
		t.Fatalf("mirror re-counted drained runs: %d", mirror.Runs)
	}
}

// TestClientHonors429RetryAfter: a rate-limited upload retries after the
// server's Retry-After instead of surfacing an error — the bounded,
// context-aware backoff the sink stack relies on.
func TestClientHonors429RetryAfter(t *testing.T) {
	srv := NewServer(ServerOptions{CorrectEvery: -1, RatePerSec: 5, RateBurst: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := NewClient(ts.URL, "limited")

	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := c.PushBatchContext(ctx, &codec.Batch{
			Snapshot: rebalanceTestSnapshot(i),
			BatchID:  fmt.Sprintf("rl-%d", i),
		}); err != nil {
			t.Fatalf("push %d through rate limit: %v", i, err)
		}
	}
	if got := srv.Store().Batches(); got != 2 {
		t.Fatalf("batches = %d, want 2 (rate-limited upload lost)", got)
	}
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.RateLimited == 0 {
		t.Fatal("server never rate-limited — test exercised nothing")
	}
}

// TestClient429RetryHonorsContext: cancellation aborts the backoff wait
// immediately; a permanently limited server cannot park the client.
func TestClient429RetryHonorsContext(t *testing.T) {
	always429 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "5")
		http.Error(w, "limited", http.StatusTooManyRequests)
	}))
	defer always429.Close()
	c := NewClient(always429.URL, "canceled")

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.PushBatchContext(ctx, stampedBatch("canceled", rebalanceTestSnapshot(0)))
	if err == nil {
		t.Fatal("push against a permanent 429 succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want context deadline", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v — Retry-After wait ignored the context", elapsed)
	}
}

// TestClient429BoundedRetries: the retry budget is finite — a client
// facing a permanent 429 gives up with the rate-limit error rather than
// looping forever.
func TestClient429BoundedRetries(t *testing.T) {
	attempts := 0
	always429 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts++
		w.Header().Set("Retry-After", "0") // parsed as invalid → 1s default; keep waits real but short via header "0"
		http.Error(w, "limited", http.StatusTooManyRequests)
	}))
	defer always429.Close()
	c := NewClient(always429.URL, "bounded")

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err := c.PushBatchContext(ctx, stampedBatch("bounded", rebalanceTestSnapshot(0)))
	if err == nil {
		t.Fatal("push against a permanent 429 succeeded")
	}
	if attempts != maxPushAttempts {
		t.Fatalf("client made %d attempts, want %d", attempts, maxPushAttempts)
	}
}

// TestSnapshotCapturesDedupAtomically: SaveSnapshot captures evidence
// and dedup IDs at one consistent point (under the delta lock), so a
// batch racing the snapshot can no longer be dropped on
// restore-and-retry — restoring any snapshot and re-pushing every batch
// converges to exactly-once evidence.
func TestSnapshotCapturesDedupAtomically(t *testing.T) {
	cfg := cumulative.DefaultConfig()
	srv := NewServer(ServerOptions{Config: cfg, CorrectEvery: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := NewClient(ts.URL, "racer")

	const n = 60
	batches := make([]*codec.Batch, n)
	for i := range batches {
		batches[i] = &codec.Batch{
			Client:   "racer",
			Snapshot: rebalanceTestSnapshot(i),
			BatchID:  fmt.Sprintf("race-%d", i),
		}
	}

	snapPath := filepath.Join(t.TempDir(), "race.snap")
	done := make(chan error, 1)
	go func() {
		for _, b := range batches {
			if _, err := c.PushBatchContext(context.Background(), b); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	// Snapshot concurrently with the ingest stream; keep the last one
	// taken mid-stream.
	for i := 0; i < 50; i++ {
		if err := srv.SaveSnapshot(snapPath); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// Restore the mid-stream snapshot and re-deliver EVERY batch: ones in
	// the snapshot dedup, ones after it absorb — zero drops either way.
	srv2 := NewServer(ServerOptions{Config: cfg, CorrectEvery: -1})
	if err := srv2.LoadSnapshot(snapPath); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	c2 := NewClient(ts2.URL, "racer")
	for _, b := range batches {
		if _, err := c2.PushBatchContext(context.Background(), b); err != nil {
			t.Fatal(err)
		}
	}

	want := cumulative.NewHistory(cfg)
	for _, b := range batches {
		want.Absorb(b.Snapshot)
	}
	want.Canonicalize()
	got := srv2.Store().Combined()
	got.Canonicalize()
	if !got.Equal(want) {
		t.Fatalf("restore+retry diverged from exactly-once:\ngot  %s\nwant %s", got, want)
	}
}

// TestSnapshotRoundTripsRingVersionAndEvictCache: the v2 container
// carries the ring requirement and the evict cache across restarts, so
// a restarted partition keeps rejecting stale writers and a re-driving
// coordinator still finds its drained evidence.
func TestSnapshotRoundTripsRingVersionAndEvictCache(t *testing.T) {
	ctx := context.Background()
	srv := NewServer(ServerOptions{CorrectEvery: -1, DisableCorrection: true})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := NewClient(ts.URL, "c1")

	batch := rebalanceTestSnapshot(1)
	if _, err := c.PushBatchContext(ctx, stampedBatch("c1", batch)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AnnounceRing(ctx, 3); err != nil {
		t.Fatal(err)
	}
	evicted, err := c.EvictKeys(ctx, "tok-9", []site.ID{batch.Sites[0]}, false)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "part.snap")
	if err := srv.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer(ServerOptions{CorrectEvery: -1, DisableCorrection: true})
	if err := srv2.LoadSnapshot(path); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	c2 := NewClient(ts2.URL, "c1")

	// Stale writers still bounce after the restart.
	_, err = c2.PushBatchContext(ctx, &codec.Batch{Snapshot: rebalanceTestSnapshot(2), BatchID: "batch-2", RingVersion: 2})
	var sre *StaleRingError
	if !errors.As(err, &sre) || sre.Required != 3 {
		t.Fatalf("restored server did not enforce ring version: %v", err)
	}
	// The drained evidence is still replayable by token.
	again, err := c2.EvictKeys(ctx, "tok-9", nil, false)
	if err != nil {
		t.Fatalf("restored server lost the evict cache: %v", err)
	}
	if !reflect.DeepEqual(evicted, again) {
		t.Fatal("restored evict cache returned different evidence")
	}
}

// TestEvictRetriagesFromScratch: drained evidence keys leave the
// evidence store, so a server that runs triage makes its next pass a
// full one. The drained keys' clusters leave the ranking, which then
// matches a server that never held them. A drain that removes no
// evidence key leaves the next pass incremental.
func TestEvictRetriagesFromScratch(t *testing.T) {
	batches := testBatches(6)
	drained := []site.ID{guiltySite, guiltyAlloc}
	build := func() *Server {
		srv := NewServer(ServerOptions{CorrectEvery: -1})
		for _, b := range batches {
			srv.Store().AbsorbSnapshot(b)
		}
		return srv
	}
	srv := build()
	srv.Correct()
	srv.Evict("drain-0", []site.ID{0xFEED}, false)
	if srv.corrector.full.Load() {
		t.Fatal("a drain that removed no evidence key forced a full pass")
	}
	srv.Evict("drain-1", drained, false)
	if !srv.corrector.full.Load() {
		t.Fatal("a drain that removed evidence keys left the next pass incremental")
	}
	srv.Correct()

	fresh := build()
	fresh.Store().Extract(drained)
	fresh.Correct()

	type row struct {
		id          string
		occurrences int
		pooled      float64
	}
	rows := func(s *Server) []row {
		var out []row
		for _, c := range s.Triage().Rankings(0, triage.MaxPageSize).Clusters {
			out = append(out, row{c.ID, c.Occurrences, c.PooledBayes})
		}
		return out
	}
	got, want := rows(srv), rows(fresh)
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("ranking after evict = %v, want %v", got, want)
	}
}
