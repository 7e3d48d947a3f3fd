package fleet

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"exterminator/internal/cumulative"
	"exterminator/internal/fleet/codec"
	"exterminator/internal/site"
)

func evidenceBatch(id site.ID) *cumulative.Snapshot {
	return &cumulative.Snapshot{C: 4, P: 0.5, Runs: 2, CorruptRuns: 1,
		Sites: []site.ID{id},
		Overflow: []cumulative.SiteObservations{
			{Site: id, Obs: []cumulative.Observation{{X: 0.2, Y: true}}},
		},
		PadHints: []cumulative.PadHint{{Site: id, Pad: 8}},
	}
}

func TestIngestTokenAuth(t *testing.T) {
	srv := NewServer(ServerOptions{Token: "sekrit", CorrectEvery: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// No token: writes rejected, reads still open.
	anon := NewClient(ts.URL, "anon")
	if _, err := anon.PushBatchContext(context.Background(), stampedBatch("anon", evidenceBatch(0x1))); err == nil {
		t.Fatal("unauthenticated push accepted")
	}
	if _, _, err := anon.Patches(0); err != nil {
		t.Fatalf("unauthenticated patch poll rejected: %v", err)
	}

	// Wrong token.
	wrong := NewClient(ts.URL, "wrong")
	wrong.SetToken("not-it")
	if _, err := wrong.PushBatchContext(context.Background(), stampedBatch("wrong", evidenceBatch(0x1))); err == nil {
		t.Fatal("wrong token accepted")
	}

	// Right token.
	ok := NewClient(ts.URL, "ok")
	ok.SetToken("sekrit")
	if _, err := ok.PushBatchContext(context.Background(), stampedBatch("ok", evidenceBatch(0x1))); err != nil {
		t.Fatalf("authenticated push rejected: %v", err)
	}
	if srv.Store().Runs() != 2 {
		t.Fatalf("store runs = %d, want 2", srv.Store().Runs())
	}
}

// TestIngestRejectsNonProbabilityX: an upload whose observation X is not
// a finite number in [0, 1] is answered 400 and absorbs nothing — the
// store's totals and the evidence journal stay where a good upload left
// them.
func TestIngestRejectsNonProbabilityX(t *testing.T) {
	srv := NewServer(ServerOptions{CorrectEvery: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if _, err := NewClient(ts.URL, "good").PushBatchContext(context.Background(), stampedBatch("good", evidenceBatch(0x1))); err != nil {
		t.Fatal(err)
	}
	runs, sites, batches, seq := srv.Store().Runs(), srv.Store().Sites(), srv.Store().Batches(), srv.journal.seqNow()

	for i, x := range []float64{math.NaN(), 7, -3, math.Inf(1)} {
		s := evidenceBatch(site.ID(0x100 + i))
		s.Overflow[0].Obs = append(s.Overflow[0].Obs, cumulative.Observation{X: x, Y: true})
		resp, err := http.Post(ts.URL+"/v1/observations", codec.ContentTypeV2, bytes.NewReader(frame(stampedBatch("bad", s))))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("X=%v: ingest answered %d, want 400", x, resp.StatusCode)
		}
	}
	if srv.Store().Runs() != runs || srv.Store().Sites() != sites || srv.Store().Batches() != batches || srv.journal.seqNow() != seq {
		t.Fatalf("rejected uploads changed the store or journal: runs %d→%d, sites %d→%d, batches %d→%d, journal seq %d→%d",
			runs, srv.Store().Runs(), sites, srv.Store().Sites(), batches, srv.Store().Batches(), seq, srv.journal.seqNow())
	}
}

func TestIngestRateLimit(t *testing.T) {
	srv := NewServer(ServerOptions{RatePerSec: 1, RateBurst: 2, CorrectEvery: -1})
	handler := srv.Handler()

	posts := uint64(0)
	post := func(remote string) *httptest.ResponseRecorder {
		posts++
		body := frame(lineageBatch("rl", posts, &cumulative.Snapshot{C: 4, P: 0.5, Runs: 1}))
		req := httptest.NewRequest(http.MethodPost, "/v1/observations", bytes.NewReader(body))
		req.RemoteAddr = remote
		req.Header.Set("Content-Type", codec.ContentTypeV2)
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		return rec
	}

	if rec := post("10.0.0.9:4242"); rec.Code != http.StatusOK {
		t.Fatalf("first request: %d %s", rec.Code, rec.Body)
	}
	if rec := post("10.0.0.9:4242"); rec.Code != http.StatusOK {
		t.Fatalf("second request (burst): %d %s", rec.Code, rec.Body)
	}
	rec := post("10.0.0.9:4242")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("third request = %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// A different client is not throttled by the first one's bucket.
	if other := post("10.0.0.10:4242"); other.Code != http.StatusOK {
		t.Fatalf("independent client throttled: %d", other.Code)
	}
}

func TestRateLimiterRefills(t *testing.T) {
	l := newRateLimiter(10, 1)
	now := time.Unix(100, 0)
	if ok, _ := l.allow("h", now); !ok {
		t.Fatal("first token denied")
	}
	ok, wait := l.allow("h", now)
	if ok {
		t.Fatal("empty bucket allowed")
	}
	if wait <= 0 || wait > time.Second {
		t.Fatalf("wait = %v", wait)
	}
	if ok, _ := l.allow("h", now.Add(200*time.Millisecond)); !ok {
		t.Fatal("bucket did not refill")
	}
}

func TestDeltasEndpoint(t *testing.T) {
	srv := NewServer(ServerOptions{CorrectEvery: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := NewClient(ts.URL, "d")
	ctx := context.Background()

	// Empty server: empty delta at seq 0.
	d, err := c.Deltas(ctx, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Seq != 0 || d.Full || len(d.Ops) != 0 {
		t.Fatalf("empty server delta: %+v", d)
	}

	if _, err := c.PushBatchContext(ctx, stampedBatch("d", evidenceBatch(0x10))); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PushBatchContext(ctx, stampedBatch("d", evidenceBatch(0x20))); err != nil {
		t.Fatal(err)
	}

	// Delta from 0 carries both batches, one op each.
	d, err = c.Deltas(ctx, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Seq != 2 || d.Full || len(d.Ops) != 2 {
		t.Fatalf("delta since 0: %+v", d)
	}
	runs, overflow := 0, 0
	for _, op := range d.Ops {
		runs += op.Snapshot.Runs
		overflow += len(op.Snapshot.Overflow)
	}
	if runs != 4 || overflow != 2 {
		t.Fatalf("delta content: runs=%d overflow=%d", runs, overflow)
	}

	// Caught-up cursor: empty delta.
	d, err = c.Deltas(ctx, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Seq != 2 || len(d.Ops) != 0 {
		t.Fatalf("caught-up delta: %+v", d)
	}

	// Cursor from another incarnation (ahead of seq): full resync.
	d, err = c.Deltas(ctx, 99, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s := resyncSnapshot(t, d); d.Seq != 2 || s.Runs != 4 {
		t.Fatalf("stale-cursor delta: %+v", d)
	}
}

// resyncSnapshot returns the store snapshot a Full delta carries as its
// one op, failing the test unless d is such a resync.
func resyncSnapshot(t *testing.T, d *codec.Delta) *cumulative.Snapshot {
	t.Helper()
	if !d.Full || len(d.Ops) != 1 || d.Ops[0].Snapshot == nil {
		t.Fatalf("want a full resync carrying one snapshot op, got %+v", d)
	}
	return d.Ops[0].Snapshot
}

// TestDeltasAnswerAnotherEpochWithResync: the poll carries the epoch its
// cursor came from, and a cursor of another incarnation is answered with
// a resync even when it lies inside this journal's window, so the
// partition alone decides a resync. Epoch 0, or no epoch, reads the
// cursor against this journal; a malformed epoch is a 400.
func TestDeltasAnswerAnotherEpochWithResync(t *testing.T) {
	srv := NewServer(ServerOptions{CorrectEvery: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := NewClient(ts.URL, "x")
	ctx := context.Background()
	for _, id := range []site.ID{0x10, 0x20, 0x30} {
		if _, err := c.PushBatchContext(ctx, stampedBatch("x", evidenceBatch(id))); err != nil {
			t.Fatal(err)
		}
	}
	poll := func(query string) (*codec.Delta, int) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/deltas?" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, resp.StatusCode
		}
		data, err := readBody(resp, "delta")
		if err != nil {
			t.Fatal(err)
		}
		d, err := codec.DecodeDelta(data)
		if err != nil {
			t.Fatalf("?%s: %v", query, err)
		}
		return d, resp.StatusCode
	}

	d, _ := poll("since=0")
	epoch := d.Epoch
	if d.Full || len(d.Ops) != 3 || epoch == 0 {
		t.Fatalf("poll from 0 with no epoch: %+v", d)
	}
	for _, q := range []string{"since=1&epoch=0", fmt.Sprintf("since=1&epoch=%d", epoch)} {
		if d, _ := poll(q); d.Full || len(d.Ops) != 2 || d.Seq != 3 {
			t.Fatalf("?%s: %+v", q, d)
		}
	}

	d, _ = poll(fmt.Sprintf("since=1&epoch=%d", epoch+1))
	if s := resyncSnapshot(t, d); d.Seq != 3 || d.Epoch != epoch || s.Runs != 6 || len(s.Overflow) != 3 {
		t.Fatalf("another epoch's in-window cursor: %+v", d)
	}

	for _, q := range []string{"since=1&epoch=x", "since=1&epoch=-1", "since=x&epoch=1"} {
		if _, status := poll(q); status != http.StatusBadRequest {
			t.Errorf("?%s: status %d, want 400", q, status)
		}
	}
}

// sharedKeyBatch is batch i of a series that all carry sites 0x10 and
// 0x11 and the pair (0x10, 0x90), each batch with its own observations
// and hints.
func sharedKeyBatch(i int) *cumulative.Snapshot {
	x := 0.1 * float64(i+1)
	return &cumulative.Snapshot{C: 4, P: 0.5, Runs: 2, FailedRuns: 1, CorruptRuns: 1,
		Sites: []site.ID{0x10, 0x11},
		Overflow: []cumulative.SiteObservations{
			{Site: 0x10, Obs: []cumulative.Observation{{X: x, Y: true}, {X: x / 2, Y: false}}},
			{Site: 0x11, Obs: []cumulative.Observation{{X: x, Y: false}}},
		},
		Dangling:      []cumulative.PairObservations{{Alloc: 0x10, Free: 0x90, Obs: []cumulative.Observation{{X: x, Y: i%2 == 0}}}},
		PadHints:      []cumulative.PadHint{{Site: 0x10, Pad: uint32(8 * (i + 1))}},
		DeferralHints: []cumulative.DeferralHint{{Alloc: 0x10, Free: 0x90, Deferral: uint64(16 * (4 - i))}},
	}
}

// TestDeltasAnswerOneOpPerBatchInJournalOrder: a delta window answers
// each journaled batch as one op, its groups and hints as the batch
// carried them, in journal order; keys the batches share are not merged.
// A history fed the delta holds what one fed the batches holds.
func TestDeltasAnswerOneOpPerBatchInJournalOrder(t *testing.T) {
	srv := NewServer(ServerOptions{CorrectEvery: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := NewClient(ts.URL, "j")
	ctx := context.Background()

	fed := cumulative.NewHistory(cumulative.DefaultConfig())
	var want []codec.DeltaOp
	for i := 0; i < 3; i++ {
		b := sharedKeyBatch(i)
		if _, err := c.PushBatchContext(ctx, stampedBatch("j", b)); err != nil {
			t.Fatal(err)
		}
		want = append(want, codec.DeltaOp{Snapshot: b})
		fed.Absorb(b)
	}
	d, err := c.Deltas(ctx, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Full || d.Seq != 3 {
		t.Fatalf("delta since 0: %+v", d)
	}
	if !reflect.DeepEqual(d.Ops, want) {
		t.Fatalf("delta ops\n got  %+v\n want %+v", d.Ops, want)
	}

	mirror := cumulative.NewHistory(cumulative.DefaultConfig())
	for _, op := range d.Ops {
		mirror.Absorb(op.Snapshot)
	}
	mirror.Canonicalize()
	fed.Canonicalize()
	if !mirror.Equal(fed) {
		t.Fatalf("history fed the delta diverged from one fed the batches:\n%s\n%s", mirror, fed)
	}
}

// TestDeltasEvictionSplitsConcatenatedWindow: an eviction inside a
// window is one op between the batches journaled before and after it,
// so the delta is the ordered ops [b0, b1, eviction, b2, b3], and
// replaying them from an empty mirror reproduces the store.
func TestDeltasEvictionSplitsConcatenatedWindow(t *testing.T) {
	srv := NewServer(ServerOptions{CorrectEvery: -1, DisableCorrection: true})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := NewClient(ts.URL, "e")
	ctx := context.Background()

	push := func(b *cumulative.Snapshot) {
		t.Helper()
		if _, err := c.PushBatchContext(ctx, stampedBatch("e", b)); err != nil {
			t.Fatal(err)
		}
	}
	b0, b1, b2, b3 := sharedKeyBatch(0), sharedKeyBatch(1), sharedKeyBatch(2), sharedKeyBatch(3)
	push(b0)
	push(b1)
	if _, cached := srv.Evict("drain-0x10", []site.ID{0x10}, false); cached {
		t.Fatal("first drain answered from the evict cache")
	}
	push(b2)
	push(b3)

	d, err := c.Deltas(ctx, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []codec.DeltaOp{
		{Snapshot: b0},
		{Snapshot: b1},
		{Evict: []site.ID{0x10}},
		{Snapshot: b2},
		{Snapshot: b3},
	}
	if d.Full || !reflect.DeepEqual(d.Ops, want) {
		t.Fatalf("delta ops\n got  %+v\n want %+v", d.Ops, want)
	}

	replay := cumulative.NewHistory(cumulative.DefaultConfig())
	for _, op := range d.Ops {
		if len(op.Evict) > 0 {
			replay.Extract(op.Evict)
		}
		replay.Absorb(op.Snapshot)
	}
	replay.Canonicalize()
	store := srv.Store().Combined()
	store.Canonicalize()
	if !replay.Equal(store) {
		t.Fatalf("mirror replay diverged from the store:\n%s\n%s", replay, store)
	}
}

func TestDeltasJournalWindowFallsBackToFull(t *testing.T) {
	srv := NewServer(ServerOptions{CorrectEvery: -1, JournalLen: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := NewClient(ts.URL, "w")
	ctx := context.Background()

	for i := 0; i < 10; i++ {
		if _, err := c.PushBatchContext(ctx, stampedBatch("w", evidenceBatch(site.ID(0x100+uint32(i))))); err != nil {
			t.Fatal(err)
		}
	}
	d, err := c.Deltas(ctx, 1, 0) // long fallen off the 4-batch window
	if err != nil {
		t.Fatal(err)
	}
	if !d.Full || d.Seq != 10 {
		t.Fatalf("want full resync at seq 10, got %+v", d)
	}
	if s := resyncSnapshot(t, d); s.Runs != 20 {
		t.Fatalf("full resync runs = %d, want 20", s.Runs)
	}
}

// TestDeltasSeeSnapshotRestoredEvidence: evidence restored from a
// snapshot never went through the journal, so delta polls — including
// since=0 from a brand-new poller — must be answered with a Full store
// snapshot, not a journal-only delta that silently misses it.
func TestDeltasSeeSnapshotRestoredEvidence(t *testing.T) {
	old := NewServer(ServerOptions{CorrectEvery: -1})
	oldTS := httptest.NewServer(old.Handler())
	c := NewClient(oldTS.URL, "r")
	ctx := context.Background()
	if _, err := c.PushBatchContext(ctx, stampedBatch("r", evidenceBatch(0x77))); err != nil {
		t.Fatal(err)
	}
	snap := t.TempDir() + "/restore.snap"
	if err := old.SaveSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	oldTS.Close()

	srv := NewServer(ServerOptions{CorrectEvery: -1})
	if err := srv.LoadSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c = NewClient(ts.URL, "r2")

	// Post-restore batches land in the new journal.
	if _, err := c.PushBatchContext(ctx, stampedBatch("r2", evidenceBatch(0x78))); err != nil {
		t.Fatal(err)
	}

	d, err := c.Deltas(ctx, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Full {
		t.Fatalf("since=0 after a restore must be a full resync, got %+v", d)
	}
	if s := resyncSnapshot(t, d); s.Runs != 4 {
		t.Fatalf("full resync runs = %d, want 4 (restored 2 + new 2)", s.Runs)
	}

	// The returned cursor delta-polls cleanly from here on.
	if _, err := c.PushBatchContext(ctx, stampedBatch("r2", evidenceBatch(0x79))); err != nil {
		t.Fatal(err)
	}
	d2, err := c.Deltas(ctx, d.Seq, d.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Full || len(d2.Ops) != 1 || d2.Ops[0].Snapshot.Runs != 2 {
		t.Fatalf("incremental poll after restore resync: %+v", d2)
	}
}

func TestStatusReportsDirtyAndShardCounts(t *testing.T) {
	srv := NewServer(ServerOptions{Shards: 4, CorrectEvery: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := NewClient(ts.URL, "s")

	for i := 0; i < 8; i++ {
		if _, err := c.PushBatchContext(context.Background(), stampedBatch("s", evidenceBatch(site.ID(0x900+uint32(i)*17)))); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.DirtyKeys == 0 {
		t.Fatal("status shows no dirty keys after ingest")
	}
	if len(st.Shards) != 4 {
		t.Fatalf("status shards = %d, want 4", len(st.Shards))
	}
	sites, dirty := 0, 0
	for _, sh := range st.Shards {
		sites += sh.Sites
		dirty += sh.DirtyKeys
	}
	if sites != st.Sites {
		t.Fatalf("shard sites sum %d != total %d", sites, st.Sites)
	}
	if dirty != st.DirtyKeys {
		t.Fatalf("shard dirty sum %d != total %d", dirty, st.DirtyKeys)
	}
	if st.Seq != 8 {
		t.Fatalf("status seq = %d, want 8", st.Seq)
	}

	srv.Correct()
	st, err = c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.DirtyKeys != 0 {
		t.Fatalf("dirty keys after correction = %d, want 0", st.DirtyKeys)
	}
	if st.Corrections == 0 {
		t.Fatal("corrections counter not reported")
	}
}

// TestDisableCorrectionSuppressesEveryDerivationPath: a cluster
// partition (DisableCorrection) must never publish patches — not from
// inline correction, not from an explicit Correct call, and not from the
// snapshot-restore pass — because its partition-local site count would
// understate the Bayesian prior's N.
func TestDisableCorrectionSuppressesEveryDerivationPath(t *testing.T) {
	srv := NewServer(ServerOptions{CorrectEvery: 0, DisableCorrection: true})
	ts := httptest.NewServer(srv.Handler())
	c := NewClient(ts.URL, "part")

	// Overwhelming single-site evidence: any correcting server would patch.
	snap := evidenceBatch(0x1)
	snap.Overflow[0].Obs = []cumulative.Observation{
		{X: 0.01, Y: true}, {X: 0.01, Y: true}, {X: 0.01, Y: true},
	}
	if _, err := c.PushBatchContext(context.Background(), stampedBatch("part", snap)); err != nil {
		t.Fatal(err)
	}
	if v, changed := srv.Correct(); v != 0 || changed {
		t.Fatalf("partition derived patches: version %d changed %v", v, changed)
	}
	if srv.PatchLog().Len() != 0 {
		t.Fatalf("partition patch log has %d entries", srv.PatchLog().Len())
	}

	// Restart through the snapshot path: LoadSnapshot's correction pass
	// must also be suppressed.
	snapPath := t.TempDir() + "/part.snap"
	if err := srv.SaveSnapshot(snapPath); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	srv2 := NewServer(ServerOptions{CorrectEvery: 0, DisableCorrection: true})
	if err := srv2.LoadSnapshot(snapPath); err != nil {
		t.Fatal(err)
	}
	if srv2.PatchLog().Len() != 0 {
		t.Fatalf("restored partition derived %d patch entries", srv2.PatchLog().Len())
	}

	// Sanity: the same evidence DOES patch on a correcting server.
	ref := NewServer(ServerOptions{CorrectEvery: 0})
	ref.Store().AbsorbSnapshot(snap)
	ref.Correct()
	if ref.PatchLog().Len() == 0 {
		t.Fatal("reference server did not patch — evidence too weak for this test")
	}
}
