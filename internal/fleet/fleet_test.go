package fleet

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"exterminator/internal/cumulative"
	"exterminator/internal/fleet/codec"
	"exterminator/internal/patch"
	"exterminator/internal/report"
	"exterminator/internal/site"
)

const (
	guiltySite  = site.ID(0xBAD)
	guiltyAlloc = site.ID(0xDA)
	guiltyFree  = site.ID(0xDF)
)

// testBatches fabricates n observation batches the way n independent
// installations would: every batch carries the same site population, a
// guilty overflow site whose Y=1 far exceeds its X, a guilty dangling
// pair, and chance-consistent innocents.
func testBatches(n int) []*cumulative.Snapshot {
	batches := make([]*cumulative.Snapshot, 0, n)
	for b := 0; b < n; b++ {
		s := &cumulative.Snapshot{C: 4, P: 0.5, Runs: 3, FailedRuns: 1, CorruptRuns: 1}
		for i := 0; i < 10; i++ {
			s.Sites = append(s.Sites, site.ID(0x100+uint32(i)))
		}
		s.Sites = append(s.Sites, guiltySite)
		// Guilty overflow: Y=1 at small X, every corrupt run.
		s.Overflow = append(s.Overflow, cumulative.SiteObservations{
			Site: guiltySite,
			Obs:  []cumulative.Observation{{X: 0.1, Y: true}},
		})
		// Innocent overflow evidence: Y tracks X.
		for i := 0; i < 4; i++ {
			s.Overflow = append(s.Overflow, cumulative.SiteObservations{
				Site: site.ID(0x100 + uint32(i)),
				Obs:  []cumulative.Observation{{X: 0.5, Y: (b+i)%2 == 0}},
			})
		}
		// Guilty dangling pair: canaried on every failed run.
		s.Dangling = append(s.Dangling, cumulative.PairObservations{
			Alloc: guiltyAlloc, Free: guiltyFree,
			Obs: []cumulative.Observation{{X: 0.5, Y: true}},
		})
		s.PadHints = append(s.PadHints, cumulative.PadHint{Site: guiltySite, Pad: 9})
		s.DeferralHints = append(s.DeferralHints, cumulative.DeferralHint{
			Alloc: guiltyAlloc, Free: guiltyFree, Deferral: uint64(30 + b%4),
		})
		batches = append(batches, s)
	}
	return batches
}

// TestConcurrentIngestConvergence is the satellite requirement: ingest
// from 8 goroutines must converge to the same patch set as
// single-threaded cumulative aggregation over identical observations.
func TestConcurrentIngestConvergence(t *testing.T) {
	batches := testBatches(48)

	// Reference: one cumulative.History fed sequentially.
	ref := cumulative.NewHistory(cumulative.DefaultConfig())
	for _, b := range batches {
		ref.Absorb(b)
	}
	ref.Canonicalize()
	refPatches := ref.Identify().Patches()
	if refPatches.Len() == 0 {
		t.Fatal("reference aggregation derived no patches; test evidence too weak")
	}

	// Fleet store: 8 concurrent ingesters.
	st := NewStore(8, cumulative.DefaultConfig())
	work := make(chan *cumulative.Snapshot)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range work {
				st.AbsorbSnapshot(b)
			}
		}()
	}
	for _, b := range batches {
		work <- b
	}
	close(work)
	wg.Wait()

	combined := st.Combined()
	if !combined.Equal(ref) {
		t.Fatalf("combined store differs from sequential history:\n  store %s\n  ref   %s", combined, ref)
	}
	got := combined.Identify().Patches()
	if !got.Equal(refPatches) {
		t.Fatalf("patch sets diverge:\n  store: %s\n  ref:   %s", got, refPatches)
	}
	if got.Pad(guiltySite) != 9 {
		t.Fatalf("pad for guilty site = %d, want 9", got.Pad(guiltySite))
	}
	if d := got.Deferral(site.Pair{Alloc: guiltyAlloc, Free: guiltyFree}); d != 33 {
		t.Fatalf("deferral = %d, want the maximum hint 33", d)
	}
	if st.Runs() != int64(48*3) || st.FailedRuns() != 48 || st.CorruptRuns() != 48 {
		t.Fatalf("run counters wrong: %d/%d/%d", st.Runs(), st.FailedRuns(), st.CorruptRuns())
	}
}

func TestPatchLogDeltaPolling(t *testing.T) {
	l := NewPatchLog()

	mk := func(s site.ID, pad uint32) *patch.Set {
		ps := patch.New()
		ps.AddPad(s, pad)
		return ps
	}

	if ps, v := l.Since(0); ps.Len() != 0 || v != 0 {
		t.Fatalf("empty log: got %d entries at v%d", ps.Len(), v)
	}
	if v, changed := l.Fold(mk(0xA, 4)); !changed || v != 1 {
		t.Fatalf("first fold: v=%d changed=%v", v, changed)
	}
	// Re-folding the same (or weaker) evidence must not version-bump.
	if v, changed := l.Fold(mk(0xA, 3)); changed || v != 1 {
		t.Fatalf("weaker fold bumped version: v=%d changed=%v", v, changed)
	}
	l.Fold(mk(0xB, 8)) // v2
	l.Fold(mk(0xA, 9)) // v3: pad for A grew

	// since=1 must contain exactly what v2 and v3 added.
	ps, v := l.Since(1)
	if v != 3 {
		t.Fatalf("version = %d, want 3", v)
	}
	want := patch.New()
	want.AddPad(0xB, 8)
	want.AddPad(0xA, 9)
	if !ps.Equal(want) {
		t.Fatalf("since=1 delta:\n%s\nwant:\n%s", ps, want)
	}
	// since=3 (current) is empty; since=2 has only the v3 entry.
	if ps, _ := l.Since(3); ps.Len() != 0 {
		t.Fatalf("since=current returned %d entries", ps.Len())
	}
	ps, _ = l.Since(2)
	if ps.Len() != 1 || ps.Pad(0xA) != 9 {
		t.Fatalf("since=2 delta wrong: %s", ps)
	}
	// since beyond the current version (stale client from a previous
	// server incarnation) resyncs with the full set.
	ps, v = l.Since(99)
	full, _ := l.Full()
	if v != 3 || !ps.Equal(full) {
		t.Fatalf("resync: got v%d %s", v, ps)
	}
}

func TestPatchLogCompaction(t *testing.T) {
	l := NewPatchLog()
	for i := 0; i < maxDeltas+10; i++ {
		ps := patch.New()
		ps.AddPad(site.ID(i+1), uint32(i+1))
		l.Fold(ps)
	}
	// A poll older than the retained window falls back to the full set.
	ps, v := l.Since(1)
	full, _ := l.Full()
	if v != uint64(maxDeltas+10) || !ps.Equal(full) {
		t.Fatalf("compacted poll: v=%d len=%d want full len %d", v, ps.Len(), full.Len())
	}
	// A poll inside the window still gets an exact delta.
	ps, _ = l.Since(uint64(maxDeltas + 9))
	if ps.Len() != 1 || ps.Pad(site.ID(maxDeltas+10)) == 0 {
		t.Fatalf("recent delta wrong: %s", ps)
	}
}

func TestServerEndToEnd(t *testing.T) {
	srv := NewServer(ServerOptions{Shards: 4, CorrectEvery: 0})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	c := NewClient(ts.URL, "test-install")
	var lastVersion uint64
	for i, b := range testBatches(40) {
		reply, err := c.PushBatchContext(t.Context(), lineageBatch("test-install", uint64(i+1), b))
		if err != nil {
			t.Fatal(err)
		}
		lastVersion = reply.Version
	}
	if lastVersion == 0 {
		t.Fatal("server never derived a patch from 40 batches of strong evidence")
	}

	// Full fetch from scratch.
	ps, v, err := c.Patches(0)
	if err != nil {
		t.Fatal(err)
	}
	if v != lastVersion || ps.Pad(guiltySite) == 0 {
		t.Fatalf("patches(0): v=%d set=%s", v, ps)
	}
	// Delta poll at the current version is empty.
	ps, v2, err := c.Patches(v)
	if err != nil {
		t.Fatal(err)
	}
	if v2 != v || ps.Len() != 0 {
		t.Fatalf("patches(current): v=%d len=%d", v2, ps.Len())
	}

	// Reports round-trip.
	rep := &report.Report{Findings: []report.Finding{{
		Kind: "buffer-overflow", Title: "test", Suggested: "grow the buffer",
	}}}
	if err := c.PushReport(rep); err != nil {
		t.Fatal(err)
	}

	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Batches != 40 || st.Clients != 1 || st.Reports != 1 || st.Version != v {
		t.Fatalf("status = %+v", st)
	}
	if st.Runs != 120 || st.PatchLen == 0 {
		t.Fatalf("status counters = %+v", st)
	}
}

func TestServerRejectsBadInput(t *testing.T) {
	srv := NewServer(ServerOptions{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Not a frame.
	resp, err := http.Post(ts.URL+"/v1/observations", codec.ContentTypeV2,
		strings.NewReader("not a frame"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body: %s", resp.Status)
	}
	// Batch without a snapshot.
	resp, err = http.Post(ts.URL+"/v1/observations", codec.ContentTypeV2,
		bytes.NewReader(frame(&ObservationBatch{Client: "x", BatchID: "id"})))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: %s", resp.Status)
	}
	// Wrong method.
	resp, err = http.Get(ts.URL + "/v1/observations")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET observations: %s", resp.Status)
	}
	// Bad since parameter.
	resp, err = http.Get(ts.URL + "/v1/patches?since=banana")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad since: %s", resp.Status)
	}
}

func TestSnapshotPersistence(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fleet.snap")

	srv := NewServer(ServerOptions{CorrectEvery: 0})
	for _, b := range testBatches(40) {
		srv.Store().AbsorbSnapshot(b)
	}
	srv.Correct()
	wantPatches, _ := srv.PatchLog().Full()
	if wantPatches.Len() == 0 {
		t.Fatal("no patches before snapshot")
	}
	if err := srv.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}

	// A fresh server restores the evidence and rederives the patches.
	srv2 := NewServer(ServerOptions{})
	if err := srv2.LoadSnapshot(path); err != nil {
		t.Fatal(err)
	}
	got, v := srv2.PatchLog().Full()
	if v == 0 || !got.Equal(wantPatches) {
		t.Fatalf("restored patches differ (v%d):\n%s\nwant:\n%s", v, got, wantPatches)
	}
	if !srv2.Store().Combined().Equal(srv.Store().Combined()) {
		t.Fatal("restored evidence differs")
	}

	// Missing file is a clean fresh start.
	srv3 := NewServer(ServerOptions{})
	if err := srv3.LoadSnapshot(filepath.Join(dir, "absent")); err != nil {
		t.Fatal(err)
	}
}

// TestClientResyncsAcrossServerRestart covers the version-reset hazard:
// a server restarted from a stale snapshot restarts version numbering,
// so a client carrying a version from the old incarnation could silently
// skip the new incarnation's early versions. The epoch in every patches
// reply lets the client detect this and resync from 0.
func TestClientResyncsAcrossServerRestart(t *testing.T) {
	mkServer := func(folds []uint32) *Server {
		s := NewServer(ServerOptions{})
		for i, pad := range folds {
			ps := patch.New()
			ps.AddPad(site.ID(0x500+uint32(i)), pad)
			s.PatchLog().Fold(ps)
		}
		return s
	}
	// Old incarnation at version 3; new incarnation at version 5 with
	// different (rederived) content — 3 falls inside 0..5, the lossy case.
	oldSrv := mkServer([]uint32{1, 2, 3})
	newSrv := mkServer([]uint32{10, 20, 30, 40, 50})

	var cur atomic.Pointer[Server]
	cur.Store(oldSrv)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur.Load().Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()

	c := NewClient(ts.URL, "restart-test")
	_, v, err := c.Patches(0)
	if err != nil {
		t.Fatal(err)
	}
	if v != 3 {
		t.Fatalf("old incarnation version = %d, want 3", v)
	}

	cur.Store(newSrv) // "restart"
	ps, v, err := c.Patches(v)
	if err != nil {
		t.Fatal(err)
	}
	full, wantV := newSrv.PatchLog().Full()
	if v != wantV || !ps.Equal(full) {
		t.Fatalf("post-restart poll: v=%d len=%d, want full set v=%d len=%d",
			v, ps.Len(), wantV, full.Len())
	}
}

func TestWireRejectsCorruptPatchSet(t *testing.T) {
	if _, _, err := DecodePatchSet(strings.NewReader("{broken")); err == nil {
		t.Fatal("corrupt JSON accepted")
	}
	if _, _, err := DecodePatchSet(strings.NewReader(`{"version":1} trailing`)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

func TestWirePatchSetRoundTrip(t *testing.T) {
	ps := patch.New()
	ps.AddPad(0xA, 12)
	ps.AddFrontPad(0xB, 3)
	ps.AddDeferral(site.Pair{Alloc: 0xC, Free: 0xD}, 77)
	var buf bytes.Buffer
	if err := EncodePatchSet(&buf, ps, 5); err != nil {
		t.Fatal(err)
	}
	got, v, err := DecodePatchSet(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if v != 5 || !got.Equal(ps) {
		t.Fatalf("round trip: v=%d %s", v, got)
	}
}
