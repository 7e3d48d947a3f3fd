package fleet

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
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

// padSet is a patch set of pads for the given sites, each padded by its
// own value.
func padSet(sites ...site.ID) *patch.Set {
	ps := patch.New()
	for _, s := range sites {
		ps.AddPad(s, uint32(s))
	}
	return ps
}

// TestPatchLogFollow pins a log that mirrors another: a cursor inside a
// delta spanning several upstream versions gets the whole delta, an
// answer at or below the current version is ignored, and a resync
// replaces set, version and epoch.
func TestPatchLogFollow(t *testing.T) {
	l := NewPatchLog()
	l.Follow(padSet(1, 2), 3) // upstream versions 1..3 in one answer
	l.Follow(padSet(3), 4)
	for since, want := range map[uint64]*patch.Set{
		0: padSet(1, 2, 3),
		1: padSet(1, 2, 3), // inside (0, 3]: the whole span
		2: padSet(1, 2, 3),
		3: padSet(3),
		4: padSet(),
	} {
		if got, v := l.Since(since); v != 4 || !got.Equal(want) {
			t.Errorf("since=%d: v%d %s, want v4 %s", since, v, got, want)
		}
	}

	l.Follow(padSet(9), 4) // equal version: a replayed answer
	l.Follow(padSet(9), 2) // older version: a stale answer
	if full, v := l.Full(); v != 4 || !full.Equal(padSet(1, 2, 3)) {
		t.Fatalf("stale answers changed the log: v%d %s", v, full)
	}

	l.Resync(padSet(7), 2, 9)
	if full, v := l.Full(); v != 2 || l.Epoch() != 9 || !full.Equal(padSet(7)) {
		t.Fatalf("after resync: epoch %d v%d %s, want epoch 9 v2 {7}", l.Epoch(), v, full)
	}
	for since, want := range map[uint64]*patch.Set{1: padSet(7), 2: padSet(), 4: padSet(7)} {
		if got, _ := l.Since(since); !got.Equal(want) {
			t.Errorf("since=%d after resync: %s, want %s", since, got, want)
		}
	}
	l.Follow(padSet(8), 6)
	if got, _ := l.Since(5); !got.Equal(padSet(8)) {
		t.Errorf("since=5 inside the post-resync delta: %s, want {8}", got)
	}
}

// TestPatchLogCompactionOnlyWidens follows multi-version deltas far past
// the retained window: at every checkpoint, every cursor gets at least
// the entries added after it and nothing outside the full set, and a
// cursor the window dropped gets the full set.
func TestPatchLogCompactionOnlyWidens(t *testing.T) {
	l := NewPatchLog()
	var sets []*patch.Set // sets[i] took the log to version 2(i+1)
	for i := 1; i <= maxDeltas+40; i++ {
		to := uint64(2 * i)
		sets = append(sets, padSet(site.ID(i)))
		l.Follow(sets[i-1], to)
		if i%37 != 0 {
			continue
		}
		full, _ := l.Full()
		exact := patch.New() // what was added after since
		for since := to; ; since-- {
			if since%2 == 1 {
				exact.Merge(sets[since/2])
			}
			got, _ := l.Since(since)
			if exact.Diff(got).Len() != 0 || got.Diff(full).Len() != 0 {
				t.Fatalf("step %d since=%d: answer %s, want a superset of %s within the full set", i, since, got, exact)
			}
			if since == 0 {
				break
			}
		}
	}
	full, _ := l.Full()
	if got, _ := l.Since(1); !got.Equal(full) {
		t.Fatalf("a cursor below the compacted window got %d entries, want all %d", got.Len(), full.Len())
	}
}

// TestNotModifiedAllocsFlat pins the revalidation path: a poll whose
// If-None-Match presents the current validator is answered before any
// set is built, so its cost does not grow with the log — not even for
// the cursors that would get the whole set (one below the window, one
// ahead of the version).
func TestNotModifiedAllocsFlat(t *testing.T) {
	allocs := func(n int, since uint64) float64 {
		srv := NewServer(ServerOptions{CorrectEvery: -1})
		ps := patch.New()
		for i := 0; i < n; i++ {
			ps.AddPad(site.ID(0x10000+i), 8)
		}
		srv.PatchLog().Fold(ps)
		for i := 1; i <= maxDeltas; i++ {
			srv.PatchLog().Fold(padSet(site.ID(i)))
		}
		req := httptest.NewRequest(http.MethodGet, "/v1/patches?since="+strconv.FormatUint(since, 10), nil)
		req.Header.Set("If-None-Match", PatchETag(srv.PatchLog().Epoch(), srv.PatchLog().Version()))
		req.Header.Set(RequestIDHeader, "pin")
		h := srv.Handler()
		return testing.AllocsPerRun(50, func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusNotModified {
				t.Fatalf("revalidation answered %d, want 304", rec.Code)
			}
		})
	}
	for _, since := range []uint64{0, maxDeltas, maxDeltas + 1, maxDeltas + 50} {
		if small, large := allocs(10, since), allocs(10000, since); small != large {
			t.Errorf("since=%d: a 304 allocates %v at 10 entries but %v at 10,000", since, small, large)
		}
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
		bytes.NewReader(frame(&codec.Batch{Client: "x", BatchID: "id"})))
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
	if _, _, err := DecodePatchSet([]byte("{broken")); err == nil {
		t.Fatal("corrupt JSON accepted")
	}
	if _, _, err := DecodePatchSet([]byte(`{"version":1} trailing`)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	// A closing bracket after the document is trailing data too.
	for _, tail := range []string{"}", "]", " }", "\n]"} {
		if _, v, err := DecodePatchSet([]byte(`{"version":3}` + tail)); err == nil {
			t.Errorf("document followed by %q accepted at version %d", tail, v)
		}
	}
	if _, v, err := DecodePatchSet([]byte("{\"version\":3} \n\t")); err != nil || v != 3 {
		t.Fatalf("trailing whitespace: version %d, %v", v, err)
	}
}

// TestJSONRequestsRefuseTrailingBracket: a JSON request body is one
// document and nothing after it but whitespace. An evict or ring request
// followed by a closing bracket is a 400 and changes nothing; the same
// document followed by whitespace is served.
func TestJSONRequestsRefuseTrailingBracket(t *testing.T) {
	srv := NewServer(ServerOptions{CorrectEvery: -1, DisableCorrection: true})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := NewClient(ts.URL, "b")
	if _, err := c.PushBatchContext(t.Context(), stampedBatch("b", evidenceBatch(0x10))); err != nil {
		t.Fatal(err)
	}
	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	requests := map[string]string{
		"/v1/evict": `{"token":"drain-1","keys":[16]}`,
		"/v1/ring":  `{"version":5}`,
	}
	for path, doc := range requests {
		for _, tail := range []string{"}", "]"} {
			if code := post(path, doc+tail); code != http.StatusBadRequest {
				t.Errorf("%s with %q after the document: status %d, want 400", path, tail, code)
			}
		}
	}
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Sites != 1 || st.Evictions != 0 || st.RingVersion != 0 || st.Seq != 1 {
		t.Fatalf("refused requests changed the partition: %+v", st)
	}
	for path, doc := range requests {
		if code := post(path, doc+" \n\t"); code != http.StatusOK {
			t.Errorf("%s with trailing whitespace: status %d, want 200", path, code)
		}
	}
	if st, err = c.Status(); err != nil || st.Sites != 0 || st.Evictions != 1 || st.RingVersion != 5 {
		t.Fatalf("accepted requests: %+v, %v", st, err)
	}
}

func TestWirePatchSetRoundTrip(t *testing.T) {
	ps := patch.New()
	ps.AddPad(0xA, 12)
	ps.AddFrontPad(0xB, 3)
	ps.AddDeferral(site.Pair{Alloc: 0xC, Free: 0xD}, 77)
	data, err := json.Marshal(codec.ToWire(ps, 5))
	if err != nil {
		t.Fatal(err)
	}
	got, v, err := DecodePatchSet(data)
	if err != nil {
		t.Fatal(err)
	}
	if v != 5 || !got.Equal(ps) {
		t.Fatalf("round trip: v=%d %s", v, got)
	}
}
