package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"exterminator/internal/cumulative"
	"exterminator/internal/engine"
	"exterminator/internal/fleet"
	"exterminator/internal/fleet/codec"
	"exterminator/internal/site"
)

// TestRingVersionMonotonic pins the membership-version contract writers
// and partitions converge through: versions start at 1, every effective
// change bumps them, no-ops don't, and external announcements only ever
// move them forward.
func TestRingVersionMonotonic(t *testing.T) {
	r := NewRing(0, "a", "b")
	if got := r.Version(); got != 1 {
		t.Fatalf("fresh ring version = %d, want 1", got)
	}
	r.Add("c")
	if got := r.Version(); got != 2 {
		t.Fatalf("after add: version = %d, want 2", got)
	}
	r.Add("c") // already a member: no-op
	if got := r.Version(); got != 2 {
		t.Fatalf("duplicate add moved the version to %d", got)
	}
	r.Remove("a")
	if got := r.Version(); got != 3 {
		t.Fatalf("after remove: version = %d, want 3", got)
	}
	r.Remove("zz") // not a member: no-op
	if got := r.Version(); got != 3 {
		t.Fatalf("phantom remove moved the version to %d", got)
	}

	// Announcements: strictly newer adopts, stale or equal is ignored.
	if r.SetMembership(3, []string{"x"}) {
		t.Fatal("equal-version announcement was applied")
	}
	if r.SetMembership(2, []string{"x"}) {
		t.Fatal("stale announcement was applied")
	}
	if got := r.Owner(42); got == "x" {
		t.Fatal("ignored announcement still changed ownership")
	}
	if !r.SetMembership(7, []string{"x", "y"}) {
		t.Fatal("newer announcement was not applied")
	}
	version, nodes := r.Membership()
	if version != 7 || len(nodes) != 2 || nodes[0] != "x" || nodes[1] != "y" {
		t.Fatalf("membership after adopt = v%d %v", version, nodes)
	}
}

// TestRouterEmptyRing pins the degenerate-ring fix: a router whose ring
// lost every member returns ErrNoMembers instead of routing pieces to a
// partition named "".
func TestRouterEmptyRing(t *testing.T) {
	router, err := NewRouter("lonely", "http://p1")
	if err != nil {
		t.Fatal(err)
	}
	router.Ring().Remove("http://p1")

	if _, err := router.SplitBatch(0, 0, testBatch(rand.New(rand.NewSource(2)))); !errors.Is(err, ErrNoMembers) {
		t.Fatalf("SplitBatch on empty ring: %v, want ErrNoMembers", err)
	}
	if parts := SplitSnapshot(router.Ring(), testBatch(rand.New(rand.NewSource(3)))); parts != nil {
		t.Fatalf("SplitSnapshot on empty ring routed to %d node(s)", len(parts))
	}
}

// rebalanceCluster is the shared fixture: a single-fleetd control, four
// partition servers (three in the initial membership, one spare), and a
// coordinator with a crash-safe rebalance journal.
type rebalanceCluster struct {
	control  *fleet.Server
	ctrlTS   *httptest.Server
	parts    []*fleet.Server
	partTS   []*httptest.Server
	partURLs []string
	coord    *Coordinator
	coordTS  *httptest.Server
	journal  string
}

func newRebalanceCluster(t *testing.T, nParts int) *rebalanceCluster {
	t.Helper()
	cfg := cumulative.DefaultConfig()
	rc := &rebalanceCluster{journal: filepath.Join(t.TempDir(), "rebalance.journal")}
	rc.control = fleet.NewServer(fleet.ServerOptions{Config: cfg, CorrectEvery: -1})
	rc.ctrlTS = httptest.NewServer(rc.control.Handler())
	t.Cleanup(rc.ctrlTS.Close)
	for i := 0; i < nParts; i++ {
		srv := fleet.NewServer(fleet.ServerOptions{Config: cfg, CorrectEvery: -1, DisableCorrection: true})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		rc.parts = append(rc.parts, srv)
		rc.partTS = append(rc.partTS, ts)
		rc.partURLs = append(rc.partURLs, ts.URL)
	}
	coord, err := NewCoordinator(CoordinatorOptions{
		Partitions:       rc.partURLs[:3],
		Config:           cfg,
		RebalanceJournal: rc.journal,
	})
	if err != nil {
		t.Fatal(err)
	}
	rc.coord = coord
	rc.coordTS = httptest.NewServer(coord.Handler())
	t.Cleanup(rc.coordTS.Close)
	return rc
}

// assertEvidenceMatchesControl pins the headline invariants: the cluster
// and the never-resharded control hold the byte-identical canonical
// evidence multiset and derive byte-identical patches, and every key's
// evidence lives on exactly one partition (partition /v1/status shard
// counts sum to the control's key counts — a split key would inflate
// the sum).
func (rc *rebalanceCluster) assertEvidenceMatchesControl(t *testing.T, members []int) {
	t.Helper()
	cfg := cumulative.DefaultConfig()

	merged := cumulative.NewHistory(cfg)
	for _, i := range members {
		merged.Absorb(rc.parts[i].Store().Combined().Snapshot())
	}
	merged.Canonicalize()
	want := rc.control.Store().Combined()
	want.Canonicalize()
	if !merged.Equal(want) {
		t.Fatalf("cluster evidence diverged from control:\ncluster: %s\ncontrol: %s", merged, want)
	}

	if gotRuns, wantRuns := rc.coord.Status().Runs, rc.control.Store().Runs(); gotRuns != wantRuns {
		t.Fatalf("coordinator runs = %d, control = %d", gotRuns, wantRuns)
	}
	singleBytes := canonicalPatchBytes(t, rc.control.PatchLog())
	clusterBytes := canonicalPatchBytes(t, rc.coord.PatchLog())
	if !bytes.Equal(singleBytes, clusterBytes) {
		t.Fatalf("cluster patch set diverged from control:\nsingle:  %s\ncluster: %s", singleBytes, clusterBytes)
	}

	// Exactly-one-partition, via the public status surface.
	sumSites, sumOvf, sumDan := 0, 0, 0
	for _, i := range members {
		st, err := fleet.NewClient(rc.partURLs[i], "probe").Status()
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range st.Shards {
			sumSites += sh.Sites
			sumOvf += sh.OverflowKeys
			sumDan += sh.DanglingKeys
		}
	}
	ctrl := rc.control.Store().Combined()
	if sumSites != ctrl.Sites() || sumOvf != ctrl.OverflowKeys() || sumDan != ctrl.DanglingKeys() {
		t.Fatalf("shard-count sums (sites %d ovf %d dan %d) != control (sites %d ovf %d dan %d) — a moved key is split or lost",
			sumSites, sumOvf, sumDan, ctrl.Sites(), ctrl.OverflowKeys(), ctrl.DanglingKeys())
	}
}

// TestRebalanceRequestRefusesTrailingBracket: POST /v1/rebalance reads
// one JSON document and nothing after it but whitespace. A request
// followed by a closing bracket is a 400 and leaves the membership and
// the partitions' ring versions alone; the same request followed by
// whitespace is served.
func TestRebalanceRequestRefusesTrailingBracket(t *testing.T) {
	rc := newRebalanceCluster(t, 4)
	doc := `{"add":["` + rc.partURLs[3] + `"]}`
	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(rc.coordTS.URL+"/v1/rebalance", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, tail := range []string{"}", "]"} {
		if code := post(doc + tail); code != http.StatusBadRequest {
			t.Errorf("rebalance with %q after the document: status %d, want 400", tail, code)
		}
	}
	if st := rc.coord.Status(); st.MembershipVersion != 1 || len(st.Nodes) != 3 {
		t.Fatalf("refused rebalance changed the membership: version %d, nodes %v", st.MembershipVersion, st.Nodes)
	}
	for i, srv := range rc.parts {
		if v := srv.RequireRingVersion(0); v != 0 {
			t.Fatalf("refused rebalance announced ring version %d to partition %d", v, i)
		}
	}
	if code := post(doc + " \n\t"); code != http.StatusOK {
		t.Fatalf("rebalance with trailing whitespace: status %d, want 200", code)
	}
	if st := rc.coord.Status(); len(st.Nodes) != 4 {
		t.Fatalf("rebalance with trailing whitespace: nodes %v", st.Nodes)
	}
}

// TestRebalanceMembershipChangeUnderLiveUploads is the membership-change
// e2e: grow 3→4, then drain out a founding member, all while concurrent
// uploaders keep streaming through cluster sinks that started on the old
// topology. The cluster must converge byte-identically (evidence,
// totals, patches) with a never-resharded single fleetd, with every
// moved key on exactly one partition.
func TestRebalanceMembershipChangeUnderLiveUploads(t *testing.T) {
	ctx := context.Background()
	rc := newRebalanceCluster(t, 4)
	cfg := cumulative.DefaultConfig()

	const uploaders = 3
	const rounds = 10
	type uploader struct {
		sink *Sink
		hist *cumulative.History
	}
	ups := make([]*uploader, uploaders)
	var wg sync.WaitGroup
	for u := 0; u < uploaders; u++ {
		// Sinks start on the OLD topology; the coordinator URL is where
		// they refresh membership after a stale-ring bounce.
		sink, err := NewSink(rc.coordTS.URL, "up", rc.partURLs[:3]...)
		if err != nil {
			t.Fatal(err)
		}
		ups[u] = &uploader{sink: sink, hist: cumulative.NewHistory(cfg)}
	}
	errCh := make(chan error, uploaders)
	reached := make(chan struct{}, uploaders)
	for u := 0; u < uploaders; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + u)))
			ctrl := fleet.NewClient(rc.ctrlTS.URL, "up")
			for r := 0; r < rounds; r++ {
				batch := testBatch(rng)
				if _, err := pushStamped(ctx, ctrl, batch); err != nil {
					errCh <- err
					return
				}
				ups[u].hist.Absorb(batch)
				// Flush failures mid-rebalance are soft: the watermark
				// holds the evidence and a later flush re-splits it under
				// the refreshed ring.
				ups[u].sink.FlushEvidence(ctx, &engine.Evidence{History: ups[u].hist})
				if r == rounds/2 {
					// Evidence is flowing; the main goroutine resizes the
					// cluster NOW, concurrently with the remaining rounds.
					reached <- struct{}{}
				}
			}
		}(u)
	}
	for u := 0; u < uploaders; u++ {
		<-reached
	}

	// Live resize while uploads stream: add the spare node...
	if res, err := rc.coord.AddNode(ctx, rc.partURLs[3]); err != nil {
		t.Fatalf("add node: %v", err)
	} else if res.Version != 2 || res.MovedKeys == 0 {
		t.Fatalf("add-node result: %+v", res)
	}
	// ...then drain out a founding member.
	if res, err := rc.coord.RemoveNode(ctx, rc.partURLs[0]); err != nil {
		t.Fatalf("remove node: %v", err)
	} else if res.Version != 3 || res.MovedKeys == 0 {
		t.Fatalf("remove-node result: %+v", res)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	// Drain every uploader's watermark through the (now current) ring.
	for _, up := range ups {
		for attempt := 0; attempt < 5; attempt++ {
			up.sink.FlushEvidence(ctx, &engine.Evidence{History: up.hist})
			if cumulative.DeltaEmpty(up.hist.UploadDelta()) {
				break
			}
		}
		if d := up.hist.UploadDelta(); !cumulative.DeltaEmpty(d) {
			t.Fatalf("uploader watermark never drained after the resize: %+v", d)
		}
	}

	rc.control.Correct()
	if _, err := rc.coord.Sync(ctx); err != nil {
		t.Fatal(err)
	}

	// The removed founder must hold nothing.
	if got := rc.parts[0].Store().Sites(); got != 0 {
		t.Fatalf("removed partition still holds %d sites", got)
	}
	rc.assertEvidenceMatchesControl(t, []int{1, 2, 3})

	st := rc.coord.Status()
	if st.MembershipVersion != 3 || len(st.Nodes) != 3 {
		t.Fatalf("final membership v%d over %v", st.MembershipVersion, st.Nodes)
	}
	if st.Rebalance.State != RebalanceDone || st.Rebalance.MovedKeys == 0 {
		t.Fatalf("rebalance state not reported: %+v", st.Rebalance)
	}
}

// TestClusterSinkCommitFailsWhileStillStale: a rebalance that stops right
// after announcing its version leaves every partition requiring a
// membership the coordinator does not serve yet. A sink split under the
// old ring is rejected, refreshes, gets the old ring again and is
// rejected again: Commit must fail with the partitions' required version
// and leave the watermark where it was. Once the rebalance resumes and
// commits, the next Commit delivers and the coordinator counts every run
// exactly once.
func TestClusterSinkCommitFailsWhileStillStale(t *testing.T) {
	ctx := context.Background()
	rc := newRebalanceCluster(t, 4)
	rc.coord.testRebalanceCrash = func(stage string) error {
		if stage == "announced" {
			return errors.New("simulated coordinator crash")
		}
		return nil
	}
	if _, err := rc.coord.AddNode(ctx, rc.partURLs[3]); err == nil {
		t.Fatal("crashed rebalance reported success")
	}
	rc.coord.testRebalanceCrash = nil

	sink, err := NewSink(rc.coordTS.URL, "stale", rc.partURLs[:3]...)
	if err != nil {
		t.Fatal(err)
	}
	hist := cumulative.NewHistory(cumulative.DefaultConfig())
	hist.Absorb(testBatch(rand.New(rand.NewSource(5))))
	ev := &engine.Evidence{History: hist}
	err = sink.Commit(ctx, ev)
	var sre *fleet.StaleRingError
	if !errors.As(err, &sre) || sre.Required != 2 {
		t.Fatalf("commit under a still-stale ring: %v, want a StaleRingError requiring version 2", err)
	}
	if runs, obs := hist.UploadedCounts(); runs != 0 || obs != 0 {
		t.Fatalf("watermark moved to (%d runs, %d observations) although no partition absorbed the delta", runs, obs)
	}

	if res, err := rc.coord.ResumeRebalance(ctx); err != nil || res == nil || res.Version != 2 {
		t.Fatalf("resume: %v, %+v", err, res)
	}
	if err := sink.Commit(ctx, ev); err != nil {
		t.Fatalf("commit after the rebalance committed: %v", err)
	}
	if d := hist.UploadDelta(); !cumulative.DeltaEmpty(d) {
		t.Fatalf("watermark incomplete after delivery: %+v", d)
	}
	if _, err := rc.coord.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if got := rc.coord.Status().Runs; got != int64(hist.Runs) {
		t.Fatalf("coordinator counts %d runs, the history holds %d", got, hist.Runs)
	}
}

// TestRebalanceCoordinatorKilledMidDrain is the crash e2e the tentpole
// is pinned by: the coordinator dies between drain and backfill (moved
// evidence exists only in a partition's evict cache), a FRESH
// coordinator re-drives the journaled plan, and the cluster still
// converges byte-identically with a never-resharded single fleetd — no
// lost and no double-counted evidence.
func TestRebalanceCoordinatorKilledMidDrain(t *testing.T) {
	ctx := context.Background()
	rc := newRebalanceCluster(t, 4)
	cfg := cumulative.DefaultConfig()

	router, err := NewRouter("routed", rc.partURLs[:3]...)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := fleet.NewClient(rc.ctrlTS.URL, "routed")
	rng := rand.New(rand.NewSource(17))
	push := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			batch := testBatch(rng)
			if _, err := pushStamped(ctx, ctrl, batch); err != nil {
				t.Fatal(err)
			}
			if err := pushRouted(ctx, router, batch); err != nil {
				t.Fatal(err)
			}
		}
	}
	push(30)
	if _, err := rc.coord.Sync(ctx); err != nil {
		t.Fatal(err)
	}

	// Kill the coordinator right after the first partition's drain: the
	// drained keys now live ONLY in that partition's evict cache.
	rc.coord.testRebalanceCrash = func(stage string) error {
		if stage == "drained" {
			return errors.New("simulated coordinator crash")
		}
		return nil
	}
	if _, err := rc.coord.AddNode(ctx, rc.partURLs[3]); err == nil {
		t.Fatal("crashed rebalance reported success")
	}
	if st := rc.coord.Status().Rebalance; st.State != RebalanceFailed {
		t.Fatalf("rebalance state after crash: %+v", st)
	}

	// A fresh coordinator (the restarted process) resumes from the
	// journal alone.
	coordB, err := NewCoordinator(CoordinatorOptions{
		Partitions:       rc.partURLs[:3],
		Config:           cfg,
		RebalanceJournal: rc.journal,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := coordB.ResumeRebalance(ctx)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if res == nil || res.Version != 2 || len(res.Nodes) != 4 {
		t.Fatalf("resume result: %+v", res)
	}
	rc.coord = coordB

	// Resuming again is a no-op: the journal shows the plan done.
	if res, err := coordB.ResumeRebalance(ctx); err != nil || res != nil {
		t.Fatalf("second resume: %v, %+v", err, res)
	}

	// Uploads continue on the new topology (the router adopts the
	// membership the resume reported).
	router.Ring().SetMembership(res.Version, res.Nodes)
	push(10)

	rc.control.Correct()
	if _, err := coordB.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	rc.assertEvidenceMatchesControl(t, []int{0, 1, 2, 3})

	// The spare actually took ownership of moved keys.
	if got := rc.parts[3].Store().Sites(); got == 0 {
		t.Fatal("new partition received no evidence — nothing was backfilled")
	}

	// A THIRD coordinator restarted with the stale flag list and no
	// snapshot must re-adopt the journal's completed membership instead
	// of silently reverting to 3 nodes and dropping p4 from the merge.
	coordC, err := NewCoordinator(CoordinatorOptions{
		Partitions:       rc.partURLs[:3],
		Config:           cfg,
		RebalanceJournal: rc.journal,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := coordC.ResumeRebalance(ctx); err != nil || res != nil {
		t.Fatalf("resume on a completed journal: %v, %+v", err, res)
	}
	st := coordC.Status()
	if st.MembershipVersion != 2 || len(st.Nodes) != 4 {
		t.Fatalf("restarted coordinator lost the journaled membership: v%d over %v", st.MembershipVersion, st.Nodes)
	}
	if _, err := coordC.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if got, want := coordC.Status().Runs, rc.control.Store().Runs(); got != want {
		t.Fatalf("restarted coordinator merges %d runs, control has %d — a partition dropped out", got, want)
	}
}

// TestRebalanceRefusesDrainWithNonProbabilityX: a partition whose drain
// answers evidence with one X = −0.5 among good keys bound for every new
// owner fails the rebalance before any backfill push. No partition's
// batch count moves, and membership stays at the old version.
func TestRebalanceRefusesDrainWithNonProbabilityX(t *testing.T) {
	ctx := context.Background()
	rc := newRebalanceCluster(t, 3)
	drained := &cumulative.Snapshot{C: 4, P: 0.5, Runs: 5}
	for i := 0; i < 64; i++ {
		id := site.ID(0x2000 + uint32(i))
		x := 0.25
		if i == 63 {
			x = -0.5
		}
		drained.Sites = append(drained.Sites, id)
		drained.Overflow = append(drained.Overflow, cumulative.SiteObservations{Site: id, Obs: []cumulative.Observation{{X: x, Y: true}}})
	}
	// The stub fronts the first partition and forges only its drain.
	part0 := rc.parts[0].Handler()
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/evict" {
			part0.ServeHTTP(w, r)
			return
		}
		var req fleet.EvictRequest
		if err := fleet.DecodeJSONBody(w, r, 1<<20, &req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", codec.ContentTypeV2)
		w.Write(codec.EncodeBatch(&codec.Buffer{}, &codec.Batch{BatchID: req.Token, RingVersion: 2, Snapshot: drained}))
	}))
	defer stub.Close()
	coord, err := NewCoordinator(CoordinatorOptions{Partitions: []string{stub.URL}, Config: cumulative.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if got := SplitSnapshot(NewRing(0, stub.URL, rc.partURLs[1], rc.partURLs[2]), drained); len(got) != 3 {
		t.Fatalf("the forged drain spans %d owners under the new ring, want 3", len(got))
	}

	_, err = coord.Rebalance(ctx, []string{rc.partURLs[1], rc.partURLs[2]}, nil)
	if err == nil || !strings.Contains(err.Error(), "drain") {
		t.Fatalf("rebalance over a drain with X = -0.5: %v, want a drain error", err)
	}
	for i, p := range rc.parts {
		if got := p.Store().Batches(); got != 0 {
			t.Errorf("partition %d absorbed %d backfill batches", i, got)
		}
	}
	st := coord.Status()
	if st.MembershipVersion != 1 || len(st.Nodes) != 1 || st.Rebalance.State != RebalanceFailed {
		t.Fatalf("after the refused drain: membership v%d over %v, rebalance %+v", st.MembershipVersion, st.Nodes, st.Rebalance)
	}
}

// TestRebalanceResumesJournalWithRetiredRecords: a journal written by a
// build that also logged per-partition drain and backfilled records —
// a completed plan, then an unfinished one — still resumes: recovery
// reads begin and done and skips the rest.
func TestRebalanceResumesJournalWithRetiredRecords(t *testing.T) {
	ctx := context.Background()
	rc := newRebalanceCluster(t, 4)
	router, err := NewRouter("routed", rc.partURLs[:3]...)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := fleet.NewClient(rc.ctrlTS.URL, "routed")
	rng := rand.New(rand.NewSource(23))
	push := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			batch := testBatch(rng)
			if _, err := pushStamped(ctx, ctrl, batch); err != nil {
				t.Fatal(err)
			}
			if err := pushRouted(ctx, router, batch); err != nil {
				t.Fatal(err)
			}
		}
	}
	push(20)
	if _, err := rc.coord.Sync(ctx); err != nil {
		t.Fatal(err)
	}

	p := rc.partURLs
	lines := []string{
		fmt.Sprintf(`{"op":"begin","version":2,"old":[%q,%q,%q],"new":[%q,%q,%q,%q]}`, p[0], p[1], p[2], p[0], p[1], p[2], p[3]),
		fmt.Sprintf(`{"op":"drain","version":2,"part":%q,"keys":7}`, p[0]),
		fmt.Sprintf(`{"op":"backfilled","version":2,"part":%q}`, p[0]),
		`{"op":"done","version":2}`,
		fmt.Sprintf(`{"op":"begin","version":3,"old":[%q,%q,%q,%q],"new":[%q,%q,%q]}`, p[0], p[1], p[2], p[3], p[1], p[2], p[3]),
		fmt.Sprintf(`{"op":"drain","version":3,"part":%q,"keys":12}`, p[0]),
		fmt.Sprintf(`{"op":"backfilled","version":3,"part":%q}`, p[0]),
		fmt.Sprintf(`{"op":"drain","version":3,"part":%q,"keys":3}`, p[1]),
	}
	if err := os.WriteFile(rc.journal, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := rc.coord.ResumeRebalance(ctx)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if res == nil || res.Version != 3 || len(res.Nodes) != 3 || res.Nodes[0] != p[1] {
		t.Fatalf("resume result: %+v", res)
	}

	router.Ring().SetMembership(res.Version, res.Nodes)
	push(10)
	rc.control.Correct()
	if _, err := rc.coord.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if got := rc.parts[0].Store().Sites(); got != 0 {
		t.Fatalf("removed partition still holds %d sites", got)
	}
	rc.assertEvidenceMatchesControl(t, []int{1, 2, 3})
}
