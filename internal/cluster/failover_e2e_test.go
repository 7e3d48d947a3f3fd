package cluster

import (
	"bytes"
	"context"
	"math/rand"
	"net/http/httptest"
	"testing"

	"exterminator/internal/cumulative"
	"exterminator/internal/fleet"
	"exterminator/internal/fleet/codec"
	"exterminator/internal/patch"
	"exterminator/internal/testutil"
	"exterminator/internal/testutil/chaos"
)

// TestCoordinatorKillFailoverE2E is the headline fault-injection test:
// an HA pair (primary + warm standby over the same partitions) is fed
// the identical evidence stream as a control cluster that never fails.
// Mid-stream the primary is killed (its proxy partitioned, its listener
// closed); the standby detects the dead lease and promotes itself.
//
// Pinned invariants:
//   - a patch poller with the standby as fallback never observes the
//     patch set regress — across the kill, the rotation, and the
//     epoch-driven resync;
//   - an upload whose ack was lost in the failover window is retried
//     and absorbed exactly once (run totals match the control's);
//   - after failover, /v1/patches and /v1/triage answers are
//     byte-identical to the never-failed control cluster's.
func TestCoordinatorKillFailoverE2E(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	ctx := context.Background()
	cfg := cumulative.DefaultConfig()

	// Control cluster: two partitions + one coordinator, never killed.
	_, ctrlURL1 := haPartition(t, cfg)
	_, ctrlURL2 := haPartition(t, cfg)
	ctrl, err := NewCoordinator(CoordinatorOptions{Partitions: []string{ctrlURL1, ctrlURL2}, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	ctrlTS := httptest.NewServer(ctrl.Handler())
	defer ctrlTS.Close()

	// HA cluster: two partitions, a primary behind a drop-capable proxy,
	// and a warm standby probing the primary's lease through it.
	_, haURL1 := haPartition(t, cfg)
	_, haURL2 := haPartition(t, cfg)
	primary, err := NewCoordinator(CoordinatorOptions{
		Partitions: []string{haURL1, haURL2}, Config: cfg, LeaseHolder: "coord-a",
	})
	if err != nil {
		t.Fatal(err)
	}
	primaryTS := httptest.NewServer(primary.Handler())
	proxy, err := chaos.NewProxy(primaryTS.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	standby, err := NewCoordinator(CoordinatorOptions{
		Partitions: []string{haURL1, haURL2}, Config: cfg,
		Standby: true, Primary: proxy.URL(), TakeoverAfter: 3, LeaseHolder: "coord-b",
	})
	if err != nil {
		t.Fatal(err)
	}
	standbyTS := httptest.NewServer(standby.Handler())
	defer standbyTS.Close()

	// Both clusters receive the identical batch stream through their own
	// routers.
	ctrlRouter, err := NewRouter("e2e", ctrlURL1, ctrlURL2)
	if err != nil {
		t.Fatal(err)
	}
	haRouter, err := NewRouter("e2e", haURL1, haURL2)
	if err != nil {
		t.Fatal(err)
	}
	pushBoth := func(s *cumulative.Snapshot) {
		t.Helper()
		if err := pushRouted(ctx, ctrlRouter, s); err != nil {
			t.Fatalf("control push: %v", err)
		}
		if err := pushRouted(ctx, haRouter, s); err != nil {
			t.Fatalf("ha push: %v", err)
		}
	}

	// Phase 1: evidence flows, one correction pass per tier, the standby
	// warms its mirrors without correcting (its triage pass counter must
	// stay aligned with the control's).
	rng := rand.New(rand.NewSource(53))
	for i := 0; i < 20; i++ {
		pushBoth(testBatch(rng))
	}
	if _, err := ctrl.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := primary.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := standby.PollOnce(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		standby.probePrimary(ctx) // healthy primary: tracks its epoch
	}
	if standby.Primary() {
		t.Fatal("standby promoted while the primary was healthy")
	}

	// The installation polls patches through the proxy with the standby
	// configured as fallback, and must never see its local set regress.
	poller := fleet.NewClient(proxy.URL(), "installation")
	poller.SetFallbacks(standbyTS.URL)
	local := patch.New()
	var cursor uint64
	poll := func(stage string) {
		t.Helper()
		delta, v, err := poller.Patches(cursor)
		if err != nil {
			t.Fatalf("%s: poll: %v", stage, err)
		}
		prev := local.Clone()
		local.Merge(delta)
		if d := prev.Diff(local); d.Len() != 0 {
			t.Fatalf("%s: patch set regressed — lost entries %s", stage, d)
		}
		cursor = v
	}
	poll("pre-failover")
	if local.Len() == 0 {
		t.Fatal("pre-failover poll returned an empty patch set")
	}

	// Phase 2 begins: half lands, then the primary is killed cold. The
	// second half indicts a new site, so the post-failover tier must
	// derive patches the dead primary never served.
	for i := 0; i < 10; i++ {
		pushBoth(testBatch(rng))
	}
	proxy.Drop()
	primaryTS.Close()

	// An upload whose ack was lost in the kill window is retried
	// verbatim. The dedup window lives on the partitions — which do not
	// fail over — so it drains exactly once on both clusters.
	inflight := testBatch(rng)
	for i, target := range []string{haURL1, ctrlURL1} {
		pc := fleet.NewClient(target, "inflight-client")
		b := &codec.Batch{BatchID: "e2e-inflight-0001", Snapshot: inflight}
		first, err := pc.PushBatchContext(ctx, b)
		if err != nil {
			t.Fatalf("in-flight push %d: %v", i, err)
		}
		if first.Duplicate {
			t.Fatalf("first delivery %d acked as duplicate", i)
		}
		retry, err := pc.PushBatchContext(ctx, b)
		if err != nil {
			t.Fatalf("in-flight retry %d: %v", i, err)
		}
		if !retry.Duplicate {
			t.Fatalf("retry %d was re-absorbed, want duplicate ack", i)
		}
	}

	// The standby's lease probes fail against the dead proxy and it
	// promotes itself — epoch strictly above anything the primary issued.
	for i := 0; i < 3; i++ {
		standby.probePrimary(ctx)
	}
	if !standby.Primary() {
		t.Fatal("standby did not promote after the primary died")
	}
	if standby.Epoch() <= primary.Epoch() {
		t.Fatalf("promoted epoch %d does not fence the dead primary's %d",
			standby.Epoch(), primary.Epoch())
	}

	// The poller's next poll rides the failover: transport error against
	// the proxy, rotation to the standby, epoch-driven resync from 0.
	poll("during failover")

	// Rest of phase 2 (with the newly indicted site) plus one final
	// correction pass per surviving tier.
	for i := 0; i < 8; i++ {
		s := testBatch(rng)
		s.Sites = append(s.Sites, lateGuiltySite)
		s.Overflow = append(s.Overflow, cumulative.SiteObservations{
			Site: lateGuiltySite,
			Obs:  []cumulative.Observation{{X: 0.1, Y: true}, {X: 0.15, Y: true}},
		})
		s.PadHints = append(s.PadHints, cumulative.PadHint{Site: lateGuiltySite, Pad: lateGuiltyPad})
		pushBoth(s)
	}
	if _, err := ctrl.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := standby.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	poll("post-failover")

	// The client's accumulated set equals the control's full set: no
	// entry lost across the kill, the new site's patch picked up from
	// the promoted tier.
	ctrlFull, _ := ctrl.PatchLog().Full()
	if !local.Equal(ctrlFull) {
		t.Fatalf("poller's accumulated set diverged from control:\npoller:  %s\ncontrol: %s", local, ctrlFull)
	}
	if local.Pad(lateGuiltySite) != lateGuiltyPad {
		t.Fatalf("post-failover patch for the late site missing: %s", local)
	}

	// Byte-identity with the never-failed control: the canonicalized
	// patch log (version and epoch normalized to 0 — they legitimately
	// differ across incarnations) and the raw triage ranking.
	ctrlBytes := canonicalPatchBytes(t, ctrl.PatchLog())
	haBytes := canonicalPatchBytes(t, standby.PatchLog())
	if !bytes.Equal(ctrlBytes, haBytes) {
		t.Fatalf("post-failover patch log diverged from control:\ncontrol: %s\nha:      %s", ctrlBytes, haBytes)
	}
	ctrlTriage := getBytes(t, ctrlTS.URL+"/v1/triage?limit=200")
	haTriage := getBytes(t, standbyTS.URL+"/v1/triage?limit=200")
	if !bytes.Equal(ctrlTriage, haTriage) {
		t.Fatalf("post-failover triage diverged from control:\ncontrol: %s\nha:      %s", ctrlTriage, haTriage)
	}

	// Exactly-once, cluster-wide: run totals match — nothing dropped in
	// the kill window, nothing double-counted by the retry.
	ctrlSt, haSt := ctrl.Status(), standby.Status()
	if ctrlSt.Runs != haSt.Runs || ctrlSt.Sites != haSt.Sites {
		t.Fatalf("totals diverged: control runs=%d sites=%d, ha runs=%d sites=%d",
			ctrlSt.Runs, ctrlSt.Sites, haSt.Runs, haSt.Sites)
	}
	if !haSt.Primary || haSt.LeaseHolder != "coord-b" {
		t.Fatalf("promoted standby status = %+v", haSt)
	}

	// Read fan-out rides the same failover: a replica pointed at the
	// pair serves the promoted tier's state, and an unmodified client
	// revalidating against it gets 304s (the fan-out hit path).
	rep, err := NewReplica(ReplicaOptions{Upstreams: []string{proxy.URL(), standbyTS.URL}})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.PollOnce(ctx); err != nil {
		t.Fatalf("replica poll across failover: %v", err)
	}
	repTS := httptest.NewServer(rep.Handler())
	defer repTS.Close()
	repPoller := fleet.NewClient(repTS.URL, "replica-poller")
	full, v, err := repPoller.Patches(0)
	if err != nil {
		t.Fatal(err)
	}
	if !full.Equal(ctrlFull) {
		t.Fatalf("replica-served set diverged from control:\nreplica: %s\ncontrol: %s", full, ctrlFull)
	}
	if delta, _, err := repPoller.Patches(v); err != nil || delta.Len() != 0 {
		t.Fatalf("replica revalidation poll = (%v, %v), want empty delta", delta, err)
	}
	st := rep.Status()
	if st.PatchNotModified != 1 || st.PatchRequests != 2 {
		t.Fatalf("replica 304 hit ratio %d/%d, want 1/2", st.PatchNotModified, st.PatchRequests)
	}
}
