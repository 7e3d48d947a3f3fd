package fleet

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"exterminator/internal/cumulative"
	"exterminator/internal/fleet/codec"
	"exterminator/internal/patch"
	"exterminator/internal/site"
	"exterminator/internal/triage"
)

// fuzzStateSeed builds a small valid fleetd state frame to seed the
// corpus: ring version, one evict entry, two dedup IDs, an alert blob,
// and evidence carrying every snapshot section.
func fuzzStateSeed() []byte {
	snap := &cumulative.Snapshot{
		C: 4, P: 0.5, Runs: 3,
		Sites: []site.ID{1, 2},
		Overflow: []cumulative.SiteObservations{
			{Site: 1, Obs: []cumulative.Observation{{X: 0.5, Y: true}}},
		},
		Dangling: []cumulative.PairObservations{
			{Alloc: 1, Free: 2, Obs: []cumulative.Observation{{X: 0.25, Y: false}}},
		},
		PadHints:      []cumulative.PadHint{{Site: 1, Pad: 16}},
		DeferralHints: []cumulative.DeferralHint{{Alloc: 1, Free: 2, Deferral: 64}},
	}
	return codec.EncodeState(&codec.Buffer{}, &codec.State{
		RingVersion: 7,
		Evidence:    snap,
		Dedup:       []string{"batch-a", "batch-b"},
		Evicts:      []codec.Evicted{{Token: "tok-1", Snapshot: snap}},
		Alerts:      []byte(`{"fired":{},"pending":[]}`),
	})
}

// stateFrame frames payload as a FrameState frame by hand, for
// payloads EncodeState would never write.
func stateFrame(payload []byte) []byte {
	frame := binary.LittleEndian.AppendUint32([]byte("XWF2\x01\x04"), uint32(len(payload)))
	return append(frame, payload...)
}

// FuzzXFSNDecode fuzzes fleetd's restore path, which reads only state
// frames: arbitrary bytes (truncations, forged length and count
// prefixes, the retired XFSN container) are decoded and, when they
// decode, restored into a fresh server. Neither step may panic or
// allocate from an untrusted prefix, and a state that restores must
// save again.
func FuzzXFSNDecode(f *testing.F) {
	seed := fuzzStateSeed()
	f.Add(seed)
	f.Add(seed[:len(seed)/2]) // truncated mid-frame
	f.Add(seed[:9])           // truncated inside the header
	f.Add([]byte{})
	f.Add([]byte("XFSN\x02\x00\x00\x00 retired-container-looking junk"))
	// Forged dedup count: a well-framed state claiming 2^40 IDs.
	payload := []byte{0, 0, 0, 0} // flags, ring version, no nodes, no mirrors
	payload = binary.AppendUvarint(payload, 1<<40)
	payload = append(payload, 1, 'x', 0, 0)
	f.Add(stateFrame(payload))
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := codec.DecodeState(data); err != nil {
			return
		}
		dir := t.TempDir()
		path := filepath.Join(dir, "fleet.snap")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		srv := NewServer(ServerOptions{CorrectEvery: -1})
		if err := srv.LoadSnapshot(path); err != nil {
			return // an alert blob that is not the alerter's JSON
		}
		if err := srv.SaveSnapshot(filepath.Join(dir, "again.snap")); err != nil {
			t.Fatalf("restored state does not save: %v", err)
		}
	})
}

// FuzzWirePatchLog fuzzes the JSON patch-set wire decoder (the GET
// /v1/patches body a person gets with curl, which patchmerge reads): any
// input either decodes into a re-encodable set or errors — truncation,
// trailing garbage, and type confusion must never panic.
func FuzzWirePatchLog(f *testing.F) {
	ps := testPatchSet()
	valid, err := json.Marshal(codec.ToWire(ps, 42))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(append(append([]byte(nil), valid...), valid...)) // trailing document
	f.Add([]byte(`{"version": 1, "pads": [{"site": -1, "pad": 1e99}]}`))
	f.Add([]byte(`{"version": "not a number"}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		set, version, err := DecodePatchSet(bytes.NewReader(data))
		if err != nil {
			return
		}
		if _, err := json.Marshal(codec.ToWire(set, version)); err != nil {
			t.Fatalf("re-encode of accepted patch set: %v", err)
		}
	})
}

// testPatchSet builds a patch set exercising all three tables.
func testPatchSet() *patch.Set {
	ps := patch.New()
	ps.AddPad(site.ID(0xBAD), 24)
	ps.AddFrontPad(site.ID(0xF00), 8)
	ps.AddDeferral(site.Pair{Alloc: 0xDA, Free: 0xDF}, 128)
	return ps
}

// FuzzClientReplies fuzzes every fleet.Client method that decodes a
// response body: a transport answers each request with 200 and the
// input, declaring its length for inputs of even length. Nothing may
// panic, and drained evidence or a delta that is accepted holds only
// probabilities: X in [0, 1].
func FuzzClientReplies(f *testing.F) {
	evidence := xSnapshot(0.25, false)
	evidence.Dangling = xSnapshot(1, true).Dangling
	frames := [][]byte{
		codec.EncodePatches(&codec.Buffer{}, codec.ToWire(testPatchSet(), 3)),
		codec.EncodeDelta(&codec.Buffer{}, &codec.Delta{Epoch: 1, Seq: 2, Snapshot: evidence, ReqIDs: []string{"r1"}}),
		codec.EncodeDelta(&codec.Buffer{}, &codec.Delta{Epoch: 1, Seq: 3, Ops: []codec.DeltaOp{{Evict: []site.ID{0x10}}, {Snapshot: evidence}}}),
		codec.EncodeDelta(&codec.Buffer{}, &codec.Delta{Epoch: 1, Seq: 2, Snapshot: xSnapshot(-0.5, false)}),
		codec.EncodeDelta(&codec.Buffer{}, &codec.Delta{Epoch: 1, Seq: 3, Ops: []codec.DeltaOp{{Snapshot: xSnapshot(-0.5, true)}}}),
		evictFrame("tok", evidence),
		evictFrame("tok", xSnapshot(-0.5, false)),
		evictFrame("tok", xSnapshot(-0.5, true)),
	}
	for _, fr := range frames {
		f.Add(fr)
	}
	docs := []any{
		triage.RankingReply{Total: 1, Clusters: []triage.ClusterSummary{{ID: "c1", Occurrences: 2, PooledBayes: 3.5}}},
		LeaseReply{Epoch: 3, Holder: "coord-a", Primary: true, PatchVersion: 2},
		StatusReply{Version: 2, Sites: 4, Runs: 9, Shards: []ShardStatus{{Sites: 4}}},
		MembershipReply{Version: 2, Nodes: []string{"http://p1", "http://p2"}},
		IngestReply{OK: true, Version: 1, Sites: 2, Runs: 3},
		RingReply{OK: true, Version: 4},
	}
	for _, d := range docs {
		doc, err := json.Marshal(d)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
		f.Add(append(doc, '\n'))
	}
	f.Add([]byte{})
	f.Add([]byte(`{"ok":true} trailing`))
	f.Fuzz(func(t *testing.T, data []byte) {
		ctx := context.Background()
		c := replyClient(data, len(data)%2 == 0)
		c.PatchesContext(ctx, 0)
		c.TriageRankings(ctx, 0, 10)
		c.Lease(ctx)
		c.Status()
		c.Membership(ctx)
		c.PushBatchContext(ctx, stampedBatch("fuzz", smallSnapshot(1, 0x10)))
		c.AnnounceRing(ctx, 4)
		if s, err := c.EvictKeys(ctx, "tok", nil, false); err == nil {
			checkProbabilities(t, "evict", s)
		}
		if d, err := c.Deltas(ctx, 0); err == nil {
			checkProbabilities(t, "delta", d.Snapshot)
			for _, op := range d.Ops {
				checkProbabilities(t, "delta op", op.Snapshot)
			}
		}
	})
}

// checkProbabilities fails t unless every observation s carries has an X
// in [0, 1].
func checkProbabilities(t *testing.T, what string, s *cumulative.Snapshot) {
	t.Helper()
	if s == nil {
		return
	}
	check := func(obs []cumulative.Observation) {
		for _, o := range obs {
			if !(o.X >= 0 && o.X <= 1) {
				t.Fatalf("accepted %s holds X = %v", what, o.X)
			}
		}
	}
	for _, g := range s.Overflow {
		check(g.Obs)
	}
	for _, g := range s.Dangling {
		check(g.Obs)
	}
}
