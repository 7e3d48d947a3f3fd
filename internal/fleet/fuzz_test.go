package fleet

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"exterminator/internal/cumulative"
	"exterminator/internal/fleet/codec"
	"exterminator/internal/patch"
	"exterminator/internal/site"
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
// /v1/patches body and the standalone .json patch file format): any
// input either decodes into a re-encodable set or errors — truncation,
// trailing garbage, and type confusion must never panic.
func FuzzWirePatchLog(f *testing.F) {
	ps := testPatchSet()
	var valid bytes.Buffer
	if err := EncodePatchSet(&valid, ps, 42); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()/2])
	f.Add(append(valid.Bytes(), valid.Bytes()...)) // trailing document
	f.Add([]byte(`{"version": 1, "pads": [{"site": -1, "pad": 1e99}]}`))
	f.Add([]byte(`{"version": "not a number"}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		set, version, err := DecodePatchSet(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := EncodePatchSet(&buf, set, version); err != nil {
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
