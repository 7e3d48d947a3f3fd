package fleet

import (
	"bytes"
	"encoding/binary"
	"testing"

	"exterminator/internal/cumulative"
	"exterminator/internal/patch"
	"exterminator/internal/site"
)

// fuzzSnapshotSeed builds a small valid XFSN container, in the one
// version the decoder accepts, to seed the corpus: ring version, one
// evict entry, two dedup IDs, and a history carrying every section
// (sites, overflow, dangling, hints, and a watermark with a lineage).
func fuzzSnapshotSeed(t testing.TB) []byte {
	hist := cumulative.NewHistory(cumulative.DefaultConfig())
	snap := &cumulative.Snapshot{
		Runs:  3,
		Sites: []site.ID{1, 2},
		Overflow: []cumulative.SiteObservations{
			{Site: 1, Obs: []cumulative.Observation{{X: 0.5, Y: true}}},
		},
		Dangling: []cumulative.PairObservations{
			{Alloc: 1, Free: 2, Obs: []cumulative.Observation{{X: 0.25, Y: false}}},
		},
		PadHints: []cumulative.PadHint{{Site: 1, Pad: 16}},
	}
	hist.Absorb(snap)
	// Acknowledge a first upload so the watermark (lineage included)
	// carries data.
	hist.MarkUploaded(hist.UploadDelta())
	hist.Absorb(&cumulative.Snapshot{Runs: 1, Sites: []site.ID{3}})
	st := fleetSnapState{
		hist:   hist,
		ring:   7,
		ids:    []string{"batch-a", "batch-b"},
		evicts: []evictEntry{{Token: "tok-1", Snap: snap}},
	}
	var buf bytes.Buffer
	if err := writeFleetSnapshot(&buf, st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzXFSNDecode fuzzes the fleet snapshot container decoder: corrupt,
// truncated, or adversarial input (forged length prefixes, implausible
// counts) must come back as an error — never a panic, and never an
// allocation sized by an untrusted prefix rather than the bytes present.
func FuzzXFSNDecode(f *testing.F) {
	seed := fuzzSnapshotSeed(f)
	f.Add(seed)
	f.Add(seed[:len(seed)/2]) // truncated mid-container
	f.Add(seed[:9])           // truncated inside the header
	f.Add([]byte{})
	f.Add([]byte("XTCH bare-history-looking junk"))
	// Forged dedup-id length prefix: header claims far more bytes than
	// the input holds.
	forged := append([]byte{}, seed[:12]...)
	binary.LittleEndian.PutUint32(forged[8:], 0xFFFFFF)
	f.Add(forged)
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := readFleetSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A successful decode must yield a usable history: re-encoding it
		// must not panic either.
		if st.hist == nil {
			t.Fatal("nil history with nil error")
		}
		var buf bytes.Buffer
		if err := st.hist.Encode(&buf); err != nil {
			t.Fatalf("re-encode of accepted snapshot: %v", err)
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
