package codec

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"exterminator/internal/cumulative"
	"exterminator/internal/site"
)

// testSnapshot builds a canonical snapshot with every section
// populated, via a History so the ordering invariants are the real
// ones.
func testSnapshot(t testing.TB) *cumulative.Snapshot {
	t.Helper()
	raw := &cumulative.Snapshot{Runs: 41, FailedRuns: 3, CorruptRuns: 2}
	for i := 0; i < 12; i++ {
		id := site.ID(0x1000 + i*7)
		raw.Sites = append(raw.Sites, id)
		g := cumulative.SiteObservations{Site: id}
		for j := 0; j < 3; j++ {
			g.Obs = append(g.Obs, cumulative.Observation{X: 0.25 * float64(j+1), Y: j == 0})
		}
		raw.Overflow = append(raw.Overflow, g)
		raw.PadHints = append(raw.PadHints, cumulative.PadHint{Site: id, Pad: uint32(8 + i)})
	}
	for i := 0; i < 5; i++ {
		alloc, free := site.ID(0x9000+i*3), site.ID(0x400+i)
		raw.Dangling = append(raw.Dangling, cumulative.PairObservations{
			Alloc: alloc, Free: free,
			Obs: []cumulative.Observation{{X: 0.5, Y: i%2 == 0}, {X: 0.125}},
		})
		raw.DeferralHints = append(raw.DeferralHints, cumulative.DeferralHint{
			Alloc: alloc, Free: free, Deferral: uint64(1000 + i),
		})
	}
	// Round through a history so the snapshot is canonical by the same
	// rules every real upload obeys.
	h := cumulative.NewHistory(cumulative.DefaultConfig())
	h.Absorb(raw)
	return h.Snapshot()
}

func TestSnapshotRoundTrip(t *testing.T) {
	snaps := map[string]*cumulative.Snapshot{
		"full":  testSnapshot(t),
		"empty": {},
		"counters-only": {
			C: 4, P: 0.5, Runs: 10, FailedRuns: 2, CorruptRuns: 1,
		},
		"unsorted-sites": {
			Sites: []site.ID{math.MaxUint32, 0, 7, 3},
		},
	}
	for name, s := range snaps {
		t.Run(name, func(t *testing.T) {
			buf := GetBuffer()
			defer PutBuffer(buf)
			appendSnapshot(buf, s)
			got, err := decodeSnapshotPayload(buf.B)
			if err != nil {
				t.Fatalf("decode snapshot payload: %v", err)
			}
			if !snapshotsEqual(got, s) {
				t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, s)
			}
		})
	}
}

// decodeSnapshotPayload decodes a bare snapshot payload, the section
// FrameBatch and FrameDelta embed.
func decodeSnapshotPayload(data []byte) (*cumulative.Snapshot, error) {
	r := &reader{b: data}
	s := readSnapshot(r)
	return s, r.finish()
}

// snapshotsEqual compares treating nil and empty slices alike.
func snapshotsEqual(a, b *cumulative.Snapshot) bool {
	norm := func(s *cumulative.Snapshot) cumulative.Snapshot {
		c := *s
		if len(c.Sites) == 0 {
			c.Sites = nil
		}
		if len(c.Overflow) == 0 {
			c.Overflow = nil
		}
		if len(c.Dangling) == 0 {
			c.Dangling = nil
		}
		if len(c.PadHints) == 0 {
			c.PadHints = nil
		}
		if len(c.DeferralHints) == 0 {
			c.DeferralHints = nil
		}
		return c
	}
	return reflect.DeepEqual(norm(a), norm(b))
}

func TestBatchRoundTrip(t *testing.T) {
	b := &Batch{
		Client:      "client-a",
		BatchID:     "0123456789abcdef",
		RingVersion: 7,
		Snapshot:    testSnapshot(t),
	}
	buf := GetBuffer()
	defer PutBuffer(buf)
	frame := EncodeBatch(buf, b)
	got, err := DecodeBatch(frame)
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	if got.Client != b.Client || got.BatchID != b.BatchID || got.RingVersion != b.RingVersion {
		t.Fatalf("header mismatch: %+v", got)
	}
	if !snapshotsEqual(got.Snapshot, b.Snapshot) {
		t.Fatalf("snapshot mismatch")
	}

	// No-snapshot batches keep their nil.
	buf2 := GetBuffer()
	defer PutBuffer(buf2)
	frame2 := EncodeBatch(buf2, &Batch{Client: "c"})
	got2, err := DecodeBatch(frame2)
	if err != nil {
		t.Fatalf("DecodeBatch(no snapshot): %v", err)
	}
	if got2.Snapshot != nil {
		t.Fatalf("expected nil snapshot, got %+v", got2.Snapshot)
	}
}

// xSnapshot is a one-upload snapshot whose second observation, in the
// overflow or the dangling section, carries x.
func xSnapshot(x float64, dangling bool) *cumulative.Snapshot {
	s := &cumulative.Snapshot{Runs: 1, Sites: []site.ID{0x10, 0x20}}
	obs := []cumulative.Observation{{X: 0.5}, {X: x, Y: true}}
	if dangling {
		s.Dangling = []cumulative.PairObservations{{Alloc: 0x20, Free: 0x21, Obs: obs}}
	} else {
		s.Overflow = []cumulative.SiteObservations{{Site: 0x10, Obs: obs}}
	}
	return s
}

// TestBatchDecodeRejectsNonProbabilityX: an uploaded observation's X is
// a probability. Both batch decoders reject NaN, infinities and values
// outside [0, 1] in either section and accept the bounds; delta frames
// between tiers still carry whatever a partition absorbed.
func TestBatchDecodeRejectsNonProbabilityX(t *testing.T) {
	shardOf := func(id site.ID) int { return int(uint32(id) % 4) }
	decode := func(x float64, dangling bool) (batchErr, shardedErr, deltaErr error) {
		buf := GetBuffer()
		defer PutBuffer(buf)
		s := xSnapshot(x, dangling)
		batch := append([]byte(nil), EncodeBatch(buf, &Batch{Client: "c", BatchID: "b", Snapshot: s})...)
		_, batchErr = DecodeBatch(batch)
		_, _, shardedErr = DecodeBatchSharded(batch, 4, shardOf)
		buf.B = buf.B[:0]
		_, deltaErr = DecodeDelta(EncodeDelta(buf, &Delta{Epoch: 1, Seq: 1, Snapshot: s}))
		return batchErr, shardedErr, deltaErr
	}
	for _, dangling := range []bool{false, true} {
		for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 7, -3, math.Nextafter(1, 2), -math.SmallestNonzeroFloat64} {
			batchErr, shardedErr, deltaErr := decode(x, dangling)
			if batchErr == nil || shardedErr == nil {
				t.Errorf("dangling=%v X=%v: DecodeBatch err %v, DecodeBatchSharded err %v; want both rejected",
					dangling, x, batchErr, shardedErr)
			}
			if deltaErr != nil {
				t.Errorf("dangling=%v X=%v: delta frame rejected: %v", dangling, x, deltaErr)
			}
		}
		for _, x := range []float64{0, 1, 0.5, math.SmallestNonzeroFloat64} {
			if batchErr, shardedErr, _ := decode(x, dangling); batchErr != nil || shardedErr != nil {
				t.Errorf("dangling=%v X=%v rejected: %v / %v", dangling, x, batchErr, shardedErr)
			}
		}
	}
}

func TestDecodeBatchSharded(t *testing.T) {
	const shards = 8
	shardOf := func(id site.ID) int {
		return int((uint32(id) * 2654435761) % uint32(shards))
	}
	orig := testSnapshot(t)
	b := &Batch{Client: "c", BatchID: "id", RingVersion: 3, Snapshot: orig}
	buf := GetBuffer()
	defer PutBuffer(buf)
	frame := EncodeBatch(buf, b)

	info, parts, err := DecodeBatchSharded(frame, shards, shardOf)
	if err != nil {
		t.Fatalf("DecodeBatchSharded: %v", err)
	}
	if info.Client != "c" || info.BatchID != "id" || info.RingVersion != 3 || !info.HasSnapshot {
		t.Fatalf("info mismatch: %+v", info)
	}
	wantObs := 0
	for _, g := range orig.Overflow {
		wantObs += len(g.Obs)
	}
	for _, g := range orig.Dangling {
		wantObs += len(g.Obs)
	}
	if info.Observations != wantObs {
		t.Fatalf("info.Observations = %d, want %d", info.Observations, wantObs)
	}
	if info.Runs != orig.Runs {
		t.Fatalf("info.Runs = %d, want %d", info.Runs, orig.Runs)
	}
	if len(parts) != shards {
		t.Fatalf("len(parts) = %d, want %d", len(parts), shards)
	}

	// Every key must land in its own shard, counters in exactly one part.
	runs, failed, corrupt := 0, 0, 0
	for i, p := range parts {
		if p == nil {
			continue
		}
		runs += p.Runs
		failed += p.FailedRuns
		corrupt += p.CorruptRuns
		if p.C != orig.C || p.P != orig.P {
			t.Fatalf("part %d lost config: %+v", i, p)
		}
		for _, id := range p.Sites {
			if shardOf(id) != i {
				t.Fatalf("site %v in shard %d, want %d", id, i, shardOf(id))
			}
		}
		for _, g := range p.Overflow {
			if shardOf(g.Site) != i {
				t.Fatalf("overflow %v misplaced", g.Site)
			}
		}
		for _, g := range p.Dangling {
			if shardOf(g.Alloc) != i {
				t.Fatalf("dangling %v misplaced", g.Alloc)
			}
		}
	}
	if runs != orig.Runs || failed != orig.FailedRuns || corrupt != orig.CorruptRuns {
		t.Fatalf("counters (%d,%d,%d), want (%d,%d,%d)",
			runs, failed, corrupt, orig.Runs, orig.FailedRuns, orig.CorruptRuns)
	}

	// Absorbing all parts reproduces exactly the original evidence.
	merged := cumulative.NewHistory(cumulative.DefaultConfig())
	for _, p := range parts {
		merged.Absorb(p)
	}
	control := cumulative.NewHistory(cumulative.DefaultConfig())
	control.Absorb(orig)
	if !snapshotsEqual(merged.Snapshot(), control.Snapshot()) {
		t.Fatalf("sharded absorb diverges from whole-batch absorb")
	}
}

func TestDecodeBatchShardedCountersWithoutEvidence(t *testing.T) {
	b := &Batch{Snapshot: &cumulative.Snapshot{C: 4, P: 0.5, Runs: 9}}
	buf := GetBuffer()
	defer PutBuffer(buf)
	frame := EncodeBatch(buf, b)
	_, parts, err := DecodeBatchSharded(frame, 4, func(site.ID) int { return 0 })
	if err != nil {
		t.Fatalf("DecodeBatchSharded: %v", err)
	}
	total := 0
	for _, p := range parts {
		if p != nil {
			total += p.Runs
		}
	}
	if total != 9 {
		t.Fatalf("counters-only batch lost its runs: %d", total)
	}
}

func TestPatchesRoundTrip(t *testing.T) {
	ps := &PatchSet{
		Version:   12,
		Epoch:     99,
		Pads:      []PadEntry{{Site: 1, Pad: 8}, {Site: 500, Pad: 64}},
		FrontPads: []PadEntry{{Site: 77, Pad: 16}},
		Deferrals: []DeferralEntry{
			{Alloc: 3, Free: 9, Deferral: 1000},
			{Alloc: 3, Free: 10, Deferral: 2000},
			{Alloc: 800, Free: 1, Deferral: 5},
		},
	}
	buf := GetBuffer()
	defer PutBuffer(buf)
	frame := EncodePatches(buf, ps)
	got, err := DecodePatches(frame)
	if err != nil {
		t.Fatalf("DecodePatches: %v", err)
	}
	if !reflect.DeepEqual(got, ps) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, ps)
	}
}

func TestDeltaRoundTrip(t *testing.T) {
	deltas := map[string]*Delta{
		"snapshot": {
			Epoch: 5, Seq: 17,
			Snapshot: testSnapshot(t),
			ReqIDs:   []string{"r1", "r2"},
		},
		"full": {
			Epoch: 5, Seq: 17, Full: true,
			Snapshot: testSnapshot(t),
		},
		"ops": {
			Epoch: 2, Seq: 9,
			Ops: []DeltaOp{
				{Snapshot: testSnapshot(t)},
				{Evict: []site.ID{1, 2, 0x9000}},
				{Snapshot: &cumulative.Snapshot{Runs: 1}},
			},
			ReqIDs: []string{"a"},
		},
		"empty": {Epoch: 1, Seq: 2},
	}
	for name, d := range deltas {
		t.Run(name, func(t *testing.T) {
			buf := GetBuffer()
			defer PutBuffer(buf)
			frame := EncodeDelta(buf, d)
			got, err := DecodeDelta(frame)
			if err != nil {
				t.Fatalf("DecodeDelta: %v", err)
			}
			if got.Epoch != d.Epoch || got.Seq != d.Seq || got.Full != d.Full {
				t.Fatalf("header mismatch: %+v", got)
			}
			if !reflect.DeepEqual(got.ReqIDs, d.ReqIDs) {
				t.Fatalf("reqIDs mismatch: %v vs %v", got.ReqIDs, d.ReqIDs)
			}
			if (got.Snapshot == nil) != (d.Snapshot == nil) ||
				(got.Snapshot != nil && !snapshotsEqual(got.Snapshot, d.Snapshot)) {
				t.Fatalf("snapshot mismatch")
			}
			if len(got.Ops) != len(d.Ops) {
				t.Fatalf("ops mismatch: %d vs %d", len(got.Ops), len(d.Ops))
			}
			for i := range d.Ops {
				if !reflect.DeepEqual(got.Ops[i].Evict, d.Ops[i].Evict) {
					t.Fatalf("op %d evict mismatch", i)
				}
				if (got.Ops[i].Snapshot == nil) != (d.Ops[i].Snapshot == nil) {
					t.Fatalf("op %d snapshot presence mismatch", i)
				}
				if got.Ops[i].Snapshot != nil && !snapshotsEqual(got.Ops[i].Snapshot, d.Ops[i].Snapshot) {
					t.Fatalf("op %d snapshot mismatch", i)
				}
			}
		})
	}
}

func TestParseFrameRejects(t *testing.T) {
	buf := GetBuffer()
	defer PutBuffer(buf)
	frame := append([]byte(nil), EncodeBatch(buf, &Batch{Client: "x", Snapshot: testSnapshot(t)})...)

	cases := map[string][]byte{
		"short":       frame[:5],
		"bad magic":   append([]byte("NOPE"), frame[4:]...),
		"bad version": append([]byte("XWF2\x7f"), frame[5:]...),
		"truncated":   frame[:len(frame)-3],
		"trailing":    append(append([]byte(nil), frame...), 0xEE),
	}
	// Forged length prefix: declare far more payload than present.
	forged := append([]byte(nil), frame...)
	binary.LittleEndian.PutUint32(forged[6:10], 1<<28)
	cases["forged length"] = forged

	for name, data := range cases {
		if _, _, err := ParseFrame(data); err == nil {
			t.Errorf("%s: ParseFrame accepted invalid frame", name)
		}
	}
	if _, err := DecodePatches(frame); err == nil {
		t.Errorf("DecodePatches accepted a batch frame")
	}
}

func TestForgedCountsFailBeforeAllocating(t *testing.T) {
	// A syntactically valid frame whose site count claims 2^40 entries
	// must be rejected by the remaining-bytes check, not attempted.
	buf := GetBuffer()
	defer PutBuffer(buf)
	start := buf.beginFrame(FrameBatch)
	buf.u8(batchFlagSnapshot)
	buf.str("")
	buf.str("")
	buf.uvarint(0)
	buf.f64(4)
	buf.f64(0.5)
	buf.uvarint(0)
	buf.uvarint(0)
	buf.uvarint(0)
	buf.uvarint(1 << 40) // forged site count
	frame := buf.endFrame(start)
	if _, err := DecodeBatch(frame); err == nil {
		t.Fatal("forged site count decoded")
	}
	if _, _, err := DecodeBatchSharded(frame, 4, func(site.ID) int { return 0 }); err == nil {
		t.Fatal("forged site count decoded (sharded)")
	}
}

func TestBatchIDStable(t *testing.T) {
	s := testSnapshot(t)
	a := BatchID("client", 7, 10, 20, s)
	b := BatchID("client", 7, 10, 20, s)
	if a != b {
		t.Fatalf("BatchID not deterministic: %s vs %s", a, b)
	}
	if BatchID("client", 7, 10, 21, s) == a {
		t.Fatal("BatchID ignores watermark position")
	}
	if BatchID("other", 7, 10, 20, s) == a {
		t.Fatal("BatchID ignores client")
	}
	if BatchID("client", 8, 10, 20, s) == a {
		t.Fatal("BatchID ignores lineage")
	}
	if len(a) != 32 {
		t.Fatalf("BatchID length %d, want 32 hex chars", len(a))
	}
}

// TestBatchIDStableAndDiscriminating: the ID is a pure function of
// (client, lineage, watermark position, content) — identical for a
// verbatim retry, different for any other batch.
func TestBatchIDStableAndDiscriminating(t *testing.T) {
	snap := func() *cumulative.Snapshot {
		return &cumulative.Snapshot{
			C: 4, P: 0.5, Runs: 3,
			Sites: []site.ID{0x10, 0x20},
			Overflow: []cumulative.SiteObservations{
				{Site: 0x10, Obs: []cumulative.Observation{{X: 0.25, Y: true}}},
			},
		}
	}
	base := BatchID("client-a", 1, 5, 17, snap())
	if got := BatchID("client-a", 1, 5, 17, snap()); got != base {
		t.Fatalf("retry of an identical batch changed ID: %s vs %s", got, base)
	}
	for name, got := range map[string]string{
		"client":               BatchID("client-b", 1, 5, 17, snap()),
		"lineage":              BatchID("client-a", 2, 5, 17, snap()),
		"watermark runs":       BatchID("client-a", 1, 6, 17, snap()),
		"watermark obs":        BatchID("client-a", 1, 5, 18, snap()),
		"content":              BatchID("client-a", 1, 5, 17, &cumulative.Snapshot{C: 4, P: 0.5, Runs: 4}),
		"lineage and position": BatchID("client-a", 0, 0, 0, snap()),
	} {
		if got == base {
			t.Errorf("different %s, same ID", name)
		}
	}
	// The lineage rides on the snapshot for the caller's convenience but
	// is not hashed from there: only the argument counts.
	tagged := snap()
	tagged.Lineage = 99
	if got := BatchID("client-a", 1, 5, 17, tagged); got != base {
		t.Fatal("snapshot's Lineage field leaked into the content hash")
	}
}
