package codec

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
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

// TestBatchDecodeRejectsNonProbabilityX: an observation's X is a
// probability. The batch decoder and the delta decoder, for a delta's
// tail snapshot and for an ordered delta's op alike, reject NaN,
// infinities and values outside [0, 1] in either section and accept the
// bounds: a delta comes from another process as much as a batch does.
func TestBatchDecodeRejectsNonProbabilityX(t *testing.T) {
	decode := func(x float64, dangling bool) (batchErr, deltaErr, opErr error) {
		buf := GetBuffer()
		defer PutBuffer(buf)
		s := xSnapshot(x, dangling)
		batch := append([]byte(nil), EncodeBatch(buf, &Batch{Client: "c", BatchID: "b", Snapshot: s})...)
		_, batchErr = DecodeBatch(batch)
		buf.B = buf.B[:0]
		_, deltaErr = DecodeDelta(EncodeDelta(buf, &Delta{Epoch: 1, Seq: 1, Snapshot: s}))
		buf.B = buf.B[:0]
		_, opErr = DecodeDelta(EncodeDelta(buf, &Delta{Epoch: 1, Seq: 1, Ops: []DeltaOp{{Evict: []site.ID{3}}, {Snapshot: s}}}))
		return batchErr, deltaErr, opErr
	}
	for _, dangling := range []bool{false, true} {
		for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 7, 2, -3, -0.5, math.Nextafter(1, 2), -math.SmallestNonzeroFloat64} {
			batchErr, deltaErr, opErr := decode(x, dangling)
			if batchErr == nil {
				t.Errorf("dangling=%v X=%v: DecodeBatch accepted it; want it rejected", dangling, x)
			}
			if deltaErr == nil {
				t.Errorf("dangling=%v X=%v: DecodeDelta accepted it; want it rejected", dangling, x)
			}
			if opErr == nil {
				t.Errorf("dangling=%v X=%v: DecodeDelta accepted it in an op; want it rejected", dangling, x)
			}
		}
		for _, x := range []float64{0, 1, 0.5, math.SmallestNonzeroFloat64} {
			batchErr, deltaErr, opErr := decode(x, dangling)
			if batchErr != nil || deltaErr != nil || opErr != nil {
				t.Errorf("dangling=%v X=%v rejected: batch %v, delta %v, op %v", dangling, x, batchErr, deltaErr, opErr)
			}
		}
	}
}

// TestStateDecodeRejectsNonProbabilityX: a state file holds evidence a
// daemon absorbed from checked batches, so DecodeState applies the same
// X check to each of its evidence sections — the store, a mirror and an
// evict entry — and accepts the bounds.
func TestStateDecodeRejectsNonProbabilityX(t *testing.T) {
	states := func(s *cumulative.Snapshot) map[string]*State {
		return map[string]*State{
			"evidence": {Evidence: s},
			"mirror":   {Mirrors: []Mirror{{Base: "p", Snapshot: s}}},
			"evict":    {Evicts: []Evicted{{Token: "t", Snapshot: s}}},
		}
	}
	for _, dangling := range []bool{false, true} {
		for _, x := range []float64{math.NaN(), math.Inf(1), 7, -3} {
			for section, st := range states(xSnapshot(x, dangling)) {
				if _, err := DecodeState(EncodeState(&Buffer{}, st)); err == nil {
					t.Errorf("%s dangling=%v X=%v: decoded", section, dangling, x)
				}
			}
		}
		for _, x := range []float64{0, 1} {
			for section, st := range states(xSnapshot(x, dangling)) {
				if _, err := DecodeState(EncodeState(&Buffer{}, st)); err != nil {
					t.Errorf("%s dangling=%v X=%v rejected: %v", section, dangling, x, err)
				}
			}
		}
	}
}

// TestStateSnapshotCountsAreTight: mirror and evict counts are checked
// against minSnapshotBytes, which must be exactly what an empty snapshot
// payload costs; a forged count fails before anything is sized from it.
func TestStateSnapshotCountsAreTight(t *testing.T) {
	buf := &Buffer{}
	appendSnapshot(buf, &cumulative.Snapshot{})
	if len(buf.B) != minSnapshotBytes {
		t.Fatalf("empty snapshot payload is %d bytes, minSnapshotBytes says %d", len(buf.B), minSnapshotBytes)
	}
	empty := EncodeState(&Buffer{}, &State{Mirrors: []Mirror{{}}, Evicts: []Evicted{{}}})
	got, err := DecodeState(empty)
	if err != nil || len(got.Mirrors) != 1 || len(got.Evicts) != 1 {
		t.Fatalf("state with empty mirror and evict entry: %+v, %v", got, err)
	}
	for _, section := range []string{"mirror", "evict"} {
		fb := &Buffer{}
		start := fb.beginFrame(FrameState)
		fb.u8(0)      // flags
		fb.uvarint(0) // ring version
		fb.uvarint(0) // nodes
		if section == "evict" {
			fb.uvarint(0) // mirrors
			fb.uvarint(0) // dedup
		}
		fb.uvarint(1 << 40) // forged count
		if _, err := DecodeState(fb.endFrame(start)); err == nil {
			t.Errorf("forged %s count decoded", section)
		}
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
}

// TestDecodeBatchAllocsFlat pins the decoder's allocation shape: one
// exact-size slice per column and one backing observation array per
// section, whatever the batch's size. A decode that allocated per group
// or per observation would take more allocations at 10,000 groups than
// at 10.
func TestDecodeBatchAllocsFlat(t *testing.T) {
	allocs := func(groups int) float64 {
		s := &cumulative.Snapshot{C: 4, P: 0.5, Runs: groups, FailedRuns: 1}
		for i := 0; i < groups; i++ {
			id := site.ID(0x1000 + i)
			s.Sites = append(s.Sites, id)
			s.Overflow = append(s.Overflow, cumulative.SiteObservations{
				Site: id, Obs: []cumulative.Observation{{X: 0.25, Y: i%3 == 0}, {X: 0.5}},
			})
			s.Dangling = append(s.Dangling, cumulative.PairObservations{
				Alloc: id, Free: id + 1, Obs: []cumulative.Observation{{X: 0.75, Y: true}},
			})
			s.PadHints = append(s.PadHints, cumulative.PadHint{Site: id, Pad: 8})
			s.DeferralHints = append(s.DeferralHints, cumulative.DeferralHint{Alloc: id, Free: id + 1, Deferral: 100})
		}
		frame := EncodeBatch(&Buffer{}, &Batch{Client: "c", BatchID: "b", RingVersion: 1, Snapshot: s})
		return testing.AllocsPerRun(20, func() {
			if _, err := DecodeBatch(frame); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(10), allocs(10000); small != large {
		t.Errorf("decoding a batch allocates %v times at 10 groups but %v at 10,000", small, large)
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

// TestWriteFileModes: a patch file is mode 0644, since users share patch
// files (§6.4); state and history files hold evidence and are mode 0600.
func TestWriteFileModes(t *testing.T) {
	dir := t.TempDir()
	for name, c := range map[string]struct {
		frame []byte
		perm  os.FileMode
	}{
		"patches": {EncodePatches(&Buffer{}, &PatchSet{Pads: []PadEntry{{Site: 1, Pad: 8}}}), 0o644},
		"state":   {EncodeState(&Buffer{}, &State{RingVersion: 3}), 0o600},
		"history": {EncodeHistory(&Buffer{}, cumulative.NewHistory(cumulative.DefaultConfig())), 0o600},
	} {
		path := filepath.Join(dir, name)
		if err := WriteFile(path, c.frame); err != nil {
			t.Fatal(err)
		}
		if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != c.perm {
			t.Errorf("%s file mode %v (%v), want %v", name, fi.Mode(), err, c.perm)
		}
	}
}

// TestWriteFileKeepsPreviousOnUnreadableFrame: a frame ParseFrame would
// refuse, as one beyond MaxFrameBytes is once its u32 length wraps, is a
// save error, and the file keeps its previous contents.
func TestWriteFileKeepsPreviousOnUnreadableFrame(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state")
	good := EncodeState(&Buffer{}, &State{RingVersion: 3})
	if err := WriteFile(path, good); err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), EncodeState(&Buffer{}, &State{RingVersion: 4})...)
	binary.LittleEndian.PutUint32(bad[6:10], uint32(len(bad)))
	if err := WriteFile(path, bad); err == nil {
		t.Fatal("a frame whose length disagrees with its body was written")
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, good) {
		t.Fatalf("previous file not kept: %v", err)
	}
}
