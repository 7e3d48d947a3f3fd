package codec

import (
	"bytes"
	"math"
	"testing"

	"exterminator/internal/cumulative"
	"exterminator/internal/patch"
	"exterminator/internal/site"
)

// FuzzV2FrameDecode drives every v2 frame decoder, and the snapshot
// payload decoder the batch, delta and state frames embed, with
// arbitrary bytes: no panic, and no allocation sized from a forged
// length or count prefix (every decoder validates counts against the
// bytes actually present first). Valid frames that decode must
// re-encode and decode to the same value — a cheap round-trip oracle on
// top of crash safety — and every batch, delta, state or history that
// decodes carries only probabilities as X. A patches frame is also a
// patch file: the set it decodes to survives the patch file's frame and
// the text form unchanged.
func FuzzV2FrameDecode(f *testing.F) {
	// Seed with one valid frame of each type and one bare snapshot
	// payload, so mutation starts from structurally plausible inputs.
	snap := &cumulative.Snapshot{
		C: 4, P: 0.5, Runs: 3, FailedRuns: 1,
		Sites: []site.ID{0x10, 0x20},
		Overflow: []cumulative.SiteObservations{
			{Site: 0x10, Obs: []cumulative.Observation{{X: 0.25, Y: true}, {X: 0.5}}},
		},
		Dangling: []cumulative.PairObservations{
			{Alloc: 0x20, Free: 0x21, Obs: []cumulative.Observation{{X: 0.125}}},
		},
		PadHints:      []cumulative.PadHint{{Site: 0x10, Pad: 8}},
		DeferralHints: []cumulative.DeferralHint{{Alloc: 0x20, Free: 0x21, Deferral: 100}},
	}
	buf := GetBuffer()
	f.Add(append([]byte(nil), EncodeBatch(buf, &Batch{Client: "c", BatchID: "b", RingVersion: 1, Snapshot: snap})...))
	buf.B = buf.B[:0]
	appendSnapshot(buf, snap)
	f.Add(append([]byte(nil), buf.B...))
	buf.B = buf.B[:0]
	f.Add(append([]byte(nil), EncodePatches(buf, &PatchSet{
		Version: 2, Epoch: 7,
		Pads:      []PadEntry{{Site: 1, Pad: 16}},
		FrontPads: []PadEntry{{Site: 2, Pad: 8}},
		Deferrals: []DeferralEntry{{Alloc: 3, Free: 4, Deferral: 9}},
	})...))
	buf.B = buf.B[:0]
	whole := append([]byte(nil), EncodeDelta(buf, &Delta{
		Epoch: 1, Seq: 5, Snapshot: snap, ReqIDs: []string{"r"},
		Ops: []DeltaOp{{Evict: []site.ID{1, 2}}},
	})...)
	PutBuffer(buf)
	f.Add(whole)
	// Truncations and a forged length prefix as explicit seeds.
	if len(whole) > 12 {
		f.Add(whole[:12:12])
	}
	f.Add([]byte("XWF2\x01\x01\xff\xff\xff\x7f"))
	// Batches whose X is no probability: they must not decode.
	for _, x := range []float64{math.NaN(), 7, -3} {
		for _, dangling := range []bool{false, true} {
			buf := GetBuffer()
			f.Add(append([]byte(nil), EncodeBatch(buf, &Batch{Client: "c", BatchID: "b", Snapshot: xSnapshot(x, dangling)})...))
			PutBuffer(buf)
		}
	}
	f.Add(EncodeState(&Buffer{}, &State{
		RingVersion: 3, Nodes: []string{"n"},
		Mirrors:  []Mirror{{Base: "n", Seq: 5, Epoch: 1, Snapshot: snap}},
		Evidence: snap, Dedup: []string{"b"},
		Evicts: []Evicted{{Token: "t", Snapshot: snap}},
		Alerts: []byte("{}"),
	}))
	// A history file with part of it uploaded, then history frames whose
	// X is no probability, a truncation and a forged count.
	uploaded := *snap
	uploaded.Lineage = 0x29
	history := EncodeHistory(&Buffer{}, cumulative.Restore(&uploaded, &cumulative.Snapshot{
		Runs:     1,
		Overflow: []cumulative.SiteObservations{{Site: 0x10, Obs: []cumulative.Observation{{X: 0.75}}}},
	}))
	f.Add(history)
	for _, x := range []float64{math.NaN(), -0.5, 2} {
		f.Add(historyFrame(&cumulative.Snapshot{}, xSnapshot(x, false)))
	}
	f.Add(history[:len(history)/2])
	f.Add(forgedHistoryFrame())
	// Patch files: zero entries and a repeated site, and a whole file
	// with a byte after it.
	patchFile := EncodePatches(&Buffer{}, &PatchSet{
		Pads:      []PadEntry{{Site: 7}, {Site: 9, Pad: 64}, {Site: 9, Pad: 8}},
		FrontPads: []PadEntry{{Site: 2}},
		Deferrals: []DeferralEntry{{Alloc: 1, Free: 2}, {Alloc: 0xffffffff, Free: 0xffffffff, Deferral: 1 << 40}},
	})
	f.Add(patchFile)
	f.Add(append(append([]byte(nil), patchFile...), 0))
	// Deltas whose X is no probability, in the tail snapshot and in an op.
	for _, x := range []float64{math.NaN(), -0.5, 2} {
		f.Add(EncodeDelta(&Buffer{}, &Delta{Epoch: 1, Seq: 2, Snapshot: xSnapshot(x, false)}))
		f.Add(EncodeDelta(&Buffer{}, &Delta{Epoch: 1, Seq: 2, Ops: []DeltaOp{{Snapshot: xSnapshot(x, true)}}}))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if b, err := DecodeBatch(data); err == nil {
			if b.Snapshot != nil {
				assertProbabilities(t, b.Snapshot)
			}
			rt := GetBuffer()
			re := EncodeBatch(rt, b)
			if _, err := DecodeBatch(re); err != nil {
				t.Fatalf("re-decode batch: %v", err)
			}
			PutBuffer(rt)
		}
		if s, err := decodeSnapshotPayload(data); err == nil {
			rt := GetBuffer()
			appendSnapshot(rt, s)
			if _, err := decodeSnapshotPayload(rt.B); err != nil {
				t.Fatalf("re-decode snapshot payload: %v", err)
			}
			PutBuffer(rt)
		}
		if ps, err := DecodePatches(data); err == nil {
			rt := GetBuffer()
			re := EncodePatches(rt, ps)
			if _, err := DecodePatches(re); err != nil {
				t.Fatalf("re-decode patches: %v", err)
			}
			PutBuffer(rt)
			checkPatchRoundTrips(t, ps.Set())
		}
		if st, err := DecodeState(data); err == nil {
			for _, s := range stateSnapshots(st) {
				assertProbabilities(t, s)
			}
			// Compare encodings, not values: c and p may be NaN.
			re := EncodeState(&Buffer{}, st)
			back, err := DecodeState(re)
			if err != nil {
				t.Fatalf("re-decode state: %v", err)
			}
			if !bytes.Equal(EncodeState(&Buffer{}, back), re) {
				t.Fatalf("state round trip diverged")
			}
		}
		if h, err := DecodeHistory(data); err == nil {
			uploaded, pending := h.Split()
			assertProbabilities(t, uploaded)
			assertProbabilities(t, pending)
			re := EncodeHistory(&Buffer{}, h)
			back, err := DecodeHistory(re)
			if err != nil {
				t.Fatalf("re-decode history: %v", err)
			}
			if !back.Equal(h) || !bytes.Equal(EncodeHistory(&Buffer{}, back), re) {
				t.Fatalf("history round trip diverged")
			}
		}
		if d, err := DecodeDelta(data); err == nil {
			for _, s := range deltaSnapshots(d) {
				assertProbabilities(t, s)
			}
			rt := GetBuffer()
			re := EncodeDelta(rt, d)
			if _, err := DecodeDelta(re); err != nil {
				t.Fatalf("re-decode delta: %v", err)
			}
			PutBuffer(rt)
		}
	})
}

// checkPatchRoundTrips fails unless s survives a patch file's frame and
// the text form unchanged.
func checkPatchRoundTrips(t *testing.T, s *patch.Set) {
	t.Helper()
	back, err := DecodePatches(EncodePatches(&Buffer{}, ToWire(s, 0)))
	if err != nil {
		t.Fatalf("an accepted set's patch file does not decode: %v", err)
	}
	if !back.Set().Equal(s) {
		t.Fatalf("patch file round trip: %q, want %q", back.Set(), s)
	}
	var text bytes.Buffer
	if err := s.EncodeText(&text); err != nil {
		t.Fatal(err)
	}
	fromText, err := patch.DecodeText(&text)
	if err != nil {
		t.Fatalf("an accepted set's text does not decode: %v", err)
	}
	if !fromText.Equal(s) {
		t.Fatalf("text round trip: %q, want %q", fromText, s)
	}
}

// deltaSnapshots lists every snapshot d carries.
func deltaSnapshots(d *Delta) []*cumulative.Snapshot {
	var out []*cumulative.Snapshot
	if d.Snapshot != nil {
		out = append(out, d.Snapshot)
	}
	for _, op := range d.Ops {
		if op.Snapshot != nil {
			out = append(out, op.Snapshot)
		}
	}
	return out
}

// stateSnapshots lists every evidence section of st.
func stateSnapshots(st *State) []*cumulative.Snapshot {
	var out []*cumulative.Snapshot
	if st.Evidence != nil {
		out = append(out, st.Evidence)
	}
	for _, m := range st.Mirrors {
		out = append(out, m.Snapshot)
	}
	for _, e := range st.Evicts {
		out = append(out, e.Snapshot)
	}
	return out
}

// assertProbabilities fails unless every observation X in s lies in
// [0, 1].
func assertProbabilities(t *testing.T, s *cumulative.Snapshot) {
	t.Helper()
	for _, g := range s.Overflow {
		for _, o := range g.Obs {
			if !(o.X >= 0 && o.X <= 1) {
				t.Fatalf("decoded overflow X %v outside [0, 1]", o.X)
			}
		}
	}
	for _, g := range s.Dangling {
		for _, o := range g.Obs {
			if !(o.X >= 0 && o.X <= 1) {
				t.Fatalf("decoded dangling X %v outside [0, 1]", o.X)
			}
		}
	}
}
