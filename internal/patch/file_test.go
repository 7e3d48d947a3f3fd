package patch_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"exterminator/internal/cumulative"
	"exterminator/internal/engine"
	"exterminator/internal/fleet/codec"
	"exterminator/internal/patch"
	"exterminator/internal/site"
	"exterminator/internal/xrand"
)

// A patch set's one binary encoding is the codec's PatchSet frame, and a
// patch file is one such frame at version 0 and epoch 0: what
// engine.PatchFile writes and engine.LoadPatchFile reads.

// frame encodes s as a patch file holds it.
func frame(s *patch.Set) []byte {
	return codec.EncodePatches(&codec.Buffer{}, codec.ToWire(s, 0))
}

// savePatchFile writes s to path through the PatchFile sink.
func savePatchFile(t *testing.T, path string, s *patch.Set) {
	t.Helper()
	ev := &engine.Evidence{Result: &engine.Result{Patches: s}}
	if err := engine.PatchFile(path).Commit(context.Background(), ev); err != nil {
		t.Fatal(err)
	}
}

// TestBinaryDecodeAgreesWithText: a frame decodes to the set the text
// decoder builds from the same entries, through the Add methods. A zero
// pad, front pad or deferral adds no entry, a key listed twice keeps its
// larger value (patches compose by maxima, §6.1), and bytes after the
// frame are refused.
func TestBinaryDecodeAgreesWithText(t *testing.T) {
	for name, c := range map[string]struct {
		wire    codec.PatchSet
		text    string
		entries int
	}{
		"zero pad": {
			codec.PatchSet{Pads: []codec.PadEntry{{Site: 7}}},
			"pad 00000007 0\n", 0,
		},
		"zero front pad and deferral": {
			codec.PatchSet{
				FrontPads: []codec.PadEntry{{Site: 7}},
				Deferrals: []codec.DeferralEntry{{Alloc: 7, Free: 8}},
			},
			"fpad 00000007 0\ndefer 00000007 00000008 0\n", 0,
		},
		"repeated site": {
			codec.PatchSet{Pads: []codec.PadEntry{{Site: 7, Pad: 64}, {Site: 7, Pad: 8}}},
			"pad 00000007 64\npad 00000007 8\n", 1,
		},
		"repeated front pad and pair": {
			codec.PatchSet{
				FrontPads: []codec.PadEntry{{Site: 7, Pad: 8}, {Site: 7, Pad: 16}},
				Deferrals: []codec.DeferralEntry{{Alloc: 7, Free: 8, Deferral: 5}, {Alloc: 7, Free: 8, Deferral: 3}},
			},
			"fpad 00000007 8\nfpad 00000007 16\ndefer 00000007 00000008 5\ndefer 00000007 00000008 3\n", 2,
		},
	} {
		ps, err := codec.DecodePatches(codec.EncodePatches(&codec.Buffer{}, &c.wire))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := ps.Set()
		fromText, err := patch.DecodeText(strings.NewReader(c.text))
		if err != nil {
			t.Fatalf("%s: text: %v", name, err)
		}
		if !got.Equal(fromText) {
			t.Errorf("%s: frame decodes to %q, text to %q", name, got, fromText)
		}
		if got.Len() != c.entries {
			t.Errorf("%s: %d entries, want %d", name, got.Len(), c.entries)
		}
	}
	whole := frame(extremes())
	if _, err := codec.DecodePatches(append(whole, make([]byte, 13)...)); err == nil {
		t.Error("a frame with 13 bytes after it decoded")
	}
}

// extremes is a set holding every table, with the largest site IDs,
// pads and deferrals the types allow.
func extremes() *patch.Set {
	s := patch.New()
	s.AddPad(0xdeadbeef, 6)
	s.AddPad(1, 36)
	s.AddPad(0xffffffff, 0xffffffff)
	s.AddFrontPad(0, 1)
	s.AddFrontPad(0xffffffff, 0xffffffff)
	s.AddDeferral(site.Pair{Alloc: 0xa, Free: 0xb}, 21)
	s.AddDeferral(site.Pair{Alloc: 0xffffffff, Free: 0}, 1<<40)
	s.AddDeferral(site.Pair{Alloc: 0, Free: 0xffffffff}, math.MaxUint64)
	return s
}

// TestBinaryRoundTrip: what PatchFile writes is the set's frame, mode
// 0644 (users share patch files, §6.4), and LoadPatchFile reads back an
// Equal set.
func TestBinaryRoundTrip(t *testing.T) {
	s := extremes()
	path := filepath.Join(t.TempDir(), "app.xtp")
	savePatchFile(t, path, s)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, frame(s)) {
		t.Fatalf("file holds % x, want the set's frame", data)
	}
	if !bytes.HasPrefix(data, []byte("XWF2\x01\x02")) {
		t.Fatalf("file starts % x, want a version-1 patches frame", data[:6])
	}
	if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o644 {
		t.Fatalf("file mode %v (%v), want -rw-r--r--", fi.Mode(), err)
	}
	got, err := engine.LoadPatchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(s) {
		t.Fatalf("round trip mismatch:\n%s\nvs\n%s", got, s)
	}
}

// TestPropertyEncodeDecodeIdentity: seeded random sets, pads, front pads
// and deferrals alike, survive PatchFile → LoadPatchFile Equal, each one
// replacing the file the previous one wrote.
func TestPropertyEncodeDecodeIdentity(t *testing.T) {
	path := filepath.Join(t.TempDir(), "app.xtp")
	for seed := uint64(1); seed <= 100; seed++ {
		rng := xrand.New(seed)
		s := patch.New()
		for i := rng.Intn(20); i > 0; i-- {
			s.AddPad(site.ID(rng.Uint32()), rng.Uint32())
		}
		for i := rng.Intn(20); i > 0; i-- {
			s.AddFrontPad(site.ID(rng.Uint32()), rng.Uint32())
		}
		for i := rng.Intn(20); i > 0; i-- {
			s.AddDeferral(site.Pair{Alloc: site.ID(rng.Uint32()), Free: site.ID(rng.Uint32())}, rng.Uint64()>>rng.Intn(64))
		}
		savePatchFile(t, path, s)
		got, err := engine.LoadPatchFile(path)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !got.Equal(s) {
			t.Fatalf("seed %d: round trip mismatch:\n%s\nvs\n%s", seed, got, s)
		}
	}
}

// TestBinaryRejectsGarbage: LoadPatchFile reads nothing but one whole
// patches frame. Garbage, an empty file, a truncated frame, trailing
// bytes, a file in the retired XTPM format, and a history, state or
// batch frame are all refused.
func TestBinaryRejectsGarbage(t *testing.T) {
	whole := frame(extremes())
	xtpm := binary.LittleEndian.AppendUint32(nil, 0x5854504d) // "XTPM"
	xtpm = binary.LittleEndian.AppendUint32(xtpm, 2)          // its last version
	xtpm = binary.LittleEndian.AppendUint32(xtpm, 1)          // one pad record
	xtpm = binary.LittleEndian.AppendUint32(xtpm, 0)
	xtpm = binary.LittleEndian.AppendUint32(xtpm, 0)
	xtpm = binary.LittleEndian.AppendUint32(xtpm, 7)
	xtpm = binary.LittleEndian.AppendUint32(xtpm, 64)
	for name, data := range map[string][]byte{
		"garbage":        []byte("not a patch file....."),
		"empty":          nil,
		"truncated":      whole[:len(whole)-3],
		"header only":    whole[:10],
		"trailing bytes": append(append([]byte(nil), whole...), 0),
		"xtpm":           xtpm,
		"text":           []byte("pad 00000007 64\n"),
		"history frame":  codec.EncodeHistory(&codec.Buffer{}, cumulative.NewHistory(cumulative.DefaultConfig())),
		"state frame":    codec.EncodeState(&codec.Buffer{}, &codec.State{RingVersion: 3}),
		"batch frame":    codec.EncodeBatch(&codec.Buffer{}, &codec.Batch{Client: "c", BatchID: "b"}),
	} {
		path := filepath.Join(t.TempDir(), "app.xtp")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, err := engine.LoadPatchFile(path); err == nil {
			t.Errorf("%s: loaded %q", name, got)
		}
	}
}

// TestDeterministicEncoding: a set and its clone encode to the same
// frame bytes and the same text, whatever order their maps iterate in.
func TestDeterministicEncoding(t *testing.T) {
	s := patch.New()
	for _, id := range []site.ID{3, 1, 2} {
		s.AddPad(id, 1)
		s.AddFrontPad(id, 2)
	}
	s.AddDeferral(site.Pair{Alloc: 2, Free: 1}, 5)
	s.AddDeferral(site.Pair{Alloc: 1, Free: 1}, 5)
	if !bytes.Equal(frame(s), frame(s.Clone())) {
		t.Fatal("frame encoding not deterministic")
	}
	if s.String() != s.Clone().String() {
		t.Fatal("text not deterministic")
	}
}
