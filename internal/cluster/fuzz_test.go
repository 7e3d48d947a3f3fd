package cluster

import (
	"bytes"
	"encoding/binary"
	"testing"

	"exterminator/internal/cumulative"
	"exterminator/internal/site"
)

// encodeCoordSnap hand-encodes a small XCSN container in the section
// layout of the given version: ring membership from version 2, the alert
// blob from version 3, and one partition entry with a non-empty mirror
// in every version. It also returns the offset of the mirror's length
// prefix.
func encodeCoordSnap(t testing.TB, version uint32) (data []byte, mirrorLenAt int) {
	hist := cumulative.NewHistory(cumulative.DefaultConfig())
	hist.Absorb(&cumulative.Snapshot{
		Runs:  2,
		Sites: []site.ID{9},
		Overflow: []cumulative.SiteObservations{
			{Site: 9, Obs: []cumulative.Observation{{X: 0.5, Y: true}}},
		},
	})
	var mirror bytes.Buffer
	if err := hist.Encode(&mirror); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	u32 := func(v uint32) { binary.Write(&buf, binary.LittleEndian, v) }
	u64 := func(v uint64) { binary.Write(&buf, binary.LittleEndian, v) }
	const base = "http://p1.example:7077"
	u32(coordSnapMagic)
	u32(version)
	if version >= 2 {
		u64(3) // ring version
		u32(1) // one node
		u32(uint32(len(base)))
		buf.WriteString(base)
	}
	u32(1) // one partition entry
	u32(uint32(len(base)))
	buf.WriteString(base)
	u64(17) // seq
	u64(5)  // epoch
	mirrorLenAt = buf.Len()
	u64(uint64(mirror.Len()))
	buf.Write(mirror.Bytes())
	if version >= 3 {
		u64(0) // no alert state
	}
	return buf.Bytes(), mirrorLenAt
}

// TestReadCoordSnapshotRejectsRetiredVersions: the coordinator snapshot
// has one version. Containers laid out as the retired versions 1 (no
// membership) and 2 (no alert state) are rejected, as is a future one;
// the current layout built by the same encoder decodes.
func TestReadCoordSnapshotRejectsRetiredVersions(t *testing.T) {
	cur, _ := encodeCoordSnap(t, coordSnapVersion)
	snap, err := readCoordSnapshot(bytes.NewReader(cur))
	if err != nil {
		t.Fatalf("current version rejected: %v", err)
	}
	if snap.ringVersion != 3 || len(snap.nodes) != 1 || len(snap.entries) != 1 {
		t.Fatalf("current version decoded wrong: %+v", snap)
	}
	for _, v := range []uint32{1, 2, coordSnapVersion + 1} {
		data, _ := encodeCoordSnap(t, v)
		if _, err := readCoordSnapshot(bytes.NewReader(data)); err == nil {
			t.Errorf("XCSN version %d decoded", v)
		}
	}
}

// FuzzXCSNDecode fuzzes the coordinator snapshot decoder: corrupt or
// truncated containers — including forged length prefixes far beyond
// the bytes present — must return an error, never panic, and never
// allocate proportional to an untrusted prefix.
func FuzzXCSNDecode(f *testing.F) {
	seed, mirrorLenAt := encodeCoordSnap(f, coordSnapVersion)
	f.Add(seed)
	f.Add(seed[:len(seed)/2]) // truncated inside the mirror blob
	f.Add(seed[:10])          // truncated inside the header
	f.Add([]byte{})
	// Forged mirror length: entry claims ~1 GiB of mirror bytes.
	forged := append([]byte{}, seed...)
	binary.LittleEndian.PutUint64(forged[mirrorLenAt:], maxMirrorBytes-1)
	f.Add(forged)
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := readCoordSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		// An accepted container must carry decodable mirrors: re-encoding
		// each must not panic.
		for _, e := range snap.entries {
			var buf bytes.Buffer
			if err := e.mirror.Encode(&buf); err != nil {
				t.Fatalf("re-encode of accepted mirror: %v", err)
			}
		}
	})
}
