package cluster

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"exterminator/internal/cumulative"
	"exterminator/internal/fleet/codec"
	"exterminator/internal/site"
)

const snapBase = "http://p1.example:7077"

// coordState is a small coordinator state frame: membership over one
// node, that node's mirror and cursors, and an alert blob.
func coordState() []byte {
	return codec.EncodeState(&codec.Buffer{}, &codec.State{
		RingVersion: 3,
		Nodes:       []string{snapBase},
		Mirrors: []codec.Mirror{{
			Base: snapBase, Seq: 17, Epoch: 5,
			Snapshot: &cumulative.Snapshot{
				C: 4, P: 0.5, Runs: 2,
				Sites: []site.ID{9},
				Overflow: []cumulative.SiteObservations{
					{Site: 9, Obs: []cumulative.Observation{{X: 0.5, Y: true}}},
				},
			},
		}},
		Alerts: []byte(`{"fired":{},"pending":[]}`),
	})
}

// loadCoordState restores data, written to a file, into a fresh
// coordinator over snapBase.
func loadCoordState(t *testing.T, data []byte) (*Coordinator, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "coord.snap")
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	c, err := NewCoordinator(CoordinatorOptions{Partitions: []string{snapBase}})
	if err != nil {
		t.Fatal(err)
	}
	return c, c.LoadSnapshot(path)
}

// xcsn hand-encodes the head of a retired XCSN container of the given
// version: membership from version 2, then one partition entry whose
// mirror is a bare history.
func xcsn(t *testing.T, version uint32) []byte {
	hist := cumulative.NewHistory(cumulative.DefaultConfig())
	hist.Absorb(&cumulative.Snapshot{Runs: 2, Sites: []site.ID{9}})
	var mirror bytes.Buffer
	if err := hist.Encode(&mirror); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	u32 := func(v uint32) { binary.Write(&buf, binary.LittleEndian, v) }
	u64 := func(v uint64) { binary.Write(&buf, binary.LittleEndian, v) }
	u32(0x4E534358) // "XCSN"
	u32(version)
	if version >= 2 {
		u64(3) // ring version
		u32(1) // one node
		u32(uint32(len(snapBase)))
		buf.WriteString(snapBase)
	}
	u32(1) // one partition entry
	u32(uint32(len(snapBase)))
	buf.WriteString(snapBase)
	u64(17) // seq
	u64(5)  // epoch
	u64(uint64(mirror.Len()))
	buf.Write(mirror.Bytes())
	if version >= 3 {
		u64(0) // no alert state
	}
	return buf.Bytes()
}

// TestReadCoordSnapshotRejectsRetiredVersions: the coordinator's state
// file is one current state frame. The retired XCSN containers
// (versions 1 to 3), a bare cumulative history, a frame of another type
// and a state frame of a future frame version are rejected, and restore
// nothing; the current frame restores membership, mirror and cursors.
func TestReadCoordSnapshotRejectsRetiredVersions(t *testing.T) {
	state := coordState()
	c, err := loadCoordState(t, state)
	if err != nil {
		t.Fatalf("current state frame rejected: %v", err)
	}
	st := c.Status()
	if st.MembershipVersion != 3 || st.Runs != 2 || len(st.Partitions) != 1 || st.Partitions[0].Seq != 17 {
		t.Fatalf("current state frame restored wrong: %+v", st)
	}

	hist := cumulative.NewHistory(cumulative.DefaultConfig())
	hist.Absorb(&cumulative.Snapshot{Runs: 2, Sites: []site.ID{9}})
	var bare bytes.Buffer
	if err := hist.Encode(&bare); err != nil {
		t.Fatal(err)
	}
	future := append([]byte(nil), state...)
	future[4]++ // the frame version byte
	batch := codec.EncodeBatch(&codec.Buffer{}, &codec.Batch{Client: "c", BatchID: "b", Snapshot: &cumulative.Snapshot{Runs: 2}})
	for name, data := range map[string][]byte{
		"xcsn-v1":      xcsn(t, 1),
		"xcsn-v2":      xcsn(t, 2),
		"xcsn-v3":      xcsn(t, 3),
		"bare-history": bare.Bytes(),
		"batch-frame":  batch,
		"future-frame": future,
	} {
		c, err := loadCoordState(t, data)
		if err == nil {
			t.Errorf("%s loaded", name)
		}
		if st := c.Status(); st.Runs != 0 || st.MembershipVersion != 1 {
			t.Errorf("%s: rejected file restored state: %+v", name, st)
		}
	}
}

// FuzzXCSNDecode fuzzes the coordinator's restore path, which reads only
// state frames: arbitrary bytes (truncations, forged length and count
// prefixes, the retired XCSN container) are decoded and, when they
// decode, restored into a fresh coordinator. Neither step may panic or
// allocate from an untrusted prefix, and a state that restores must
// save again.
func FuzzXCSNDecode(f *testing.F) {
	seed := coordState()
	f.Add(seed)
	f.Add(seed[:len(seed)/2]) // truncated inside the mirror
	f.Add(seed[:10])          // header only
	f.Add([]byte{})
	// Forged mirror count: a well-framed state claiming 2^40 mirrors.
	payload := []byte{0, 3, 0} // flags, ring version, no nodes
	payload = binary.AppendUvarint(payload, 1<<40)
	frame := binary.LittleEndian.AppendUint32([]byte("XWF2\x01\x04"), uint32(len(payload)))
	f.Add(append(frame, payload...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := codec.DecodeState(data); err != nil {
			return
		}
		c, err := loadCoordState(t, data)
		if err != nil {
			return // an alert blob that is not the alerter's JSON
		}
		if err := c.SaveSnapshot(filepath.Join(t.TempDir(), "again.snap")); err != nil {
			t.Fatalf("restored state does not save: %v", err)
		}
	})
}
