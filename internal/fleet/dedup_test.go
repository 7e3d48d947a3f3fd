package fleet

import (
	"bytes"
	"context"
	"encoding/binary"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"exterminator/internal/cumulative"
	"exterminator/internal/fleet/codec"
	"exterminator/internal/site"
)

// stampedBatch builds an upload with a content-addressed batch ID, the
// way cluster.Sink cuts one from a history at watermark position (0, 0).
// The fixed lineage stands in for one history's.
func stampedBatch(client string, s *cumulative.Snapshot) *codec.Batch {
	return lineageBatch(client, 1, s)
}

// lineageBatch is stampedBatch cut from the history with the given
// lineage: equal contents from different lineages get different IDs,
// so each upload is absorbed.
func lineageBatch(client string, lineage uint64, s *cumulative.Snapshot) *codec.Batch {
	return &codec.Batch{
		Client:   client,
		Snapshot: s,
		BatchID:  codec.BatchID(client, lineage, 0, 0, s),
	}
}

// frame encodes b as the v2 request body of a hand-built upload.
func frame(b *codec.Batch) []byte {
	return codec.EncodeBatch(&codec.Buffer{}, b)
}

func smallSnapshot(runs int, sites ...site.ID) *cumulative.Snapshot {
	s := &cumulative.Snapshot{C: 4, P: 0.5, Runs: runs}
	for _, id := range sites {
		s.Sites = append(s.Sites, id)
		s.Overflow = append(s.Overflow, cumulative.SiteObservations{
			Site: id,
			Obs:  []cumulative.Observation{{X: 0.25, Y: false}},
		})
	}
	return s
}

// TestExactlyOnceIngest: re-sending a stamped batch (the lost-ack retry)
// is acknowledged as a duplicate and absorbed exactly once; an unstamped
// batch is rejected and absorbs nothing.
func TestExactlyOnceIngest(t *testing.T) {
	srv := NewServer(ServerOptions{CorrectEvery: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := NewClient(ts.URL, "dup")

	batch := stampedBatch("dup", smallSnapshot(3, 0x100, 0x101))
	first, err := c.PushBatchContext(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	if first.Duplicate {
		t.Fatal("first delivery acked as duplicate")
	}
	second, err := c.PushBatchContext(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Duplicate {
		t.Fatal("retry not recognized as duplicate")
	}
	if got := srv.Store().Runs(); got != 3 {
		t.Fatalf("retried batch double-counted: runs = %d, want 3", got)
	}
	if got := srv.Store().Batches(); got != 1 {
		t.Fatalf("retried batch absorbed twice: batches = %d, want 1", got)
	}

	// An unstamped batch has no exactly-once identity: it is rejected.
	_, err = c.PushBatchContext(context.Background(), &codec.Batch{Client: "dup", Snapshot: smallSnapshot(1, 0x102)})
	if err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("unstamped batch: err = %v, want a 400 rejection", err)
	}
	if got := srv.Store().Runs(); got != 3 {
		t.Fatalf("unstamped batch absorbed: runs = %d, want 3", got)
	}
	if got := srv.Store().Batches(); got != 1 {
		t.Fatalf("unstamped batch absorbed: batches = %d, want 1", got)
	}
}

// TestDedupWindowBounded: the window retains only the configured number
// of IDs; a retry arriving after its ID aged out falls back to
// at-least-once (absorbed again) instead of growing server memory.
func TestDedupWindowBounded(t *testing.T) {
	srv := NewServer(ServerOptions{CorrectEvery: -1, DedupWindow: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := NewClient(ts.URL, "bounded")

	first := stampedBatch("bounded", smallSnapshot(1, 0x200))
	if _, err := c.PushBatchContext(context.Background(), first); err != nil {
		t.Fatal(err)
	}
	// Push enough distinct batches to evict the first ID.
	for i := 0; i < 3; i++ {
		b := stampedBatch("bounded", smallSnapshot(1, site.ID(0x300+uint32(i))))
		if _, err := c.PushBatchContext(context.Background(), b); err != nil {
			t.Fatal(err)
		}
	}
	reply, err := c.PushBatchContext(context.Background(), first)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Duplicate {
		t.Fatal("evicted ID still deduped — window is not bounded")
	}
	if got := srv.Store().Runs(); got != 5 {
		t.Fatalf("runs = %d, want 5 (first batch absorbed twice after eviction)", got)
	}
}

// TestDedupSurvivesSnapshotRestore: the dedup window persists inside the
// fleet snapshot, so a batch absorbed before a restart and retried after
// it is still recognized — exactly-once survives crashes.
func TestDedupSurvivesSnapshotRestore(t *testing.T) {
	srv := NewServer(ServerOptions{CorrectEvery: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := NewClient(ts.URL, "restart")

	batch := stampedBatch("restart", smallSnapshot(2, 0x400, 0x401))
	if _, err := c.PushBatchContext(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(t.TempDir(), "fleet.snap")
	if err := srv.SaveSnapshot(snap); err != nil {
		t.Fatal(err)
	}

	restored := NewServer(ServerOptions{CorrectEvery: -1})
	if err := restored.LoadSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(restored.Handler())
	defer ts2.Close()
	c2 := NewClient(ts2.URL, "restart")
	reply, err := c2.PushBatchContext(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	if !reply.Duplicate {
		t.Fatal("dedup window lost across snapshot restore")
	}
	if got := restored.Store().Runs(); got != 2 {
		t.Fatalf("restored server double-counted the retry: runs = %d, want 2", got)
	}
}

// TestLoadSnapshotRejectsRetiredFormats: fleetd's state file is one
// current state frame. The retired XFSN containers (versions 1 and 2), a
// bare cumulative history (a client's history frame, what exterminate
// -save-history writes), a frame of another type and a state frame of a
// future frame version must all fail to load, and restore nothing.
func TestLoadSnapshotRejectsRetiredFormats(t *testing.T) {
	hist := cumulative.NewHistory(cumulative.DefaultConfig())
	hist.Absorb(smallSnapshot(2, 0x400))
	bare := codec.EncodeHistory(&codec.Buffer{}, hist)
	xfsn := func(version uint32) []byte {
		var b bytes.Buffer
		binary.Write(&b, binary.LittleEndian, uint32(0x4E534658)) // "XFSN"
		binary.Write(&b, binary.LittleEndian, version)
		if version >= 2 {
			binary.Write(&b, binary.LittleEndian, uint64(3)) // ring version
			binary.Write(&b, binary.LittleEndian, uint32(0)) // evict cache
		}
		binary.Write(&b, binary.LittleEndian, uint32(0)) // dedup ids
		b.Write(bare)
		return b.Bytes()
	}
	state := codec.EncodeState(&codec.Buffer{}, &codec.State{
		RingVersion: 3,
		Evidence:    smallSnapshot(2, 0x400),
		Dedup:       []string{"batch-a"},
	})
	future := append([]byte(nil), state...)
	future[4]++ // the frame version byte
	dir := t.TempDir()
	write := func(name string, data []byte) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// The current state frame loads: the rejections below are about the
	// format, not the evidence.
	srv := NewServer(ServerOptions{CorrectEvery: -1})
	if err := srv.LoadSnapshot(write("current.snap", state)); err != nil {
		t.Fatalf("current state frame rejected: %v", err)
	}
	if got := srv.Store().Runs(); got != 2 {
		t.Fatalf("current state frame restored %d runs, want 2", got)
	}
	for name, data := range map[string][]byte{
		"xfsn-v1.snap":       xfsn(1),
		"xfsn-v2.snap":       xfsn(2),
		"bare-history.snap":  bare,
		"batch-frame.snap":   frame(stampedBatch("c", smallSnapshot(2, 0x400))),
		"future-frame.snap":  future,
		"trailing-byte.snap": append(append([]byte(nil), state...), 0),
	} {
		srv := NewServer(ServerOptions{CorrectEvery: -1})
		if err := srv.LoadSnapshot(write(name, data)); err == nil {
			t.Errorf("%s loaded", name)
		}
		if got := srv.Store().Runs(); got != 0 {
			t.Errorf("%s: rejected file left %d runs behind", name, got)
		}
		if srv.dedup.has("batch-a") || srv.ringVersion.Load() != 0 {
			t.Errorf("%s: rejected file restored the dedup window or ring version", name)
		}
	}
}
