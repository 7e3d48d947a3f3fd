package fleet

import (
	"bytes"
	"context"
	"encoding/binary"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"exterminator/internal/cumulative"
	"exterminator/internal/engine"
	"exterminator/internal/fleet/codec"
	"exterminator/internal/site"
)

// stampedBatch builds an upload with a content-addressed batch ID, the
// way fleet.Sink cuts one from a history at watermark position (0, 0).
// The fixed lineage stands in for one history's.
func stampedBatch(client string, s *cumulative.Snapshot) *ObservationBatch {
	return &ObservationBatch{
		Client:   client,
		Snapshot: s,
		BatchID:  codec.BatchID(client, 1, 0, 0, s),
	}
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
// batch keeps the legacy at-least-once behavior.
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

	// Legacy clients (no batch ID) are still at-least-once.
	plain := smallSnapshot(1, 0x102)
	for i := 0; i < 2; i++ {
		if _, err := c.PushSnapshot(plain); err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.Store().Runs(); got != 5 {
		t.Fatalf("unstamped batches should absorb every time: runs = %d, want 5", got)
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

// TestLoadSnapshotRejectsRetiredFormats: the fleet snapshot has one
// container version. A bare cumulative history file (what SaveSnapshot
// wrote before the container existed), a version-1 container (no ring
// version, no evict cache) and a container from a future version must
// all fail to load rather than restore a guessed layout.
func TestLoadSnapshotRejectsRetiredFormats(t *testing.T) {
	hist := cumulative.NewHistory(cumulative.DefaultConfig())
	hist.Absorb(smallSnapshot(2, 0x400))
	var bare bytes.Buffer
	if err := hist.Encode(&bare); err != nil {
		t.Fatal(err)
	}
	container := func(version uint32) []byte {
		var b bytes.Buffer
		binary.Write(&b, binary.LittleEndian, uint32(fleetSnapMagic))
		binary.Write(&b, binary.LittleEndian, version)
		if version >= 2 {
			binary.Write(&b, binary.LittleEndian, uint64(0)) // ring version
			binary.Write(&b, binary.LittleEndian, uint32(0)) // evict cache
		}
		binary.Write(&b, binary.LittleEndian, uint32(0)) // dedup ids
		b.Write(bare.Bytes())
		return b.Bytes()
	}
	dir := t.TempDir()
	write := func(name string, data []byte) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// The current version built the same way loads: the rejections below
	// are about the version, not the hand encoding.
	if err := NewServer(ServerOptions{CorrectEvery: -1}).LoadSnapshot(write("current.snap", container(fleetSnapVersion))); err != nil {
		t.Fatalf("current container rejected: %v", err)
	}
	for name, data := range map[string][]byte{
		"bare-history.snap": bare.Bytes(),
		"xfsn-v1.snap":      container(1),
		"xfsn-future.snap":  container(fleetSnapVersion + 1),
	} {
		srv := NewServer(ServerOptions{CorrectEvery: -1})
		if err := srv.LoadSnapshot(write(name, data)); err == nil {
			t.Errorf("%s loaded", name)
		}
		if got := srv.Store().Runs(); got != 0 {
			t.Errorf("%s: rejected file left %d runs behind", name, got)
		}
	}
}

// lossyAck wraps a handler: while lossy, requests are fully processed
// (the server absorbs the batch) but the client receives a 500 — the
// lost-ack failure mode exactly-once ingest exists for.
type lossyAck struct {
	mu    sync.Mutex
	lossy bool
	inner http.Handler
}

func (l *lossyAck) set(lossy bool) {
	l.mu.Lock()
	l.lossy = lossy
	l.mu.Unlock()
}

func (l *lossyAck) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	l.mu.Lock()
	lossy := l.lossy
	l.mu.Unlock()
	if !lossy {
		l.inner.ServeHTTP(w, r)
		return
	}
	rec := httptest.NewRecorder()
	l.inner.ServeHTTP(rec, r)
	http.Error(w, "ack lost", http.StatusInternalServerError)
}

// TestSinkExactlyOnceAfterLostAck: the sink's first upload is absorbed
// but the ack is lost; the retried commit re-sends the identical batch,
// the server dedups it, and the fleet counts the evidence exactly once.
func TestSinkExactlyOnceAfterLostAck(t *testing.T) {
	srv := NewServer(ServerOptions{CorrectEvery: -1})
	la := &lossyAck{inner: srv.Handler(), lossy: true}
	ts := httptest.NewServer(la)
	defer ts.Close()

	sink := NewSink(NewClient(ts.URL, "lossy"))
	hist := cumulative.NewHistory(cumulative.DefaultConfig())
	hist.Absorb(smallSnapshot(4, 0x500, 0x501))
	ev := &engine.Evidence{History: hist}

	if err := sink.Commit(context.Background(), ev); err == nil {
		t.Fatal("commit with a lost ack must report the failure")
	}
	if got := srv.Store().Runs(); got != 4 {
		t.Fatalf("server should have absorbed the batch despite the lost ack: runs = %d", got)
	}
	// The watermark must NOT have advanced: the sink has no proof of
	// delivery, so the evidence stays pending.
	if d := hist.UploadDelta(); cumulative.DeltaEmpty(d) {
		t.Fatal("watermark advanced on an unacknowledged upload")
	}

	la.set(false)
	if err := sink.Commit(context.Background(), ev); err != nil {
		t.Fatalf("retry commit: %v", err)
	}
	if got := srv.Store().Runs(); got != 4 {
		t.Fatalf("lost-ack retry double-counted: runs = %d, want 4", got)
	}
	if got := srv.Store().Batches(); got != 1 {
		t.Fatalf("batches = %d, want 1 (retry deduped, not re-absorbed)", got)
	}
	if d := hist.UploadDelta(); !cumulative.DeltaEmpty(d) {
		t.Fatalf("watermark incomplete after acknowledged retry: %+v", d)
	}

	// New evidence after the recovery flows as a fresh batch.
	hist.Absorb(smallSnapshot(1, 0x502))
	if err := sink.Commit(context.Background(), ev); err != nil {
		t.Fatal(err)
	}
	if got := srv.Store().Runs(); got != 5 {
		t.Fatalf("follow-up delta lost: runs = %d, want 5", got)
	}
}

// TestSinkFreshHistoriesUnderOneIDBothCount is the batch-ID collision
// regression: two fresh sessions of one installation id cut the same
// first delta — watermark position (0, 0), identical content. Their
// histories' lineages differ, so their batch IDs differ, and the server
// absorbs both. Without the lineage the second upload would be
// acknowledged as a duplicate of the first and its runs lost.
func TestSinkFreshHistoriesUnderOneIDBothCount(t *testing.T) {
	for _, v2 := range []bool{false, true} {
		name := "json"
		if v2 {
			name = "v2"
		}
		t.Run(name, func(t *testing.T) {
			srv := NewServer(ServerOptions{CorrectEvery: -1})
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			for session := 0; session < 2; session++ {
				c := NewClient(ts.URL, "install-1")
				c.SetWireV2(v2)
				hist := cumulative.NewHistory(cumulative.DefaultConfig())
				hist.Absorb(smallSnapshot(3, 0x600, 0x601))
				if err := NewSink(c).Commit(context.Background(), &engine.Evidence{History: hist}); err != nil {
					t.Fatal(err)
				}
			}
			if got := srv.Store().Runs(); got != 6 {
				t.Fatalf("runs = %d, want 6: the second session's upload was deduped against the first", got)
			}
		})
	}
}
