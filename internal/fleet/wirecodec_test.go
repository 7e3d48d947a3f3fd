package fleet

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"exterminator/internal/cumulative"
	"exterminator/internal/fleet/codec"
	"exterminator/internal/site"
	"exterminator/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite the cross-codec golden files under testdata/")

// sampleWireBatch is the fixed batch the cross-codec tests run on:
// deterministic content exercising every snapshot section.
func sampleWireBatch() *ObservationBatch {
	s := testBatches(1)[0]
	return &ObservationBatch{
		Client:      "codec-test",
		Snapshot:    s,
		BatchID:     codec.BatchID("codec-test", 1, 0, 0, s),
		RingVersion: 7,
	}
}

func sampleWirePatchSet() *WirePatchSet {
	return &WirePatchSet{
		Version: 12,
		Epoch:   3,
		Pads: []PadEntry{
			{Site: 0x100, Pad: 8},
			{Site: guiltySite, Pad: 24},
		},
		FrontPads: []PadEntry{{Site: 0x101, Pad: 16}},
		Deferrals: []DeferralEntry{
			{Alloc: guiltyAlloc, Free: guiltyFree, Deferral: 33},
		},
	}
}

func sampleSnapshotDelta() *SnapshotDelta {
	return &SnapshotDelta{
		Epoch:    2,
		Seq:      41,
		Snapshot: testBatches(2)[1],
		Ops: []DeltaOp{
			{Snapshot: testBatches(1)[0]},
			{Evict: []site.ID{0x100, 0x104, guiltySite}},
		},
		ReqIDs: []string{"req-1", "req-2"},
	}
}

// canonJSON renders v through encoding/json for structural comparison:
// two wire values that marshal identically carry identical evidence.
func canonJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestCrossCodecEquivalence round-trips every wire struct through both
// codecs and requires the decoded values to be structurally identical:
// v1 JSON and v2 frames must carry the same canonical evidence.
func TestCrossCodecEquivalence(t *testing.T) {
	batch := sampleWireBatch()
	patches := sampleWirePatchSet()
	delta := sampleSnapshotDelta()

	roundTrip := func(c Codec, encode func(*codec.Buffer) ([]byte, error), decode func([]byte) (any, error)) any {
		buf := codec.GetBuffer()
		defer codec.PutBuffer(buf)
		data, err := encode(buf)
		if err != nil {
			t.Fatalf("%s encode: %v", c.ContentType(), err)
		}
		v, err := decode(data)
		if err != nil {
			t.Fatalf("%s decode: %v", c.ContentType(), err)
		}
		return v
	}

	for _, c := range []Codec{JSONCodec, V2Codec} {
		got := roundTrip(c,
			func(buf *codec.Buffer) ([]byte, error) { return c.EncodeBatch(buf, batch) },
			func(d []byte) (any, error) { return c.DecodeBatch(d) })
		if canonJSON(t, got) != canonJSON(t, batch) {
			t.Errorf("%s batch round trip diverged:\n got  %s\n want %s",
				c.ContentType(), canonJSON(t, got), canonJSON(t, batch))
		}
		// The decoded snapshot must also absorb to the same history as
		// the original — the equivalence the store actually relies on.
		ref := cumulative.NewHistory(cumulative.DefaultConfig())
		ref.Absorb(batch.Snapshot)
		dec := cumulative.NewHistory(cumulative.DefaultConfig())
		dec.Absorb(got.(*ObservationBatch).Snapshot)
		if !dec.Equal(ref) {
			t.Errorf("%s: absorbed decoded snapshot differs from absorbed original", c.ContentType())
		}

		got = roundTrip(c,
			func(buf *codec.Buffer) ([]byte, error) { return c.EncodePatchSet(buf, patches) },
			func(d []byte) (any, error) { return c.DecodePatchSet(d) })
		if canonJSON(t, got) != canonJSON(t, patches) {
			t.Errorf("%s patch set round trip diverged", c.ContentType())
		}

		got = roundTrip(c,
			func(buf *codec.Buffer) ([]byte, error) { return c.EncodeDelta(buf, delta) },
			func(d []byte) (any, error) { return c.DecodeDelta(d) })
		if canonJSON(t, got) != canonJSON(t, delta) {
			t.Errorf("%s delta round trip diverged", c.ContentType())
		}
	}
}

// TestCrossCodecGolden pins both wire representations byte-for-byte
// with checked-in golden files, and proves the codecs interconvert in
// both directions: decoding the v1 golden and re-encoding as v2 must
// reproduce the v2 golden exactly, and vice versa. Run with -update to
// regenerate after a deliberate format change (which must also bump
// the spec in docs/PROTOCOL.md).
func TestCrossCodecGolden(t *testing.T) {
	cases := []struct {
		name   string
		value  any
		encode func(Codec, *codec.Buffer) ([]byte, error)
		decode func(Codec, []byte) (any, error)
	}{
		{
			name:   "batch",
			value:  sampleWireBatch(),
			encode: func(c Codec, buf *codec.Buffer) ([]byte, error) { return c.EncodeBatch(buf, sampleWireBatch()) },
			decode: func(c Codec, d []byte) (any, error) { return c.DecodeBatch(d) },
		},
		{
			name:   "patchset",
			value:  sampleWirePatchSet(),
			encode: func(c Codec, buf *codec.Buffer) ([]byte, error) { return c.EncodePatchSet(buf, sampleWirePatchSet()) },
			decode: func(c Codec, d []byte) (any, error) { return c.DecodePatchSet(d) },
		},
		{
			name:   "delta",
			value:  sampleSnapshotDelta(),
			encode: func(c Codec, buf *codec.Buffer) ([]byte, error) { return c.EncodeDelta(buf, sampleSnapshotDelta()) },
			decode: func(c Codec, d []byte) (any, error) { return c.DecodeDelta(d) },
		},
	}

	reencode := func(c Codec, tc int, v any) []byte {
		buf := codec.GetBuffer()
		defer codec.PutBuffer(buf)
		var data []byte
		var err error
		switch v := v.(type) {
		case *ObservationBatch:
			data, err = c.EncodeBatch(buf, v)
		case *WirePatchSet:
			data, err = c.EncodePatchSet(buf, v)
		case *SnapshotDelta:
			data, err = c.EncodeDelta(buf, v)
		}
		if err != nil {
			t.Fatalf("%s re-encode %s: %v", cases[tc].name, c.ContentType(), err)
		}
		return append([]byte(nil), data...)
	}

	for i, tc := range cases {
		v1Path := filepath.Join("testdata", "wire_"+tc.name+".v1.json")
		v2Path := filepath.Join("testdata", "wire_"+tc.name+".v2.bin")

		if *updateGolden {
			for _, out := range []struct {
				c    Codec
				path string
			}{{JSONCodec, v1Path}, {V2Codec, v2Path}} {
				buf := codec.GetBuffer()
				data, err := tc.encode(out.c, buf)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(out.path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				codec.PutBuffer(buf)
			}
		}

		v1Golden, err := os.ReadFile(v1Path)
		if err != nil {
			t.Fatalf("missing golden (run with -update): %v", err)
		}
		v2Golden, err := os.ReadFile(v2Path)
		if err != nil {
			t.Fatalf("missing golden (run with -update): %v", err)
		}

		// v1 → decode → v2 must hit the v2 golden byte-for-byte.
		fromV1, err := tc.decode(JSONCodec, v1Golden)
		if err != nil {
			t.Fatalf("%s: decode v1 golden: %v", tc.name, err)
		}
		if got := reencode(V2Codec, i, fromV1); !bytes.Equal(got, v2Golden) {
			t.Errorf("%s: v1 golden → v2 encode diverged from v2 golden (%d vs %d bytes)",
				tc.name, len(got), len(v2Golden))
		}

		// v2 → decode → v1 must hit the v1 golden byte-for-byte.
		fromV2, err := tc.decode(V2Codec, v2Golden)
		if err != nil {
			t.Fatalf("%s: decode v2 golden: %v", tc.name, err)
		}
		if got := reencode(JSONCodec, i, fromV2); !bytes.Equal(got, v1Golden) {
			t.Errorf("%s: v2 golden → v1 encode diverged from v1 golden:\n got  %s\n want %s",
				tc.name, got, v1Golden)
		}

		// And the current in-memory sample still encodes to both goldens
		// (the format itself has not drifted).
		if got := reencode(JSONCodec, i, tc.value); !bytes.Equal(got, v1Golden) {
			t.Errorf("%s: sample's v1 encoding drifted from golden", tc.name)
		}
		if got := reencode(V2Codec, i, tc.value); !bytes.Equal(got, v2Golden) {
			t.Errorf("%s: sample's v2 encoding drifted from golden", tc.name)
		}
	}
}

// TestServerIngestV2Equivalence feeds the same batches to one server
// over v1 JSON and another over v2 frames: the stores, run counters and
// derived patches must match exactly — the zero-copy sharded decode is
// an encoding change, never an evidence change.
func TestServerIngestV2Equivalence(t *testing.T) {
	batches := testBatches(24)

	run := func(v2 bool) (*Server, *cumulative.History) {
		srv := NewServer(ServerOptions{Shards: 4, CorrectEvery: 0})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		c := NewClient(ts.URL, "install-x")
		c.SetWireV2(v2)
		for _, b := range batches {
			if _, err := c.PushSnapshot(b); err != nil {
				t.Fatalf("push (v2=%v): %v", v2, err)
			}
		}
		return srv, srv.Store().Combined()
	}

	srvJSON, histJSON := run(false)
	srvV2, histV2 := run(true)

	if !histV2.Equal(histJSON) {
		t.Fatal("v2-ingested store differs from JSON-ingested store")
	}
	pJSON := histJSON.Identify().Patches()
	pV2 := histV2.Identify().Patches()
	if !pV2.Equal(pJSON) {
		t.Fatalf("derived patches diverge:\n v2:   %s\n json: %s", pV2, pJSON)
	}
	if got := srvV2.Store().Runs(); got != srvJSON.Store().Runs() {
		t.Fatalf("run counters diverge: v2 %d, json %d", got, srvJSON.Store().Runs())
	}
	if v := srvV2.metrics.v2Batches.Value(); v != float64(len(batches)) {
		t.Fatalf("fleet_ingest_v2_batches_total = %v, want %d", v, len(batches))
	}
	if v := srvJSON.metrics.v2Batches.Value(); v != 0 {
		t.Fatalf("JSON server counted %v v2 batches", v)
	}
}

// TestServerIngestV2Dedup: a v2 batch retried with the same binary
// batch ID must be acknowledged as a duplicate and absorbed once.
func TestServerIngestV2Dedup(t *testing.T) {
	srv := NewServer(ServerOptions{CorrectEvery: 0})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	c := NewClient(ts.URL, "dedup-install")
	c.SetWireV2(true)
	s := testBatches(1)[0]
	batch := &ObservationBatch{
		Client:   "dedup-install",
		Snapshot: s,
		BatchID:  codec.BatchID("dedup-install", 1, 0, 0, s),
	}
	first, err := c.PushBatchContext(t.Context(), batch)
	if err != nil {
		t.Fatal(err)
	}
	if first.Duplicate {
		t.Fatal("first delivery acknowledged as duplicate")
	}
	second, err := c.PushBatchContext(t.Context(), batch)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Duplicate {
		t.Fatal("retry not acknowledged as duplicate")
	}
	if runs := srv.Store().Runs(); runs != int64(s.Runs) {
		t.Fatalf("runs = %d after duplicate delivery, want %d", runs, s.Runs)
	}
}

// TestServerIngestV2StaleRing: the stale-membership rejection must
// fire on the v2 path exactly as on v1 — after decode, before absorb.
func TestServerIngestV2StaleRing(t *testing.T) {
	srv := NewServer(ServerOptions{CorrectEvery: 0})
	srv.RequireRingVersion(3)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	c := NewClient(ts.URL, "stale-install")
	c.SetWireV2(true)
	s := testBatches(1)[0]
	_, err := c.PushBatchContext(t.Context(), &ObservationBatch{
		Client:      "stale-install",
		Snapshot:    s,
		RingVersion: 2,
	})
	if err == nil {
		t.Fatal("stale ring version accepted over v2")
	}
	if runs := srv.Store().Runs(); runs != 0 {
		t.Fatalf("stale batch absorbed: runs = %d", runs)
	}
	// Current membership goes through.
	if _, err := c.PushBatchContext(t.Context(), &ObservationBatch{
		Client:      "stale-install",
		Snapshot:    s,
		RingVersion: 3,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestClientV2Downgrade: a v2 client facing a server that rejects the
// media type must fall back to JSON, re-deliver the same batch, and
// stay on JSON for good.
func TestClientV2Downgrade(t *testing.T) {
	srv := NewServer(ServerOptions{CorrectEvery: 0})
	inner := srv.Handler()
	var rejected int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// A pre-v2 server: unknown media type on ingest is a 415.
		if r.URL.Path == "/v1/observations" && r.Header.Get("Content-Type") == codec.ContentTypeV2 {
			rejected++
			http.Error(w, "unsupported media type", http.StatusUnsupportedMediaType)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	c := NewClient(ts.URL, "downgrade-install")
	c.SetMetrics(telemetry.NewRegistry())
	c.SetWireV2(true)
	s := testBatches(1)[0]
	if _, err := c.PushSnapshot(s); err != nil {
		t.Fatalf("push across downgrade: %v", err)
	}
	if rejected != 1 {
		t.Fatalf("server rejected %d v2 deliveries, want exactly 1", rejected)
	}
	if c.WireV2() {
		t.Fatal("client still in v2 mode after rejection")
	}
	if runs := srv.Store().Runs(); runs != int64(s.Runs) {
		t.Fatalf("batch not re-delivered as JSON: runs = %d", runs)
	}
	// The next push must go straight to JSON (no second rejection).
	if _, err := c.PushSnapshot(testBatches(2)[1]); err != nil {
		t.Fatal(err)
	}
	if rejected != 1 {
		t.Fatalf("downgrade not sticky: %d rejections", rejected)
	}
	if v := c.m.v2Downgrades.Value(); v != 1 {
		t.Fatalf("fleet_client_v2_downgrades_total = %v, want 1", v)
	}
}

// TestClientV2GzipThreshold: v2 frames below the gzip threshold go out
// uncompressed (the gzip header would cost more than it saves); bigger
// frames still compress.
func TestClientV2GzipThreshold(t *testing.T) {
	srv := NewServer(ServerOptions{CorrectEvery: 0})
	inner := srv.Handler()
	var encodings []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/observations" {
			encodings = append(encodings, r.Header.Get("Content-Encoding"))
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	c := NewClient(ts.URL, "gzip-install")
	c.SetWireV2(true)

	small := &cumulative.Snapshot{C: 4, P: 0.5, Runs: 1, Sites: []site.ID{1, 2, 3}}
	if _, err := c.PushSnapshot(small); err != nil {
		t.Fatal(err)
	}

	big := &cumulative.Snapshot{C: 4, P: 0.5, Runs: 1}
	for i := 0; i < 2000; i++ {
		big.Sites = append(big.Sites, site.ID(i*7+1))
		big.Overflow = append(big.Overflow, cumulative.SiteObservations{
			Site: site.ID(i*7 + 1),
			Obs:  []cumulative.Observation{{X: float64(i), Y: i%3 == 0}},
		})
	}
	if _, err := c.PushSnapshot(big); err != nil {
		t.Fatal(err)
	}

	if len(encodings) != 2 {
		t.Fatalf("saw %d uploads, want 2", len(encodings))
	}
	if encodings[0] != "" {
		t.Fatalf("small v2 frame was %q-encoded, want identity", encodings[0])
	}
	if encodings[1] != "gzip" {
		t.Fatalf("large v2 frame encoding = %q, want gzip", encodings[1])
	}
	if runs := srv.Store().Runs(); runs != 2 {
		t.Fatalf("runs = %d, want 2", runs)
	}
}

// TestDeltasNegotiation: the same journal must replay identically over
// a v2-negotiated delta poll and the v1 JSON one.
func TestDeltasNegotiation(t *testing.T) {
	srv := NewServer(ServerOptions{CorrectEvery: 0})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	up := NewClient(ts.URL, "uploader")
	up.SetWireV2(true)
	batches := testBatches(6)
	for _, b := range batches {
		if _, err := up.PushSnapshot(b); err != nil {
			t.Fatal(err)
		}
	}

	mirror := func(v2 bool) *cumulative.History {
		c := NewClient(ts.URL, "mirror")
		c.SetWireV2(v2)
		d, err := c.Deltas(t.Context(), 0)
		if err != nil {
			t.Fatal(err)
		}
		h := cumulative.NewHistory(cumulative.DefaultConfig())
		if d.Snapshot != nil {
			h.Absorb(d.Snapshot)
		}
		for _, op := range d.Ops {
			if op.Snapshot != nil {
				h.Absorb(op.Snapshot)
			}
		}
		return h
	}

	hV2 := mirror(true)
	hJSON := mirror(false)
	ref := cumulative.NewHistory(cumulative.DefaultConfig())
	for _, b := range batches {
		ref.Absorb(b)
	}
	// Canonicalize before comparing: Equal is order-sensitive and the
	// journal replay arrives pre-sorted while ref absorbed raw batches.
	hV2.Canonicalize()
	hJSON.Canonicalize()
	ref.Canonicalize()
	if !hV2.Equal(hJSON) {
		t.Fatal("v2 delta poll reconstructed a different history than JSON")
	}
	if !hV2.Equal(ref) {
		t.Fatal("v2 delta poll diverged from the uploaded evidence")
	}
}

// TestElasticIdentifyEquivalence: the parallel correction pool must
// derive exactly the serial pass's findings, whatever the worker count.
func TestElasticIdentifyEquivalence(t *testing.T) {
	batches := testBatches(32)
	build := func(workers int) *Store {
		st := NewStore(8, cumulative.DefaultConfig())
		st.SetIdentifyWorkers(workers)
		for _, b := range batches {
			st.AbsorbSnapshot(b)
		}
		return st
	}

	want := build(1).Identify().Patches()
	if want.Len() == 0 {
		t.Fatal("serial pass derived no patches; evidence too weak")
	}
	for _, workers := range []int{2, 4, 8, 32} {
		got := build(workers).Identify().Patches()
		if !got.Equal(want) {
			t.Fatalf("workers=%d diverged:\n got  %s\n want %s", workers, got, want)
		}
	}
}
