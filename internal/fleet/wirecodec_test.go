package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"exterminator/internal/cumulative"
	"exterminator/internal/fleet/codec"
	"exterminator/internal/patch"
	"exterminator/internal/site"
	"exterminator/internal/triage"
)

var updateGolden = flag.Bool("update", false, "rewrite the cross-codec golden files under testdata/")

// sampleBatch is the batch wire_batch.v2.bin pins: deterministic
// content exercising every snapshot section. Its ID is what
// codec.BatchID("codec-test", 1, 0, 0, Snapshot) gives.
func sampleBatch() *codec.Batch {
	return &codec.Batch{
		Client:      "codec-test",
		BatchID:     "c9d3b486e6f3aca84dedec609155e491",
		RingVersion: 7,
		Snapshot:    testBatches(1)[0],
	}
}

func samplePatchSet() *codec.PatchSet {
	return &codec.PatchSet{
		Version: 12,
		Epoch:   3,
		Pads: []codec.PadEntry{
			{Site: 0x100, Pad: 8},
			{Site: guiltySite, Pad: 24},
		},
		FrontPads: []codec.PadEntry{{Site: 0x101, Pad: 16}},
		Deferrals: []codec.DeferralEntry{
			{Alloc: guiltyAlloc, Free: guiltyFree, Deferral: 33},
		},
	}
}

// sampleDelta is the delta wire_delta.v2.bin pins: a snapshot op, an
// eviction, a second snapshot op and correlation IDs.
func sampleDelta() *codec.Delta {
	return &codec.Delta{
		Epoch: 2,
		Seq:   41,
		Ops: []codec.DeltaOp{
			{Snapshot: testBatches(1)[0]},
			{Evict: []site.ID{0x100, 0x104, guiltySite}},
			{Snapshot: testBatches(2)[1]},
		},
		ReqIDs: []string{"req-1", "req-2"},
	}
}

// sampleState is the state wire_state.v2.bin pins: every section of
// both tiers' state files at once (no daemon writes all of them).
func sampleState() *codec.State {
	return &codec.State{
		RingVersion: 4,
		Nodes:       []string{"http://p1:7077", "http://p2:7077"},
		Mirrors: []codec.Mirror{
			{Base: "http://p1:7077", Seq: 41, Epoch: 2, Snapshot: testBatches(1)[0]},
			{Base: "http://p2:7077", Seq: 7, Epoch: 3, Snapshot: &cumulative.Snapshot{C: 4, P: 0.5}},
		},
		Evidence: testBatches(2)[1],
		Dedup:    []string{"c9d3b486e6f3aca84dedec609155e491", "batch-2"},
		Evicts: []codec.Evicted{
			{Token: "rebalance-v3", Snapshot: &cumulative.Snapshot{C: 4, P: 0.5, Runs: 3, Sites: []site.ID{0x100}}},
		},
		Alerts: []byte(`{"fired":{"overflow-site-bad":{"pass":3,"regressions":0,"at":1}},"pending":[]}`),
	}
}

// sampleHistory is the history wire_history.v2.bin pins: a client's
// history under a lineage, one batch uploaded and one pending, so that
// both halves carry every snapshot section.
func sampleHistory() *cumulative.History {
	uploaded := *testBatches(1)[0]
	uploaded.Lineage = 0x5eed0000cafe0029
	pending := testBatches(2)[1]
	pending.Sites = append(pending.Sites, 0x200)
	pending.PadHints[0].Pad = 12
	return cumulative.Restore(&uploaded, pending)
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

// patchSetJSON is the JSON document GET /v1/patches answers (WriteJSON
// ends it with a newline).
func patchSetJSON(t *testing.T, w *codec.PatchSet) []byte {
	t.Helper()
	return append([]byte(canonJSON(t, w)), '\n')
}

// patchSetFrame is the v2 frame GET /v1/patches answers to a poll that
// asks for one.
func patchSetFrame(w *codec.PatchSet) []byte {
	return codec.EncodePatches(&codec.Buffer{}, w)
}

func decodePatchSetFrame(t *testing.T, data []byte) *codec.PatchSet {
	t.Helper()
	ps, err := codec.DecodePatches(data)
	if err != nil {
		t.Fatalf("decode patch-set frame: %v", err)
	}
	return ps
}

// TestCrossCodecEquivalence round-trips a patch set through both of its
// representations — the JSON document and the v2 frame — and requires
// the decoded values to be structurally identical.
func TestCrossCodecEquivalence(t *testing.T) {
	patches := samplePatchSet()
	var fromJSON codec.PatchSet
	if err := json.Unmarshal(patchSetJSON(t, patches), &fromJSON); err != nil {
		t.Fatal(err)
	}
	if canonJSON(t, &fromJSON) != canonJSON(t, patches) {
		t.Errorf("JSON patch set round trip diverged")
	}
	if got := decodePatchSetFrame(t, patchSetFrame(patches)); canonJSON(t, got) != canonJSON(t, patches) {
		t.Errorf("v2 patch set round trip diverged")
	}
}

// TestCrossCodecGolden pins every frame layout byte for byte with a
// checked-in golden file: each golden must equal the encoding of its
// sample value above and decode back to exactly that value. The patch
// set's JSON document is pinned the same way, and the two patch-set
// representations must interconvert in both directions: decoding the
// JSON golden and re-encoding as a frame must reproduce the v2 golden
// exactly, and vice versa. Run with -update to regenerate after a
// deliberate format change (which must also bump the spec in
// docs/PROTOCOL.md).
func TestCrossCodecGolden(t *testing.T) {
	checkFrameGolden(t, "wire_batch.v2.bin", sampleBatch(), codec.EncodeBatch, codec.DecodeBatch)
	checkFrameGolden(t, "wire_patchset.v2.bin", samplePatchSet(), codec.EncodePatches, codec.DecodePatches)
	checkFrameGolden(t, "wire_delta.v2.bin", sampleDelta(), codec.EncodeDelta, codec.DecodeDelta)
	checkFrameGolden(t, "wire_state.v2.bin", sampleState(), codec.EncodeState, codec.DecodeState)
	checkFrameGolden(t, "wire_history.v2.bin", sampleHistory(), codec.EncodeHistory, codec.DecodeHistory)

	jsonPath := filepath.Join("testdata", "wire_patchset.v1.json")
	if *updateGolden {
		if err := os.WriteFile(jsonPath, patchSetJSON(t, samplePatchSet()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	jsonGolden, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	v2Golden, err := os.ReadFile(filepath.Join("testdata", "wire_patchset.v2.bin"))
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}

	// JSON → decode → v2 must hit the v2 golden byte-for-byte.
	var fromJSON codec.PatchSet
	if err := json.Unmarshal(jsonGolden, &fromJSON); err != nil {
		t.Fatalf("decode JSON golden: %v", err)
	}
	if got := patchSetFrame(&fromJSON); !bytes.Equal(got, v2Golden) {
		t.Errorf("JSON golden → v2 encode diverged from v2 golden (%d vs %d bytes)", len(got), len(v2Golden))
	}
	// v2 → decode → JSON must hit the JSON golden byte-for-byte.
	if got := patchSetJSON(t, decodePatchSetFrame(t, v2Golden)); !bytes.Equal(got, jsonGolden) {
		t.Errorf("v2 golden → JSON encode diverged from JSON golden:\n got  %s\n want %s", got, jsonGolden)
	}
	// And the in-memory sample still encodes to the JSON golden (the
	// format itself has not drifted).
	if got := patchSetJSON(t, samplePatchSet()); !bytes.Equal(got, jsonGolden) {
		t.Error("sample's JSON encoding drifted from golden")
	}
}

// checkFrameGolden requires testdata/name to hold exactly the frame
// encode makes of sample, and decode to turn it back into sample.
func checkFrameGolden[T any](t *testing.T, name string, sample *T, encode func(*codec.Buffer, *T) []byte, decode func([]byte) (*T, error)) {
	t.Helper()
	path := filepath.Join("testdata", name)
	want := encode(&codec.Buffer{}, sample)
	if *updateGolden {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(want, golden) {
		t.Errorf("%s: the sample encodes to %d bytes that differ from the %d-byte golden", name, len(want), len(golden))
	}
	got, err := decode(golden)
	if err != nil {
		t.Fatalf("%s: decode golden: %v", name, err)
	}
	if !reflect.DeepEqual(got, sample) {
		t.Errorf("%s: golden decodes to %s, want the sample %s", name, canonJSON(t, got), canonJSON(t, sample))
	}
}

// TestServerIngestV2Equivalence feeds batches to a server over v2
// frames and the same snapshots straight into a reference
// cumulative.History: the store, run counters and derived patches must
// match exactly — decoding a batch and absorbing it key by key into the
// store's stripes is an encoding step, never an evidence change.
func TestServerIngestV2Equivalence(t *testing.T) {
	batches := testBatches(24)
	srv := NewServer(ServerOptions{Shards: 4, CorrectEvery: 0})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := NewClient(ts.URL, "install-x")
	ref := cumulative.NewHistory(cumulative.DefaultConfig())
	for i, b := range batches {
		if _, err := c.PushBatchContext(t.Context(), lineageBatch("install-x", uint64(i+1), b)); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
		ref.Absorb(b)
	}

	got := srv.Store().Combined()
	got.Canonicalize()
	ref.Canonicalize()
	if !got.Equal(ref) {
		t.Fatal("v2-ingested store differs from the reference history")
	}
	if runs := srv.Store().Runs(); runs != int64(ref.Runs) {
		t.Fatalf("run counters diverge: server %d, reference %d", runs, ref.Runs)
	}
	if srv.Store().FailedRuns() != int64(ref.FailedRuns) || srv.Store().CorruptRuns() != int64(ref.CorruptRuns) {
		t.Fatalf("failed/corrupt counters diverge: server %d/%d, reference %d/%d",
			srv.Store().FailedRuns(), srv.Store().CorruptRuns(), ref.FailedRuns, ref.CorruptRuns)
	}
	want := ref.Identify().Patches()
	if want.Len() == 0 {
		t.Fatal("reference derived no patches; evidence too weak")
	}
	served, _ := srv.PatchLog().Full()
	if !served.Equal(want) {
		t.Fatalf("derived patches diverge:\n server:    %s\n reference: %s", served, want)
	}
}

// TestServerIngestV2Dedup: a v2 batch retried with the same binary
// batch ID must be acknowledged as a duplicate and absorbed once.
func TestServerIngestV2Dedup(t *testing.T) {
	srv := NewServer(ServerOptions{CorrectEvery: 0})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	c := NewClient(ts.URL, "dedup-install")
	s := testBatches(1)[0]
	batch := stampedBatch("dedup-install", s)
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

// TestServerIngestV2StaleRing: the stale-membership rejection fires
// after decode, before absorb.
func TestServerIngestV2StaleRing(t *testing.T) {
	srv := NewServer(ServerOptions{CorrectEvery: 0})
	srv.RequireRingVersion(3)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	c := NewClient(ts.URL, "stale-install")
	batch := stampedBatch("stale-install", testBatches(1)[0])
	batch.RingVersion = 2
	_, err := c.PushBatchContext(t.Context(), batch)
	var sre *StaleRingError
	if !errors.As(err, &sre) {
		t.Fatalf("stale ring version: err = %v, want StaleRingError", err)
	}
	if runs := srv.Store().Runs(); runs != 0 {
		t.Fatalf("stale batch absorbed: runs = %d", runs)
	}
	// Current membership goes through.
	batch.RingVersion = 3
	if _, err := c.PushBatchContext(t.Context(), batch); err != nil {
		t.Fatal(err)
	}
}

// TestIngestRejectsJSON: POST /v1/observations takes v2 frames only. A
// JSON body — even a well-formed, stamped batch — is refused with 415
// and absorbs nothing.
func TestIngestRejectsJSON(t *testing.T) {
	srv := NewServer(ServerOptions{CorrectEvery: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, err := json.Marshal(stampedBatch("json-install", testBatches(1)[0]))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/observations", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("JSON upload: %s, want 415", resp.Status)
	}
	if runs, batches := srv.Store().Runs(), srv.Store().Batches(); runs != 0 || batches != 0 {
		t.Fatalf("JSON upload absorbed: runs = %d, batches = %d", runs, batches)
	}
}

// TestClientSpeaksFramesByDefault: a client built with NewClient and no
// further set-up — what exterminate -fleet builds — uploads v2 frames
// and asks for frames on patch and delta polls.
func TestClientSpeaksFramesByDefault(t *testing.T) {
	srv := NewServer(ServerOptions{CorrectEvery: 0})
	inner := srv.Handler()
	var mu sync.Mutex
	seen := map[string][2]string{} // path → request Content-Type or Accept, response Content-Type
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inner.ServeHTTP(w, r)
		req := r.Header.Get("Accept")
		if r.Method == http.MethodPost {
			req = r.Header.Get("Content-Type")
		}
		mu.Lock()
		seen[r.URL.Path] = [2]string{req, w.Header().Get("Content-Type")}
		mu.Unlock()
	}))
	defer ts.Close()

	c := NewClient(ts.URL, "default-install")
	for i, b := range testBatches(8) {
		if _, err := c.PushBatchContext(t.Context(), lineageBatch("default-install", uint64(i+1), b)); err != nil {
			t.Fatal(err)
		}
	}
	ps, _, err := c.Patches(0)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Pad(guiltySite) == 0 {
		t.Fatalf("patch poll missed the guilty site: %s", ps)
	}
	if _, err := c.Deltas(t.Context(), 0, 0); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	want := map[string][2]string{
		"/v1/observations": {codec.ContentTypeV2, "application/json"},
		"/v1/patches":      {codec.ContentTypeV2, codec.ContentTypeV2},
		"/v1/deltas":       {codec.ContentTypeV2, codec.ContentTypeV2},
	}
	if !reflect.DeepEqual(seen, want) {
		t.Fatalf("request/response content types:\n got  %v\n want %v", seen, want)
	}
}

// TestPatchesNegotiation pins the one negotiation left: GET /v1/patches
// without an Accept header answers the JSON document people read with
// curl, and with Accept: application/x-exterminator-v2 a frame carrying
// the same entries.
func TestPatchesNegotiation(t *testing.T) {
	srv := NewServer(ServerOptions{CorrectEvery: -1})
	for _, b := range testBatches(8) {
		srv.Store().AbsorbSnapshot(b)
	}
	srv.Correct()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(accept string) (string, []byte) {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/patches?since=0", nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/patches (Accept %q): %s %v", accept, resp.Status, err)
		}
		return resp.Header.Get("Content-Type"), body
	}
	ct, plain := get("")
	var doc codec.PatchSet
	if err := json.Unmarshal(plain, &doc); ct != "application/json" || err != nil {
		t.Fatalf("plain poll: Content-Type %q, decode %v; want the JSON document", ct, err)
	}
	if doc.Set().Pad(guiltySite) == 0 {
		t.Fatalf("JSON patch set missed the guilty site: %s", plain)
	}
	ct, framed := get(codec.ContentTypeV2)
	if ct != codec.ContentTypeV2 || !bytes.HasPrefix(framed, []byte("XWF2")) {
		t.Fatalf("v2 poll: Content-Type %q, body % x; want an XWF2 frame", ct, framed[:min(len(framed), 8)])
	}
	if got := decodePatchSetFrame(t, framed); canonJSON(t, got) != canonJSON(t, &doc) {
		t.Fatalf("frame and JSON carry different entries:\n frame %s\n json  %s", canonJSON(t, got), plain)
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

	small := &cumulative.Snapshot{C: 4, P: 0.5, Runs: 1, Sites: []site.ID{1, 2, 3}}
	if _, err := c.PushBatchContext(t.Context(), stampedBatch("gzip-install", small)); err != nil {
		t.Fatal(err)
	}

	big := &cumulative.Snapshot{C: 4, P: 0.5, Runs: 1}
	for i := 0; i < 2000; i++ {
		big.Sites = append(big.Sites, site.ID(i*7+1))
		big.Overflow = append(big.Overflow, cumulative.SiteObservations{
			Site: site.ID(i*7 + 1),
			Obs:  []cumulative.Observation{{X: float64(i) / 2000, Y: i%3 == 0}},
		})
	}
	if _, err := c.PushBatchContext(t.Context(), stampedBatch("gzip-install", big)); err != nil {
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

// TestDeltasNegotiation: GET /v1/deltas answers a v2 frame whatever the
// request's Accept says — a plain poll with no Accept header included —
// and the frame replays to the uploaded evidence.
func TestDeltasNegotiation(t *testing.T) {
	srv := NewServer(ServerOptions{CorrectEvery: 0})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	up := NewClient(ts.URL, "uploader")
	batches := testBatches(6)
	for i, b := range batches {
		if _, err := up.PushBatchContext(t.Context(), lineageBatch("uploader", uint64(i+1), b)); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/deltas?since=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != codec.ContentTypeV2 {
		t.Fatalf("plain delta poll: %s, Content-Type %q; want a v2 frame", resp.Status, ct)
	}
	data, err := readBody(resp, "delta")
	if err != nil {
		t.Fatal(err)
	}
	d, err := codec.DecodeDelta(data)
	if err != nil {
		t.Fatalf("plain delta poll is not an XWF2 delta frame: %v", err)
	}
	h := cumulative.NewHistory(cumulative.DefaultConfig())
	for _, op := range d.Ops {
		if op.Snapshot != nil {
			h.Absorb(op.Snapshot)
		}
	}
	ref := cumulative.NewHistory(cumulative.DefaultConfig())
	for _, b := range batches {
		ref.Absorb(b)
	}
	// Canonicalize before comparing: Equal is order-sensitive and the
	// journal replay arrives pre-sorted while ref absorbed raw batches.
	h.Canonicalize()
	ref.Canonicalize()
	if !h.Equal(ref) {
		t.Fatal("delta poll diverged from the uploaded evidence")
	}
}

// TestElasticIdentifyEquivalence: the parallel correction pool must
// derive exactly the serial pass's findings, and hand triage exactly its
// candidates, whatever the worker count.
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

	wantF, wantIn := build(1).Identify()
	want := wantF.Patches()
	if want.Len() == 0 {
		t.Fatal("serial pass derived no patches; evidence too weak")
	}
	for _, workers := range []int{2, 4, 8, 32} {
		gotF, gotIn := build(workers).Identify()
		if got := gotF.Patches(); !got.Equal(want) {
			t.Fatalf("workers=%d diverged:\n got  %s\n want %s", workers, got, want)
		}
		if !reflect.DeepEqual(sortedCandidates(gotIn), sortedCandidates(wantIn)) {
			t.Fatalf("workers=%d handed triage different candidates", workers)
		}
	}
}

// sortedCandidates puts a triage input's candidates in key order (a
// shard hands out its rescored keys in map order).
func sortedCandidates(in triage.PassInput) triage.PassInput {
	for _, cs := range [][]cumulative.Candidate{in.Overflows, in.Danglings} {
		sort.Slice(cs, func(i, j int) bool {
			if cs[i].Site != cs[j].Site {
				return cs[i].Site < cs[j].Site
			}
			if cs[i].Pair.Alloc != cs[j].Pair.Alloc {
				return cs[i].Pair.Alloc < cs[j].Pair.Alloc
			}
			return cs[i].Pair.Free < cs[j].Pair.Free
		})
	}
	return in
}

// TestTriagePageReadsDeclaredLength: a response that declares its
// Content-Length is read into a slice of exactly that length, and one
// declaring more than maxResponseBytes is refused before its body is
// read.
func TestTriagePageReadsDeclaredLength(t *testing.T) {
	const page = `{"total":0,"offset":0,"limit":1,"pass":0,"clusters":[]}` + "\n"
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("offset") == "1" {
			w.Header().Set("Content-Length", strconv.Itoa(maxResponseBytes+1))
			w.WriteHeader(http.StatusOK)
			return
		}
		w.Header().Set("Content-Length", strconv.Itoa(len(page)))
		io.WriteString(w, page)
	}))
	defer ts.Close()
	c := NewClient(ts.URL, "t")

	body, err := c.TriagePage(context.Background(), 0, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != page || cap(body) != len(page) {
		t.Fatalf("page read as %d bytes in a %d-byte slice: %q", len(body), cap(body), body)
	}
	if _, err := c.TriagePage(context.Background(), 1, 1, ""); err == nil || !strings.Contains(err.Error(), "exceed") {
		t.Fatalf("oversized page: err = %v, want the size limit", err)
	}
}

// TestFramesDeclareContentLength: a delta frame and a patch frame longer
// than net/http's 2 KB response buffer, served through Handler(), declare
// their length, so a poller reads each into one slice of exact size
// instead of growing one through io.ReadAll.
func TestFramesDeclareContentLength(t *testing.T) {
	srv := NewServer(ServerOptions{CorrectEvery: -1})
	ps := patch.New()
	for i := 0; i < 600; i++ {
		ps.AddPad(site.ID(uint32(i+1)*2654435761), uint32(8+i%64))
	}
	srv.PatchLog().Fold(ps)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	snap := &cumulative.Snapshot{C: 4, P: 0.5, Runs: 1}
	for i := 0; i < 300; i++ {
		id := site.ID(0x5000 + i)
		snap.Sites = append(snap.Sites, id)
		snap.Overflow = append(snap.Overflow, cumulative.SiteObservations{
			Site: id, Obs: []cumulative.Observation{{X: 0.3, Y: i%3 == 0}},
		})
	}
	if _, err := NewClient(ts.URL, "uploader").PushBatchContext(t.Context(), lineageBatch("uploader", 1, snap)); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{"/v1/deltas?since=0", "/v1/patches?since=0"} {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		req.Header.Set("Accept", codec.ContentTypeV2)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || !bytes.HasPrefix(body, []byte("XWF2")) {
			t.Fatalf("GET %s: %s, %v; want a v2 frame", path, resp.Status, err)
		}
		if len(body) <= 2048 || resp.ContentLength != int64(len(body)) {
			t.Errorf("GET %s: %d-byte frame with Content-Length %d", path, len(body), resp.ContentLength)
		}
	}
}
