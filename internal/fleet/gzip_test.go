package fleet

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"exterminator/internal/cumulative"
	"exterminator/internal/fleet/codec"
	"exterminator/internal/site"
)

// bigSnapshot fabricates a large observation batch: thousands of sites,
// each with several observations — the shape a long-lived installation
// uploads, and the reason uploads are compressed.
func bigSnapshot(sites, obsPerSite int) *cumulative.Snapshot {
	s := &cumulative.Snapshot{C: 4, P: 0.5, Runs: obsPerSite, FailedRuns: 1, CorruptRuns: obsPerSite}
	for i := 0; i < sites; i++ {
		id := site.ID(0x1000 + uint32(i))
		s.Sites = append(s.Sites, id)
		so := cumulative.SiteObservations{Site: id}
		for o := 0; o < obsPerSite; o++ {
			so.Obs = append(so.Obs, cumulative.Observation{X: 0.25 + float64(o%3)*0.1, Y: (i+o)%2 == 0})
		}
		s.Overflow = append(s.Overflow, so)
	}
	return s
}

// gzipSpy wraps a handler and records whether requests arrived
// gzip-encoded and how many compressed bytes came over the wire.
type gzipSpy struct {
	next        http.Handler
	sawGzip     atomic.Bool
	wireBytes   atomic.Int64
	sawIdentity atomic.Bool
}

func (g *gzipSpy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		if r.Header.Get("Content-Encoding") == "gzip" {
			g.sawGzip.Store(true)
		} else {
			g.sawIdentity.Store(true)
		}
		if r.ContentLength > 0 {
			g.wireBytes.Add(r.ContentLength)
		}
	}
	g.next.ServeHTTP(w, r)
}

// TestGzipUploadRoundTrip: the client sends Content-Encoding: gzip
// bodies, the server transparently decompresses, and a large snapshot
// survives the round trip intact.
func TestGzipUploadRoundTrip(t *testing.T) {
	srv := NewServer(ServerOptions{CorrectEvery: -1})
	spy := &gzipSpy{next: srv.Handler()}
	ts := httptest.NewServer(spy)
	defer ts.Close()

	snap := bigSnapshot(2000, 4)
	c := NewClient(ts.URL, "gzip-client")
	reply, err := c.PushBatchContext(t.Context(), stampedBatch("gzip-client", snap))
	if err != nil {
		t.Fatal(err)
	}
	if !spy.sawGzip.Load() {
		t.Fatal("upload was not gzip-encoded")
	}
	if !reply.OK {
		t.Fatalf("ingest reply: %+v", reply)
	}
	if reply.Sites != 2000 {
		t.Fatalf("server saw %d sites, want 2000", reply.Sites)
	}
	if reply.Runs != int64(snap.Runs) {
		t.Fatalf("server saw %d runs, want %d", reply.Runs, snap.Runs)
	}

	// The server-side evidence must match what was sent, observation for
	// observation: compare the combined history's snapshot to the input.
	got := srv.Store().Combined().Snapshot()
	if len(got.Overflow) != len(snap.Overflow) {
		t.Fatalf("overflow sites: got %d, want %d", len(got.Overflow), len(snap.Overflow))
	}
	for i := range got.Overflow {
		if got.Overflow[i].Site != snap.Overflow[i].Site {
			t.Fatalf("site %d: got %v, want %v", i, got.Overflow[i].Site, snap.Overflow[i].Site)
		}
		if len(got.Overflow[i].Obs) != len(snap.Overflow[i].Obs) {
			t.Fatalf("site %v: got %d obs, want %d",
				got.Overflow[i].Site, len(got.Overflow[i].Obs), len(snap.Overflow[i].Obs))
		}
	}

	// Compression must actually pay for this payload shape: post the
	// same frame uncompressed for a size baseline.
	gzipped := spy.wireBytes.Load()
	resp, err := http.Post(ts.URL+"/v1/observations", codec.ContentTypeV2,
		bytes.NewReader(frame(stampedBatch("baseline", snap))))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !spy.sawIdentity.Load() {
		t.Fatalf("baseline identity upload: %s", resp.Status)
	}
	t.Logf("wire bytes for one upload: %d gzip, %d identity", gzipped, spy.wireBytes.Load()-gzipped)
}

// TestUncompressedClientStillAccepted: servers must keep accepting
// identity-encoded frames (no Content-Encoding), which is what the
// client sends below the gzip threshold and what hand-rolled uploaders
// send.
func TestUncompressedClientStillAccepted(t *testing.T) {
	srv := NewServer(ServerOptions{CorrectEvery: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/observations", codec.ContentTypeV2,
		bytes.NewReader(frame(stampedBatch("legacy", bigSnapshot(10, 2)))))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var reply IngestReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatalf("%s: %v", resp.Status, err)
	}
	if resp.StatusCode != http.StatusOK || !reply.OK || reply.Sites != 10 {
		t.Fatalf("%s: reply %+v", resp.Status, reply)
	}
}

// postEncoded posts body as a stamped-frame upload with the given
// Content-Encoding and returns the status and the error text the server
// answered with.
func postEncoded(t *testing.T, url, encoding string, body []byte) (int, string) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodPost, url+"/v1/observations", bytes.NewReader(body))
	req.Header.Set("Content-Type", codec.ContentTypeV2)
	req.Header.Set("Content-Encoding", encoding)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(msg)
}

// TestServerRejectsUnknownEncoding: anything but gzip is a 400, not a
// silent misparse.
func TestServerRejectsUnknownEncoding(t *testing.T) {
	srv := NewServer(ServerOptions{CorrectEvery: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, msg := postEncoded(t, ts.URL, "br", frame(stampedBatch("br", bigSnapshot(1, 1))))
	if code != http.StatusBadRequest || !strings.Contains(msg, `unsupported Content-Encoding "br"`) {
		t.Fatalf("status %d %q, want 400 for the unsupported encoding", code, msg)
	}
	if runs := srv.Store().Runs(); runs != 0 {
		t.Fatalf("rejected upload absorbed: runs = %d", runs)
	}
}

// TestServerRejectsCorruptGzip: a mangled compressed body is a clean
// 400.
func TestServerRejectsCorruptGzip(t *testing.T) {
	srv := NewServer(ServerOptions{CorrectEvery: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := []byte{0x1f, 0x8b, 0xff, 0x00, 0x01, 0x02} // bad gzip stream
	code, msg := postEncoded(t, ts.URL, "gzip", body)
	if code != http.StatusBadRequest || !strings.Contains(msg, "decode gzip body") {
		t.Fatalf("status %d %q, want 400 for the corrupt gzip stream", code, msg)
	}
}

// TestGzipBombBounded: the decompressed payload is capped at the body
// limit, so a tiny request cannot expand into an unbounded allocation.
func TestGzipBombBounded(t *testing.T) {
	srv := NewServer(ServerOptions{CorrectEvery: -1, MaxBodyBytes: 4096})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A valid frame of ~40 KiB, mostly repetitive observations,
	// compresses to well under 4 KiB.
	huge := frame(stampedBatch("bomb", bigSnapshot(1, 5000)))
	var b bytes.Buffer
	zw := gzip.NewWriter(&b)
	zw.Write(huge)
	zw.Close()
	buf := b.Bytes()
	if len(huge) <= 4096 || len(buf) >= 4096 {
		t.Fatalf("test setup: frame %d bytes, compressed %d: want > 4096 and < 4096", len(huge), len(buf))
	}
	code, msg := postEncoded(t, ts.URL, "gzip", buf)
	if code != http.StatusBadRequest || !strings.Contains(msg, "decompressed body exceeds 4096 bytes") {
		t.Fatalf("status %d %q, want 400 (decompressed size exceeded)", code, msg)
	}
	if runs := srv.Store().Runs(); runs != 0 {
		t.Fatalf("bomb absorbed: runs = %d", runs)
	}
}
