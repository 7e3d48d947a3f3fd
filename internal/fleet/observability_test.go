package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"exterminator/internal/fleet/codec"
	"exterminator/internal/telemetry"
)

// syncBuffer is a goroutine-safe log sink: the HTTP server logs from
// request goroutines while the test reads.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// scrape fetches url and returns the body.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// metricValue extracts one unlabeled sample's value from an exposition
// body ("" if absent).
func metricValue(body, name string) string {
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			return rest
		}
	}
	return ""
}

// TestServerIngestMetricsAndCorrelation: one upload increments the
// ingest counters on /metrics, the reply and response header echo a
// correlation ID, the server's log carries it, and a duplicate retry
// shows up as a dedup hit — the partition half of the observability
// pipeline.
func TestServerIngestMetricsAndCorrelation(t *testing.T) {
	var logBuf syncBuffer
	reg := telemetry.NewRegistry()
	srv := NewServer(ServerOptions{
		CorrectEvery: -1,
		Metrics:      reg,
		Logger:       slog.New(slog.NewTextHandler(&logBuf, nil)),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	clientReg := telemetry.NewRegistry()
	c := NewClient(ts.URL, "obs-client")
	c.SetMetrics(clientReg)
	c.SetLogger(slog.New(slog.DiscardHandler))

	batch := stampedBatch("obs-client", smallSnapshot(2, 0x200, 0x201))
	reply, err := c.PushBatchContext(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	if reply.RequestID == "" {
		t.Fatal("ingest reply carries no correlation ID")
	}
	if !strings.Contains(logBuf.String(), "requestId="+reply.RequestID) {
		t.Errorf("server log does not mention correlation ID %s:\n%s", reply.RequestID, logBuf.String())
	}
	if !strings.Contains(logBuf.String(), "ingest absorbed") {
		t.Errorf("server log missing the absorb line:\n%s", logBuf.String())
	}

	// Retry the same stamped batch: dedup hit, second correlation ID.
	dup, err := c.PushBatchContext(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	if !dup.Duplicate {
		t.Fatal("retry not deduplicated")
	}

	body := scrape(t, ts.URL+"/metrics")
	for name, want := range map[string]string{
		"fleet_ingest_batches_total":      "1",
		"fleet_ingest_observations_total": "2",
		"fleet_ingest_runs_total":         "2",
		"fleet_dedup_hits_total":          "1",
	} {
		if got := metricValue(body, name); got != want {
			t.Errorf("%s = %q, want %q", name, got, want)
		}
	}
	if got := metricValue(body, "fleet_ingest_seconds_count"); got != "2" {
		t.Errorf("fleet_ingest_seconds_count = %q, want 2 (both deliveries timed)", got)
	}
	if !strings.Contains(body, "exterminator_build_info{") {
		t.Error("/metrics missing exterminator_build_info")
	}

	// The client side of the pipeline counted its pushes.
	var cb strings.Builder
	if err := clientReg.WriteText(&cb); err != nil {
		t.Fatal(err)
	}
	if got := metricValue(cb.String(), "fleet_client_pushes_total"); got != "2" {
		t.Errorf("fleet_client_pushes_total = %q, want 2", got)
	}
	if got := metricValue(cb.String(), "fleet_client_push_seconds_count"); got != "2" {
		t.Errorf("fleet_client_push_seconds_count = %q, want 2", got)
	}
}

// TestRequestIDProvidedByCaller: a caller-supplied X-Request-ID is
// honored end to end — echoed on the response header and the reply body
// — rather than replaced by a server-minted one.
func TestRequestIDProvidedByCaller(t *testing.T) {
	srv := NewServer(ServerOptions{CorrectEvery: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	batch := stampedBatch("hdr-client", smallSnapshot(1, 0x300))
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/observations", bytes.NewReader(frame(batch)))
	req.Header.Set("Content-Type", codec.ContentTypeV2)
	req.Header.Set(RequestIDHeader, "caller-chosen-id-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get(RequestIDHeader); got != "caller-chosen-id-42" {
		t.Errorf("response %s = %q, want the caller's ID", RequestIDHeader, got)
	}
	var reply IngestReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	if reply.RequestID != "caller-chosen-id-42" {
		t.Errorf("reply.RequestID = %q, want the caller's ID", reply.RequestID)
	}
}

// TestClientRetryLogging: a 429 with Retry-After makes the client log
// the retry (attempt count, wait, batch and correlation IDs) and count
// it in its retry/backoff metrics.
func TestClientRetryLogging(t *testing.T) {
	var rejected bool
	var mu sync.Mutex
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		first := !rejected
		rejected = true
		mu.Unlock()
		if first {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "slow down", http.StatusTooManyRequests)
			return
		}
		io.Copy(io.Discard, r.Body)
		json.NewEncoder(w).Encode(IngestReply{OK: true, RequestID: r.Header.Get(RequestIDHeader)})
	}))
	defer ts.Close()

	var logBuf syncBuffer
	reg := telemetry.NewRegistry()
	c := NewClient(ts.URL, "retry-client")
	c.SetLogger(slog.New(slog.NewTextHandler(&logBuf, nil)))
	c.SetMetrics(reg)

	batch := stampedBatch("retry-client", smallSnapshot(1, 0x400))
	reply, err := c.PushBatchContext(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	if reply.RequestID == "" {
		t.Fatal("no correlation ID came back")
	}
	logs := logBuf.String()
	if !strings.Contains(logs, "rate-limited") {
		t.Errorf("client log missing the retry line:\n%s", logs)
	}
	for _, field := range []string{"attempt=1", "retryAfterSec=1", "batchId=" + batch.BatchID, "requestId=" + reply.RequestID} {
		if !strings.Contains(logs, field) {
			t.Errorf("client retry log missing %q:\n%s", field, logs)
		}
	}
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if got := metricValue(b.String(), "fleet_client_retries_total"); got != "1" {
		t.Errorf("fleet_client_retries_total = %q, want 1", got)
	}
	if got := metricValue(b.String(), "fleet_client_backoff_seconds_total"); got != "1" {
		t.Errorf("fleet_client_backoff_seconds_total = %q, want 1", got)
	}
}

// TestStatusCarriesBuild: /v1/status reports the binary's link-time
// identity.
func TestStatusCarriesBuild(t *testing.T) {
	srv := NewServer(ServerOptions{CorrectEvery: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	st, err := NewClient(ts.URL, "").Status()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(st.Build, "dev") {
		t.Errorf("status Build = %q, want the default dev stamp", st.Build)
	}
}
