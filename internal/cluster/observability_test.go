package cluster

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"

	"exterminator/internal/cumulative"
	"exterminator/internal/fleet"
	"exterminator/internal/site"
	"exterminator/internal/telemetry"
)

// logSink is a goroutine-safe slog destination.
type logSink struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *logSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *logSink) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func sampleValue(body, name string) string {
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			return rest
		}
	}
	return ""
}

// TestUploadCorrelationAcrossTiers is the end-to-end observability
// check: ONE client upload must (a) increment the partition's ingest
// metrics, (b) increment the coordinator's delta-ingest metrics after a
// poll, and (c) appear under the SAME correlation ID in the partition's
// log and the coordinator's log — the grep-one-ID-across-three-tiers
// property the telemetry layer exists for.
func TestUploadCorrelationAcrossTiers(t *testing.T) {
	ctx := context.Background()

	var partLog, coordLog logSink
	partReg := telemetry.NewRegistry()
	part := fleet.NewServer(fleet.ServerOptions{
		CorrectEvery:      -1,
		DisableCorrection: true,
		Metrics:           partReg,
		Logger:            slog.New(slog.NewTextHandler(&partLog, nil)),
	})
	partTS := httptest.NewServer(part.Handler())
	defer partTS.Close()

	coordReg := telemetry.NewRegistry()
	coord, err := NewCoordinator(CoordinatorOptions{
		Partitions: []string{partTS.URL},
		Metrics:    coordReg,
		Logger:     slog.New(slog.NewTextHandler(&coordLog, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	coordTS := httptest.NewServer(coord.Handler())
	defer coordTS.Close()

	// One upload from one client, through the instrumented fleet client.
	c := fleet.NewClient(partTS.URL, "e2e-install")
	snap := &cumulative.Snapshot{C: 4, P: 0.5, Runs: 2}
	snap.Sites = append(snap.Sites, site.ID(0x900))
	snap.Overflow = append(snap.Overflow, cumulative.SiteObservations{
		Site: site.ID(0x900),
		Obs:  []cumulative.Observation{{X: 0.25, Y: false}, {X: 0.5, Y: true}},
	})
	reply, err := pushStamped(ctx, c, snap)
	if err != nil {
		t.Fatal(err)
	}
	reqID := reply.RequestID
	if reqID == "" {
		t.Fatal("upload reply carries no correlation ID")
	}

	// Coordinator mirrors the partition.
	if _, err := coord.Sync(ctx); err != nil {
		t.Fatal(err)
	}

	// (a) Partition ingest metrics.
	partMetrics := getBody(t, partTS.URL+"/metrics")
	if got := sampleValue(partMetrics, "fleet_ingest_batches_total"); got != "1" {
		t.Errorf("partition fleet_ingest_batches_total = %q, want 1", got)
	}
	if got := sampleValue(partMetrics, "fleet_ingest_observations_total"); got != "2" {
		t.Errorf("partition fleet_ingest_observations_total = %q, want 2", got)
	}

	// (b) Coordinator ingest metrics, served from its own /metrics route.
	coordMetrics := getBody(t, coordTS.URL+"/metrics")
	if got := sampleValue(coordMetrics, "cluster_deltas_applied_total"); got != "1" {
		t.Errorf("coordinator cluster_deltas_applied_total = %q, want 1", got)
	}
	if got := sampleValue(coordMetrics, "cluster_delta_observations_total"); got != "2" {
		t.Errorf("coordinator cluster_delta_observations_total = %q, want 2", got)
	}
	if got := sampleValue(coordMetrics, "cluster_polls_total"); got != "1" {
		t.Errorf("coordinator cluster_polls_total = %q, want 1", got)
	}
	if !regexp.MustCompile(`cluster_partition_seq\{partition="[^"]+"\} 1`).MatchString(coordMetrics) {
		t.Errorf("coordinator missing cluster_partition_seq series:\n%s", coordMetrics)
	}

	// (c) The same correlation ID in both logs.
	if !strings.Contains(partLog.String(), reqID) {
		t.Errorf("partition log does not carry correlation ID %s:\n%s", reqID, partLog.String())
	}
	if !strings.Contains(coordLog.String(), reqID) {
		t.Errorf("coordinator log does not carry correlation ID %s:\n%s", reqID, coordLog.String())
	}
}

// TestRebalanceMetrics: a completed add-node rebalance shows up in the
// phase histograms, the moved-key counter and the outcome counter.
func TestRebalanceMetrics(t *testing.T) {
	ctx := context.Background()
	cfg := cumulative.Config{C: 4, P: 0.5}

	mk := func() (*fleet.Server, *httptest.Server) {
		srv := fleet.NewServer(fleet.ServerOptions{Config: cfg, CorrectEvery: -1, DisableCorrection: true})
		return srv, httptest.NewServer(srv.Handler())
	}
	_, ts1 := mk()
	defer ts1.Close()
	_, ts2 := mk()
	defer ts2.Close()

	reg := telemetry.NewRegistry()
	coord, err := NewCoordinator(CoordinatorOptions{
		Partitions: []string{ts1.URL},
		Config:     cfg,
		Metrics:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Seed evidence across many keys so the resize moves some.
	rt, err := NewRouter("seed", ts1.URL)
	if err != nil {
		t.Fatal(err)
	}
	snap := &cumulative.Snapshot{C: 4, P: 0.5, Runs: 1}
	for i := 0; i < 64; i++ {
		id := site.ID(0x2000 + uint32(i))
		snap.Sites = append(snap.Sites, id)
		snap.Overflow = append(snap.Overflow, cumulative.SiteObservations{
			Site: id, Obs: []cumulative.Observation{{X: 0.25, Y: false}},
		})
	}
	if err := pushRouted(ctx, rt, snap); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Sync(ctx); err != nil {
		t.Fatal(err)
	}

	res, err := coord.AddNode(ctx, ts2.URL)
	if err != nil {
		t.Fatal(err)
	}
	if res.MovedKeys == 0 {
		t.Fatal("rebalance moved no keys; metric assertions would be vacuous")
	}

	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	body := b.String()
	if got := sampleValue(body, `cluster_rebalances_total{outcome="done"}`); got != "1" {
		t.Errorf(`cluster_rebalances_total{outcome="done"} = %q, want 1`, got)
	}
	if got := sampleValue(body, "cluster_rebalance_moved_keys_total"); got == "" || got == "0" {
		t.Errorf("cluster_rebalance_moved_keys_total = %q, want > 0", got)
	}
	for _, phase := range []string{"announce", "drain", "commit"} {
		if !strings.Contains(body, `cluster_rebalance_phase_seconds_count{phase="`+phase+`"} 1`) {
			t.Errorf("missing phase histogram for %q:\n%s", phase, body)
		}
	}
}

// TestScrapeDuringMembershipChange pins the lock-order fix: exposition
// scrapes hammering the registry must never deadlock against a
// membership change that registers new per-partition series while
// holding the coordinator's state lock. (The old ABBA: WriteText held
// the registry lock while gauge funcs took the coordinator lock, and
// newPartition took the two in the opposite order — one scrape
// concurrent with one add-node could hang the coordinator forever.)
// It also pins the mirrored merged-history gauges: the values must be
// current in the scrape without the exposition path touching c.mu.
func TestScrapeDuringMembershipChange(t *testing.T) {
	ctx := context.Background()
	cfg := cumulative.Config{C: 4, P: 0.5}

	mk := func() *httptest.Server {
		srv := fleet.NewServer(fleet.ServerOptions{Config: cfg, CorrectEvery: -1, DisableCorrection: true})
		return httptest.NewServer(srv.Handler())
	}
	ts1 := mk()
	defer ts1.Close()
	ts2 := mk()
	defer ts2.Close()

	reg := telemetry.NewRegistry()
	coord, err := NewCoordinator(CoordinatorOptions{
		Partitions: []string{ts1.URL},
		Config:     cfg,
		Metrics:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	rt, err := NewRouter("seed", ts1.URL)
	if err != nil {
		t.Fatal(err)
	}
	snap := &cumulative.Snapshot{C: 4, P: 0.5, Runs: 1}
	for i := 0; i < 64; i++ {
		id := site.ID(0x3000 + uint32(i))
		snap.Sites = append(snap.Sites, id)
		snap.Overflow = append(snap.Overflow, cumulative.SiteObservations{
			Site: id, Obs: []cumulative.Observation{{X: 0.25, Y: false}},
		})
	}
	if err := pushRouted(ctx, rt, snap); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Sync(ctx); err != nil {
		t.Fatal(err)
	}

	// Scrape continuously while the rebalance registers the new node's
	// series. Before the fix this pair could deadlock; the test would
	// then hang until the go test timeout.
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			var b strings.Builder
			if err := reg.WriteText(&b); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	_, rebErr := coord.AddNode(ctx, ts2.URL)
	close(done)
	wg.Wait()
	if rebErr != nil {
		t.Fatal(rebErr)
	}

	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	body := b.String()
	if got := sampleValue(body, "cluster_partitions"); got != "2" {
		t.Errorf("cluster_partitions = %q, want 2", got)
	}
	if got := sampleValue(body, "cluster_merged_sites"); got != "64" {
		t.Errorf("cluster_merged_sites = %q, want 64", got)
	}
	if got := sampleValue(body, "cluster_merged_runs"); got != "1" {
		t.Errorf("cluster_merged_runs = %q, want 1", got)
	}
	// runRebalance ends with a Correct(), which clears the dirty set and
	// re-mirrors the gauge.
	if got := sampleValue(body, "cluster_dirty_keys"); got != "0" {
		t.Errorf("cluster_dirty_keys = %q, want 0", got)
	}
}
