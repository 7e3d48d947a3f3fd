package cluster

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"exterminator/internal/cumulative"
	"exterminator/internal/fleet"
	"exterminator/internal/testutil"
)

// TestCoordinatorShutdownLeavesNoGoroutines runs the coordinator's
// background poll loop against a live partition, feeds it real
// observations, then cancels and requires every goroutine started
// during the test — the loop itself and the per-partition poll fan-out
// — to exit. Armed first so the leak check runs after all cleanups.
func TestCoordinatorShutdownLeavesNoGoroutines(t *testing.T) {
	testutil.VerifyNoLeaks(t)

	cfg := cumulative.DefaultConfig()
	srv := fleet.NewServer(fleet.ServerOptions{Config: cfg, CorrectEvery: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	coord, err := NewCoordinator(CoordinatorOptions{Partitions: []string{ts.URL}, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}

	client := fleet.NewClient(ts.URL, "leak-test")
	if _, err := pushStamped(context.Background(), client, testBatch(rand.New(rand.NewSource(1)))); err != nil {
		t.Fatalf("push: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		coord.Run(ctx, time.Millisecond)
	}()

	// Make sure at least one full poll+correct pass happened before the
	// teardown, so the shutdown path is exercised with state in flight.
	if _, err := coord.Sync(ctx); err != nil {
		cancel()
		t.Fatalf("sync: %v", err)
	}

	cancel()
	select {
	case <-loopDone:
	case <-time.After(5 * time.Second):
		t.Fatal("coordinator poll loop did not stop after cancel")
	}
}
