package fleet

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"exterminator/internal/testutil"
)

// TestServerShutdownLeavesNoGoroutines drives a full server lifecycle —
// background correction loop, HTTP ingest traffic — then tears it down
// and requires that every goroutine the test started has exited. Armed
// first so the leak check runs after all the shutdown cleanups.
func TestServerShutdownLeavesNoGoroutines(t *testing.T) {
	testutil.VerifyNoLeaks(t)

	srv := NewServer(ServerOptions{Shards: 4, CorrectEvery: 0})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		srv.RunCorrectionLoop(ctx, time.Millisecond)
	}()

	c := NewClient(ts.URL, "leak-test")
	for i, b := range testBatches(3) {
		if _, err := c.PushBatchContext(ctx, lineageBatch("leak-test", uint64(i+1), b)); err != nil {
			cancel()
			t.Fatalf("push: %v", err)
		}
	}

	cancel()
	select {
	case <-loopDone:
	case <-time.After(5 * time.Second):
		t.Fatal("correction loop did not stop after cancel")
	}
}
