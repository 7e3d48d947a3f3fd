package fleet_test

import (
	"context"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"exterminator/internal/engine"
	"exterminator/internal/fleet"
	"exterminator/internal/mutator"
	"exterminator/internal/testutil"
)

// flushOnRun is a clean workload that fires exactly one deterministic
// mid-run flush: on its trigger run it sends on the session's flush
// signal (engine.WithFlushSignal) and blocks until the flush is
// acknowledged. "Evidence visible mid-run" then holds by construction
// instead of depending on a wall-clock ticker winning a race against
// the workload's pacing.
type flushOnRun struct {
	runs    atomic.Int64
	trigger int64
	fire    chan<- time.Time
	acked   <-chan struct{}
}

func (p *flushOnRun) Name() string { return "paced" }
func (p *flushOnRun) Run(e *mutator.Env) {
	ptr := e.Malloc(16)
	if p.runs.Add(1) == p.trigger {
		p.fire <- time.Time{}
		<-p.acked
	}
	e.Free(ptr)
}

// TestSessionStreamsToLiveFleetMidRun is the live-streaming acceptance
// test: a cumulative session with a flush trigger contributes evidence
// to a running fleetd while it is still executing — observable through
// /v1/status before the session exits — and the post-run commit adds
// exactly the remainder, never double-counting what was flushed.
func TestSessionStreamsToLiveFleetMidRun(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	srv := fleet.NewServer(fleet.ServerOptions{CorrectEvery: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	client := fleet.NewClient(ts.URL, "live")
	sink := singleFleetdSink(t, ts.URL, "live")

	// The observer probes the server the moment the flush is
	// acknowledged: the session is mid-run (its trigger run is blocked
	// inside Run waiting for this ack), yet the fleet already holds
	// evidence.
	fire := make(chan time.Time)
	acked := make(chan struct{}, 1)
	var (
		mu         sync.Mutex
		midRunRuns int64
		midRunSeen bool
		flushes    int
	)
	obs := engine.ObserverFunc(func(ev engine.Event) {
		if _, ok := ev.(engine.EvidenceFlushed); !ok {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		flushes++
		if midRunSeen {
			return
		}
		st, err := client.Status()
		if err != nil {
			t.Errorf("status during flush: %v", err)
			return
		}
		midRunRuns, midRunSeen = st.Runs, true
		acked <- struct{}{}
	})

	const trigger = 5
	prog := &flushOnRun{trigger: trigger, fire: fire, acked: acked}
	sess, err := engine.New(engine.Batch(prog),
		engine.WithMode(engine.ModeCumulative),
		engine.WithSeeds(1, 0x9106),
		engine.WithMaxRuns(10),
		engine.WithFlushSignal(fire),
		engine.WithSink(sink),
		engine.WithObserver(obs))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, se := range res.SinkErrors {
		t.Fatalf("sink error: %v", se)
	}

	if !midRunSeen {
		t.Fatal("no mid-run flush reached the fleet")
	}
	if midRunRuns != trigger-1 {
		t.Fatalf("fleet showed %d runs at the mid-run flush, want the %d folded before the trigger run",
			midRunRuns, trigger-1)
	}
	total := int64(res.Cumulative.History.Runs)
	if midRunRuns >= total {
		t.Fatalf("first flush already showed all %d runs — nothing was streamed mid-run", total)
	}
	// No double count at session end: the fleet's total equals the
	// session's, even though evidence arrived across a flush plus a
	// final commit.
	if got := srv.Store().Runs(); got != total {
		t.Fatalf("fleet holds %d runs after session end, session recorded %d", got, total)
	}
	if flushes == 0 {
		t.Fatal("the session reported no evidence flushes")
	}
}
