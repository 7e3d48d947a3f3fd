package engine

import (
	"context"
	"sync"
	"testing"
	"time"

	"exterminator/internal/cumulative"
	"exterminator/internal/mutator"
)

// recordingStreamSink captures every mid-run delta the engine flushes
// through it, advancing the history's upload watermark like a real
// fleet sink, plus whatever the final post-run commit delivers.
type recordingStreamSink struct {
	mu      sync.Mutex
	deltas  []*cumulative.Snapshot
	commits int
	final   *cumulative.Snapshot
}

func (r *recordingStreamSink) SinkName() string { return "recorder" }

func (r *recordingStreamSink) Commit(_ context.Context, ev *Evidence) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.commits++
	if ev.History == nil {
		return nil
	}
	delta := ev.History.UploadDelta()
	if !cumulative.DeltaEmpty(delta) {
		ev.History.MarkUploaded(delta)
		r.final = delta
	}
	return nil
}

func (r *recordingStreamSink) FlushEvidence(_ context.Context, ev *Evidence) error {
	delta := ev.History.UploadDelta()
	if cumulative.DeltaEmpty(delta) {
		return nil
	}
	ev.History.MarkUploaded(delta)
	r.mu.Lock()
	r.deltas = append(r.deltas, delta)
	r.mu.Unlock()
	return nil
}

// checkDeltasPartitionHistory asserts the streamed deltas (plus the
// final commit) are monotone and non-overlapping: run counters sum to
// the session total and every site is announced exactly once.
func checkDeltasPartitionHistory(t *testing.T, rec *recordingStreamSink, wantRuns int) {
	t.Helper()
	rec.mu.Lock()
	defer rec.mu.Unlock()
	all := rec.deltas
	if rec.final != nil {
		all = append(append([]*cumulative.Snapshot(nil), all...), rec.final)
	}
	runs := 0
	seenSites := make(map[uint32]bool)
	for i, d := range all {
		if d.Runs <= 0 {
			t.Fatalf("delta %d carries no run progress: %+v", i, d)
		}
		runs += d.Runs
		for _, s := range d.Sites {
			if seenSites[uint32(s)] {
				t.Fatalf("site %v announced twice — deltas overlap", s)
			}
			seenSites[uint32(s)] = true
		}
	}
	if runs != wantRuns {
		t.Fatalf("deltas sum to %d runs, session recorded %d (lost or duplicated evidence)", runs, wantRuns)
	}
}

// TestFlushEveryStreamsMonotoneDeltas: with WithFlushEvery(1) every run
// is streamed as its own delta; the deltas partition the history (no
// overlap, no loss) and the final commit adds nothing that was already
// flushed.
func TestFlushEveryStreamsMonotoneDeltas(t *testing.T) {
	rec := &recordingStreamSink{}
	var flushEvents int
	sess, err := New(Batch(espresso()),
		WithMode(ModeCumulative),
		WithSeeds(1, 0x9106),
		WithMaxRuns(6),
		WithFlushEvery(1),
		WithSink(rec),
		WithObserver(ObserverFunc(func(ev Event) {
			if _, ok := ev.(EvidenceFlushed); ok {
				flushEvents++
			}
		})))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.deltas) == 0 {
		t.Fatal("no mid-run flushes happened")
	}
	if flushEvents != len(rec.deltas) {
		t.Fatalf("%d EvidenceFlushed events for %d deltas", flushEvents, len(rec.deltas))
	}
	if rec.commits != 1 {
		t.Fatalf("commits = %d, want 1", rec.commits)
	}
	checkDeltasPartitionHistory(t, rec, res.Cumulative.Runs)
}

// TestFlushEveryParallelPool: mid-run flushing under the cumulative
// worker pool — the flusher and the collector share the history through
// the session lock, and the deltas still partition the evidence exactly.
func TestFlushEveryParallelPool(t *testing.T) {
	rec := &recordingStreamSink{}
	sess, err := New(Batch(espresso()),
		WithMode(ModeCumulative),
		WithSeeds(1, 0x9106),
		WithMaxRuns(12),
		WithParallelism(3),
		WithFlushEvery(2),
		WithSink(rec))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.deltas) == 0 {
		t.Fatal("no mid-run flushes happened")
	}
	checkDeltasPartitionHistory(t, rec, res.Cumulative.Runs)
}

// slowProg is a trivial clean workload that sleeps per run, so an
// interval flusher gets several chances to fire mid-session.
type slowProg struct{ d time.Duration }

func (p slowProg) Name() string { return "slow" }
func (p slowProg) Run(e *mutator.Env) {
	ptr := e.Malloc(16)
	time.Sleep(p.d)
	e.Free(ptr)
}

// TestFlushIntervalStreamsMidRun: the wall-clock trigger flushes while
// runs are still executing, and interval flushes compose with the final
// commit without loss or double count.
func TestFlushIntervalStreamsMidRun(t *testing.T) {
	rec := &recordingStreamSink{}
	sess, err := New(Batch(slowProg{d: 5 * time.Millisecond}),
		WithMode(ModeCumulative),
		WithSeeds(1, 0x9106),
		WithMaxRuns(10),
		WithFlushInterval(2*time.Millisecond),
		WithSink(rec))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.deltas) == 0 {
		t.Fatal("interval flusher never fired during a ~50ms session")
	}
	checkDeltasPartitionHistory(t, rec, res.Cumulative.Runs)
}

// TestFlushFailureIsSoft: a failing streaming sink neither aborts the
// session nor loses evidence — the failure lands in SinkErrors and the
// final commit still delivers everything.
func TestFlushFailureIsSoft(t *testing.T) {
	rec := &recordingStreamSink{}
	failing := &failingStreamSink{}
	sess, err := New(Batch(espresso()),
		WithMode(ModeCumulative),
		WithSeeds(1, 0x9106),
		WithMaxRuns(4),
		WithFlushEvery(1),
		WithSink(failing),
		WithSink(rec))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var flushErrs int
	for _, se := range res.SinkErrors {
		if se.Op == "flush" && se.Sink == failing.SinkName() {
			flushErrs++
		}
	}
	if flushErrs == 0 {
		t.Fatal("failing flushes left no trace in SinkErrors")
	}
	checkDeltasPartitionHistory(t, rec, res.Cumulative.Runs)
}

// TestHistoryFileStreamsAtomically: the history-file sink rewrites the
// file at every flush, atomically — decoding it at any flush point
// yields a complete history holding everything up to that flush, so a
// crash between flushes loses at most one interval of evidence.
func TestHistoryFileStreamsAtomically(t *testing.T) {
	path := t.TempDir() + "/stream.xth"
	var midRuns []int
	obs := ObserverFunc(func(ev Event) {
		e, ok := ev.(EvidenceFlushed)
		if !ok {
			return
		}
		hist, err := LoadHistoryFile(path)
		if err != nil {
			t.Errorf("history file undecodable mid-run: %v", err)
			return
		}
		if hist.Runs != e.Run {
			t.Errorf("flushed file holds %d runs at flush of run %d", hist.Runs, e.Run)
		}
		midRuns = append(midRuns, hist.Runs)
	})
	sess, err := New(Batch(espresso()),
		WithMode(ModeCumulative),
		WithSeeds(1, 0x9106),
		WithMaxRuns(5),
		WithFlushEvery(1),
		WithSink(HistoryFile(path)),
		WithObserver(obs))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(midRuns) == 0 {
		t.Fatal("no mid-run flushes happened")
	}
	for i := 1; i < len(midRuns); i++ {
		if midRuns[i] <= midRuns[i-1] {
			t.Fatalf("persisted run counts not monotone: %v", midRuns)
		}
	}
	final, err := LoadHistoryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if final.Runs != res.Cumulative.History.Runs {
		t.Fatalf("final file holds %d runs, session recorded %d", final.Runs, res.Cumulative.History.Runs)
	}
}

type failingStreamSink struct{}

func (failingStreamSink) SinkName() string                        { return "flaky" }
func (failingStreamSink) Commit(context.Context, *Evidence) error { return nil }
func (failingStreamSink) FlushEvidence(context.Context, *Evidence) error {
	return context.DeadlineExceeded
}
