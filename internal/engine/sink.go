package engine

import (
	"context"
	"fmt"
	"os"

	"exterminator/internal/atomicfile"
	"exterminator/internal/cumulative"
	"exterminator/internal/patch"
)

// Evidence is what a session hands its sinks after a run: the unified
// result plus the two payloads most sinks care about, pre-extracted.
// Mid-run flushes (StreamingSink) receive a partial Evidence: History is
// live, Result and Derived are nil because the run has not finished.
type Evidence struct {
	Workload string
	Mode     Mode
	// Result is the full unified result (partial if canceled, nil for a
	// mid-run flush).
	Result *Result
	// History is the cumulative evidence accumulator (nil outside
	// cumulative mode).
	History *cumulative.History
	// Derived holds only the patch entries this session added —
	// re-reporting pre-loaded entries upstream would double-count.
	Derived *patch.Set
}

// EvidenceSink receives a session's evidence after the run. Commit
// failures are soft: the session records them in Result.SinkErrors and
// keeps going, so one unreachable sink cannot void a run's work.
type EvidenceSink interface {
	// SinkName identifies the sink in events and error messages.
	SinkName() string
	// Commit persists or transmits the evidence.
	Commit(ctx context.Context, ev *Evidence) error
}

// PatchSource is optionally implemented by sinks that can also supply
// patches before the run (the fleet distribution path: stay current
// with the fleet, then contribute evidence back). Fetch failures are
// soft, mirroring Commit.
type PatchSource interface {
	FetchPatches(ctx context.Context) (*patch.Set, error)
}

// StreamingSink is optionally implemented by sinks that can absorb
// evidence *mid-run*. Cumulative sessions configured with
// WithFlushInterval or WithFlushEvery call FlushEvidence periodically
// while runs are still executing, so a long-running session contributes
// to its sinks (a live fleet, a history file) long before it exits.
//
// FlushEvidence is called with the session's evidence accumulator
// quiesced: no run is folding into ev.History concurrently, so
// implementations may read it freely and use its upload-watermark pair
// (UploadDelta / MarkUploaded) to cut and acknowledge deltas — that is
// how cluster.Sink uploads incrementally, and why a mid-run flush can
// never double-count against the post-run Commit (Commit sees only what
// no flush acknowledged). Flush failures are soft, mirroring Commit: the
// error lands in Result.SinkErrors and the unflushed evidence rides the
// next flush or the final Commit.
//
// The history's upload watermark is a single cursor: sinks that advance
// it share it, so configure at most one watermark-advancing streaming
// sink (cluster.Sink) per session. Sinks that only read the history
// (engine.HistoryFile) compose freely.
type StreamingSink interface {
	EvidenceSink
	FlushEvidence(ctx context.Context, ev *Evidence) error
}

// SinkError attributes a soft sink failure to the sink and operation
// that produced it, so callers can react per sink (e.g. a CLI treating
// a failed local patch file as fatal but an unreachable fleet as a
// warning).
type SinkError struct {
	Sink string // the sink's SinkName()
	Op   string // "fetch" or "commit"
	Err  error
}

func (e *SinkError) Error() string {
	return fmt.Sprintf("engine: %s %s: %v", e.Op, e.Sink, e.Err)
}

func (e *SinkError) Unwrap() error { return e.Err }

// HistoryFile returns a sink that writes the session's cumulative
// history to path — the -save-history deployment, as a sink. Sessions
// without a history (other modes) commit nothing.
//
// The sink is streaming: under WithFlushInterval / WithFlushEvery it
// rewrites the file at every flush, so a crash mid-session loses at most
// one flush interval of evidence. Writes are atomic (atomicfile.Write):
// the file on disk is always a complete, decodable history.
func HistoryFile(path string) EvidenceSink {
	return historyFile(path)
}

type historyFile string

func (h historyFile) SinkName() string { return "history file " + string(h) }

func (h historyFile) Commit(_ context.Context, ev *Evidence) error {
	if ev.History == nil {
		return nil
	}
	return h.write(ev)
}

// FlushEvidence implements StreamingSink: persist the current history
// mid-run. The watermark is untouched — this sink only reads.
func (h historyFile) FlushEvidence(_ context.Context, ev *Evidence) error {
	if ev.History == nil {
		return nil
	}
	return h.write(ev)
}

func (h historyFile) write(ev *Evidence) error {
	if err := atomicfile.Write(string(h), 0o600, ev.History.Encode); err != nil {
		return fmt.Errorf("engine: save history: %w", err)
	}
	return nil
}

// LoadHistoryFile reads a history written by HistoryFile — the
// -resume-history input.
func LoadHistoryFile(path string) (*cumulative.History, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("engine: load history: %w", err)
	}
	defer f.Close()
	hist, err := cumulative.DecodeHistory(f)
	if err != nil {
		return nil, fmt.Errorf("engine: load history %s: %w", path, err)
	}
	return hist, nil
}

// PatchFile returns a sink that writes the session's full working patch
// set to path in the binary .xtp format — the -patches flag, as a sink.
// Writes are atomic (atomicfile.Write): a failed or interrupted write
// leaves the previous file in place.
func PatchFile(path string) EvidenceSink {
	return patchFile(path)
}

type patchFile string

func (p patchFile) SinkName() string { return "patch file " + string(p) }

func (p patchFile) Commit(_ context.Context, ev *Evidence) error {
	if err := atomicfile.Write(string(p), 0o644, ev.Result.Patches.Encode); err != nil {
		return fmt.Errorf("engine: save patches: %w", err)
	}
	return nil
}

// LoadPatchFile reads a patch set written by PatchFile.
func LoadPatchFile(path string) (*patch.Set, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("engine: load patches: %w", err)
	}
	defer f.Close()
	p, err := patch.Decode(f)
	if err != nil {
		return nil, fmt.Errorf("engine: load patches %s: %w", path, err)
	}
	return p, nil
}
