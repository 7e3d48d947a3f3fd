package fleet

import (
	"context"
	"errors"
	"sync"

	"exterminator/internal/cumulative"
	"exterminator/internal/engine"
	"exterminator/internal/fleet/codec"
	"exterminator/internal/patch"
	"exterminator/internal/report"
)

// Sink adapts a fleet Client to the engine's evidence-sink contract, so
// a session wired with engine.WithSink(fleet.NewSink(client)) stays
// current with the fleet before the run (patch download, via the
// engine.PatchSource side of the interface) and contributes back after
// it (observation upload for cumulative sessions, bug reports for newly
// derived patches). This replaces the hand-rolled -fleet plumbing that
// used to live in cmd/exterminate.
type Sink struct {
	c *Client

	mu             sync.Mutex
	fetchedEntries int
	fetchedVersion uint64
	lastIngest     *IngestReply
	// pending is a batch that was sent but never acknowledged (network
	// error or lost ack). It is retried verbatim — same content, same
	// batch ID — before any new delta is cut, so the server's dedup
	// window can recognize it if the first delivery actually landed.
	// Until it is acked the watermark stays put, which is what keeps the
	// evidence from leaking into (and double-counting via) a newer delta.
	pending *ObservationBatch
	flushes int64
}

// NewSink wraps a client.
func NewSink(c *Client) *Sink { return &Sink{c: c} }

// SinkName implements engine.EvidenceSink.
func (s *Sink) SinkName() string { return "fleet" }

// FetchPatches implements engine.PatchSource: download the fleet's
// current patch set so the session runs under everything the fleet has
// already learned. Merging is always safe (patches compose by maxima).
func (s *Sink) FetchPatches(ctx context.Context) (*patch.Set, error) {
	ps, version, err := s.c.PatchesContext(ctx, 0)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.fetchedEntries, s.fetchedVersion = ps.Len(), version
	s.mu.Unlock()
	return ps, nil
}

// Commit implements engine.EvidenceSink: upload the session's
// observation history (cumulative mode) and report any newly derived
// patch entries. Only the session's own derivations are reported —
// re-reporting pre-loaded or fleet-fetched entries would spam the fleet
// with duplicates on every run.
//
// Uploads are watermarked: only the history delta not yet acknowledged
// by a fleet is sent, and the watermark advances only on success. A
// session resumed with -resume-history therefore cannot double-count
// evidence an earlier session already uploaded — the watermark rides
// along in the persisted history file.
//
// Uploads are also exactly-once: every batch is stamped with a
// content-addressed ID (codec.BatchID, which folds in the history's
// lineage so two fresh histories under one client id never share an
// ID) and an unacknowledged batch
// is retried verbatim before a new delta is cut, so a server keeping a
// dedup window absorbs each batch at most once even when acks are lost.
func (s *Sink) Commit(ctx context.Context, ev *engine.Evidence) error {
	var errs []error
	if ev.History != nil && ev.History.Runs > 0 {
		if err := s.stream(ctx, ev.History); err != nil {
			errs = append(errs, err)
		}
	}
	if ev.Derived != nil && ev.Derived.Len() > 0 {
		if err := s.c.PushReportContext(ctx, report.FromPatches(ev.Derived, nil)); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// FlushEvidence implements engine.StreamingSink: upload the history's
// unacknowledged delta mid-run. The engine calls it with the session's
// history serialized (no run is folding in concurrently), so the
// UploadDelta/MarkUploaded pair here is safe; evidence recorded between
// flushes simply rides the next one.
func (s *Sink) FlushEvidence(ctx context.Context, ev *engine.Evidence) error {
	if ev.History == nil {
		return nil
	}
	s.mu.Lock()
	s.flushes++
	s.mu.Unlock()
	return s.stream(ctx, ev.History)
}

// stream is the shared upload path for Commit and FlushEvidence:
// (1) retry the pending unacknowledged batch, if any — verbatim, so its
// batch ID matches what the server may already have absorbed; (2) cut
// the next watermark delta, stamp it, and push it; (3) advance the
// watermark only for what was acknowledged. On failure the new batch
// becomes the pending one, and no further delta is cut until it is
// through — overlapping deltas would make the ID useless.
func (s *Sink) stream(ctx context.Context, hist *cumulative.History) error {
	s.mu.Lock()
	pending := s.pending
	s.mu.Unlock()
	if pending != nil {
		reply, err := s.c.PushBatchContext(ctx, pending)
		if err != nil {
			return err
		}
		hist.MarkUploaded(pending.Snapshot)
		s.mu.Lock()
		s.pending, s.lastIngest = nil, reply
		s.mu.Unlock()
	}

	delta := hist.UploadDelta()
	if cumulative.DeltaEmpty(delta) {
		return nil
	}
	wmRuns, wmObs := hist.UploadedCounts()
	batch := &ObservationBatch{
		Client:   s.c.ID(),
		Snapshot: delta,
		BatchID:  codec.BatchID(s.c.ID(), delta.Lineage, wmRuns, wmObs, delta),
	}
	reply, err := s.c.PushBatchContext(ctx, batch)
	if err != nil {
		s.mu.Lock()
		s.pending = batch
		s.mu.Unlock()
		return err
	}
	hist.MarkUploaded(delta)
	s.mu.Lock()
	s.lastIngest = reply
	s.mu.Unlock()
	return nil
}

// Flushes reports how many mid-run evidence flushes the engine asked
// this sink for (diagnostics).
func (s *Sink) Flushes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushes
}

// Fetched reports what the pre-run download merged: entry count and the
// fleet patch version it corresponded to (zero values before any fetch).
func (s *Sink) Fetched() (entries int, version uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fetchedEntries, s.fetchedVersion
}

// LastIngest returns the server's reply to the most recent observation
// upload (nil if none succeeded yet).
func (s *Sink) LastIngest() *IngestReply {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastIngest
}
