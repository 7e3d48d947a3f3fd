package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"

	"exterminator/internal/cumulative"
	"exterminator/internal/engine"
	"exterminator/internal/fleet"
	"exterminator/internal/patch"
	"exterminator/internal/report"
	"exterminator/internal/telemetry"
)

// Sink is the fleet's engine.EvidenceSink: patches download from the
// coordinator (the merge tier's fleet-wide log), observations upload
// through the ring-partitioned router, and bug reports go to the
// coordinator. A single fleetd is a one-partition ring that also serves
// patches and reports: NewSink(url, id, url). Uploads are watermarked so
// resumed histories never double-count.
type Sink struct {
	coord  *fleet.Client
	router *Router
	logger *slog.Logger

	// Flush instrumentation, registered by SetMetrics (nil without).
	flushPieces   *telemetry.Histogram
	staleResplits *telemetry.Counter

	mu             sync.Mutex
	fetchedEntries int
	fetchedVersion uint64
	lastIngest     *fleet.IngestReply
	// pending holds, per partition, a piece that was sent but never
	// acknowledged. Each is retried verbatim — same content, same batch
	// ID — before any new delta is cut for that partition, so the
	// partition's dedup window recognizes a delivery whose ack was lost
	// and the evidence is absorbed exactly once.
	pending map[string]Piece
}

// NewSink returns a sink for a cluster: coordinatorURL serves patches
// and receives reports; the router spreads observation uploads across
// the partitions.
func NewSink(coordinatorURL, id string, partitions ...string) (*Sink, error) {
	rt, err := NewRouter(id, partitions...)
	if err != nil {
		return nil, err
	}
	return &Sink{
		coord:   fleet.NewClient(coordinatorURL, id),
		router:  rt,
		logger:  slog.New(slog.DiscardHandler),
		pending: make(map[string]Piece),
	}, nil
}

// SetToken attaches a shared ingest token to the router and coordinator
// clients.
func (s *Sink) SetToken(token string) {
	s.coord.SetToken(token)
	s.router.SetToken(token)
}

// SetWireV2 does nothing.
//
// Deprecated: the binary v2 frame is the only wire on uploads and patch
// polls. The benchmark module (bench/) still calls this; the next change
// to the benchmark drops those calls, and then this shim is deleted.
func (s *Sink) SetWireV2(bool) {}

// SetLogger attaches a structured logger to the sink and every client
// under it (coordinator and per-partition); by default all are silent.
func (s *Sink) SetLogger(l *slog.Logger) {
	if l == nil {
		l = slog.New(slog.DiscardHandler)
	}
	s.logger = l.With("component", "cluster-sink")
	s.coord.SetLogger(l)
	s.router.SetLogger(l)
}

// SetMetrics registers the sink's flush instruments into reg and
// propagates the registry to every client under it.
func (s *Sink) SetMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	//extlint:ignore metricconv published name predates the unit-suffix convention; a piece count has no unit, and renaming would break existing dashboards
	s.flushPieces = reg.Histogram("cluster_sink_flush_pieces",
		"Ring-split pieces pushed per evidence flush.", telemetry.SizeBuckets)
	s.staleResplits = reg.Counter("cluster_sink_stale_resplits_total",
		"Flushes re-split after a stale-ring rejection (the cluster rebalanced mid-upload).")
	s.coord.SetMetrics(reg)
	s.router.SetMetrics(reg)
}

// Router exposes the underlying router (membership changes).
func (s *Sink) Router() *Router { return s.router }

// SinkName implements engine.EvidenceSink.
func (s *Sink) SinkName() string { return "cluster" }

// FetchPatches implements engine.PatchSource: download the fleet-wide
// patch set from the coordinator. The same poll refreshes ring
// membership (best-effort), so a session started after a rebalance
// routes by the current topology from its first upload.
func (s *Sink) FetchPatches(ctx context.Context) (*patch.Set, error) {
	ps, version, err := s.coord.PatchesContext(ctx, 0)
	if err != nil {
		return nil, err
	}
	s.refreshMembership(ctx)
	s.mu.Lock()
	s.fetchedEntries, s.fetchedVersion = ps.Len(), version
	s.mu.Unlock()
	return ps, nil
}

// refreshMembership adopts the coordinator's current topology. Failures
// are ignored: the sink keeps routing by its last known ring, and a
// stale split is rejected (never absorbed), so correctness is not at
// stake — only an extra round trip.
func (s *Sink) refreshMembership(ctx context.Context) {
	m, err := s.coord.Membership(ctx)
	if err != nil {
		return
	}
	s.router.Ring().SetMembership(m.Version, m.Nodes)
}

// Commit implements engine.EvidenceSink: route the history's upload
// delta across the partitions and report newly derived patch entries to
// the coordinator. The watermark advances per *delivered piece*, not per
// batch: if one partition is down, the pieces the healthy partitions
// absorbed are marked uploaded immediately, and a later retry re-sends
// only the failed partition's piece — never re-counting evidence a
// partition already holds. Pieces carry content-addressed batch IDs and
// unacknowledged pieces are retried verbatim, so ingest is exactly-once
// against partitions keeping a dedup window even when acks are lost.
func (s *Sink) Commit(ctx context.Context, ev *engine.Evidence) error {
	var errs []error
	if ev.History != nil && ev.History.Runs > 0 {
		if err := s.stream(ctx, ev.History); err != nil {
			errs = append(errs, err)
		}
	}
	if ev.Derived != nil && ev.Derived.Len() > 0 {
		if err := s.coord.PushReportContext(ctx, report.FromPatches(ev.Derived, nil)); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// FlushEvidence implements engine.StreamingSink: route the history's
// unacknowledged delta across the partitions mid-run, so a long
// cumulative session feeds the cluster continuously instead of in one
// post-run batch.
func (s *Sink) FlushEvidence(ctx context.Context, ev *engine.Evidence) error {
	if ev.History == nil {
		return nil
	}
	return s.stream(ctx, ev.History)
}

// stream is the shared routed-upload path: (1) retry every pending piece
// verbatim, advancing the watermark for each one acknowledged; (2) cut
// the next watermark delta, split it along the ring with per-piece batch
// IDs, and push each piece, skipping partitions that still hold an
// unacknowledged piece (overlapping deltas to one partition would defeat
// the content-addressed retry); (3) advance the watermark per delivered
// piece, parking failures as that partition's pending piece. Pushes
// within each phase run concurrently (one slow partition costs one
// timeout, not one per partition); the watermark is only touched after
// the phase's pushes have all returned, since the caller serializes
// history access.
//
// Stale-ring rejections (the cluster rebalanced under us) are not
// failures to park: the rejected piece was split under a dead topology,
// so it is dropped — its evidence sits beyond the watermark — the
// membership refreshes from the coordinator, and one more pass re-cuts
// and re-routes the delta under the new ring. Pieces still rejected
// after that fail the upload with the *fleet.StaleRingError: the
// coordinator does not serve the membership the partitions require yet
// (a rebalance between announce and commit).
func (s *Sink) stream(ctx context.Context, hist *cumulative.History) error {
	var errs []error

	s.mu.Lock()
	retries := make([]Piece, 0, len(s.pending))
	for _, p := range s.pending {
		retries = append(retries, p)
	}
	s.mu.Unlock()
	delivered, failed, stale, staleErr := s.pushAll(ctx, retries, &errs)
	for _, p := range delivered {
		hist.MarkUploaded(p.Batch.Snapshot)
	}
	s.mu.Lock()
	for _, p := range delivered {
		delete(s.pending, p.Node)
	}
	for _, p := range stale {
		// Split under a dead topology: drop the piece. Its evidence is
		// still beyond the watermark and re-cuts below under the
		// refreshed ring.
		delete(s.pending, p.Node)
	}
	s.mu.Unlock()
	sawStale := len(stale) > 0
	pushed := len(retries)

	for pass := 0; pass < 2; pass++ {
		if sawStale {
			if s.staleResplits != nil {
				s.staleResplits.Inc()
			}
			s.logger.Warn("stale ring rejected pieces; refreshing membership and re-splitting",
				"stalePieces", len(stale))
			s.refreshMembership(ctx)
			sawStale = false
		}
		// Counter movement riding a still-unacknowledged piece must not be
		// re-cut into the new delta: the new delta's counters would land on
		// whichever node owns its lowest key — possibly a *healthy* one —
		// and be absorbed there while the pending piece later delivers the
		// overlapping range a second time. Strip counters from the new cut
		// while any pending piece carries them; they stream once it clears.
		blocked := make(map[string]bool)
		pendingCounters := false
		s.mu.Lock()
		for node, p := range s.pending {
			blocked[node] = true
			sn := p.Batch.Snapshot
			if sn.Runs != 0 || sn.FailedRuns != 0 || sn.CorruptRuns != 0 {
				pendingCounters = true
			}
		}
		s.mu.Unlock()

		delta := hist.UploadDelta()
		if pendingCounters {
			delta.Runs, delta.FailedRuns, delta.CorruptRuns = 0, 0, 0
		}
		if cumulative.DeltaEmpty(delta) {
			break
		}
		wmRuns, wmObs := hist.UploadedCounts()
		split, err := s.router.SplitBatch(wmRuns, wmObs, delta)
		if err != nil {
			errs = append(errs, err)
			break
		}
		var fresh []Piece
		for _, p := range split {
			if blocked[p.Node] {
				// This partition's unacknowledged piece is a subset of the
				// piece just cut for it. Nothing is marked uploaded, so the
				// evidence stays beyond the watermark and is re-cut into a
				// future delta once the retry clears.
				continue
			}
			fresh = append(fresh, p)
		}
		pushed += len(fresh)
		delivered, failed, stale, staleErr = s.pushAll(ctx, fresh, &errs)
		for _, p := range delivered {
			hist.MarkUploaded(p.Batch.Snapshot)
		}
		s.mu.Lock()
		for _, p := range failed {
			s.pending[p.Node] = p
		}
		s.mu.Unlock()
		if len(stale) == 0 {
			break
		}
		sawStale = true
	}
	if staleErr != nil {
		errs = append(errs, fmt.Errorf("cluster: upload still stale after a membership refresh: %w", staleErr))
	}
	if s.flushPieces != nil && pushed > 0 {
		s.flushPieces.Observe(float64(pushed))
	}
	return errors.Join(errs...)
}

// pushAll uploads pieces to their partitions concurrently, partitioning
// them into delivered, failed (retryable verbatim) and stale (rejected
// for an outdated ring version — must be re-split, never retried
// verbatim); push errors are appended to errs, except stale rejections,
// which come back joined in staleErr for the caller to recover from by
// refreshing membership.
func (s *Sink) pushAll(ctx context.Context, pieces []Piece, errs *[]error) (delivered, failed, stale []Piece, staleErr error) {
	if len(pieces) == 0 {
		return nil, nil, nil, nil
	}
	var (
		wg        sync.WaitGroup
		rmu       sync.Mutex
		staleErrs []error
	)
	for _, p := range pieces {
		wg.Add(1)
		go func(p Piece) {
			defer wg.Done()
			reply, err := s.router.PushPiece(ctx, p)
			if err == nil {
				s.mu.Lock()
				s.lastIngest = reply
				s.mu.Unlock()
			}
			rmu.Lock()
			defer rmu.Unlock()
			var sre *fleet.StaleRingError
			switch {
			case err == nil:
				delivered = append(delivered, p)
			case errors.As(err, &sre):
				stale = append(stale, p)
				staleErrs = append(staleErrs, err)
			default:
				*errs = append(*errs, err)
				failed = append(failed, p)
			}
		}(p)
	}
	wg.Wait()
	return delivered, failed, stale, errors.Join(staleErrs...)
}

// Fetched reports what the pre-run download merged.
func (s *Sink) Fetched() (entries int, version uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fetchedEntries, s.fetchedVersion
}

// LastIngest returns the reply to the most recently acknowledged piece
// (nil before the first).
func (s *Sink) LastIngest() *fleet.IngestReply {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastIngest
}
