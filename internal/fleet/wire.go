// Package fleet turns Exterminator's cumulative mode (paper §5) into a
// networked subsystem: an HTTP aggregation server that pools per-site
// (X, Y) observations from any number of independent installations, reruns
// the Bayesian hypothesis test as evidence arrives, and distributes the
// derived runtime patches back to the fleet with cheap delta polling —
// the "automatic distribution" deployment the paper's §6.3/§6.4 sketch.
//
// Protocol (HTTP; evidence — uploads, delta polls and drains — travels
// only as binary v2 frames, the rest is JSON; the frame messages are
// declared in internal/fleet/codec):
//
//	POST /v1/observations   codec.Batch frame (a cumulative.Snapshot + client id + batch ID)
//	POST /v1/reports        report.Report (human-readable bug reports)
//	GET  /v1/reports        recently received reports
//	GET  /v1/patches?since=V codec.PatchSet with entries added after version V (a frame when asked for)
//	GET  /v1/deltas?since=S  codec.Delta frame with evidence absorbed after journal seq S
//	POST /v1/evict          EvictRequest: drain a key set (cluster rebalancing); answers a codec.Batch frame
//	POST /v1/ring           RingUpdate: raise the required membership version
//	GET  /v1/status         aggregate statistics
//	GET  /healthz           liveness
//
// Write endpoints optionally require a shared bearer token and are rate
// limited per remote host (ServerOptions.Token / RatePerSec); GET
// /v1/deltas is the partition→coordinator feed the cluster tier
// (internal/cluster) builds on.
//
// Ingest is exactly-once: every batch carries a content-addressed
// identity (codec.BatchID over the client id, the history's lineage, the
// upload-watermark position and the snapshot), and the server keeps a
// bounded, snapshot-persisted window of recently absorbed IDs — a retry
// after a lost ack is acknowledged as a duplicate without being
// re-absorbed. A batch without an ID is rejected. The uploader,
// cluster.Sink (for one fleetd as for a partitioned cluster), streams
// evidence both mid-run (as an engine.StreamingSink under
// WithFlushInterval/WithFlushEvery) and at session end, retrying
// unacknowledged batches verbatim so the guarantee holds end to end.
//
// The server shards its evidence store by call site across mutex striped
// partitions, so concurrent ingest from many clients scales without a
// global lock; patch distribution is versioned, so clients poll with the
// last version they saw and usually get an empty delta back.
//
// The normative wire specification lives in docs/PROTOCOL.md; the
// operator's runbook in docs/OPERATIONS.md.
package fleet

import (
	"encoding/json"
	"fmt"
	"io"

	"exterminator/internal/cumulative"
	"exterminator/internal/fleet/codec"
	"exterminator/internal/patch"
	"exterminator/internal/site"
)

// RequestIDHeader is the correlation header every fleet tier propagates:
// the upload client stamps each POST with a fresh ID (or the caller's),
// the partition logs and journals it, and the coordinator logs it again
// when the batch's delta arrives — one upload's journey is grep-able
// end to end across all three logs.
const RequestIDHeader = "X-Request-ID"

// maxDeltaReqIDs bounds the correlation IDs carried on one delta reply.
const maxDeltaReqIDs = 1024

// IngestReply is the POST /v1/observations response body.
type IngestReply struct {
	OK bool `json:"ok"`
	// RequestID echoes the upload's X-Request-ID correlation field (the
	// server mints one when the request carried none), so a client can
	// quote the exact handle the server logged under.
	RequestID string `json:"requestId,omitempty"`
	// Duplicate reports that the batch's ID was already in the server's
	// dedup window: the evidence was absorbed by an earlier delivery and
	// was NOT absorbed again. Clients advance their upload watermark on
	// a duplicate ack exactly as on a first ack.
	Duplicate bool `json:"duplicate,omitempty"`
	// StaleRing reports that the batch was rejected (HTTP 409, OK false)
	// because it was split under an older cluster membership than this
	// partition requires. The evidence was NOT absorbed; the client must
	// refresh membership (coordinator GET /v1/membership) and re-split.
	// The dedup window is consulted first, so a retry of a batch absorbed
	// *before* the rebalance still acks as a duplicate, never stale.
	StaleRing bool `json:"staleRing,omitempty"`
	// RingVersion is the partition's required membership version
	// (non-zero once a rebalance has announced one), echoed on every
	// reply so writers can detect they are behind.
	RingVersion uint64 `json:"ringVersion,omitempty"`
	// Version is the server's current patch-set version after the ingest
	// (and any correction pass it triggered), so uploaders can decide to
	// poll immediately.
	Version uint64 `json:"version"`
	// Sites is the fleet-wide number of distinct allocation sites (N in
	// the §5.1 prior).
	Sites int `json:"sites"`
	// Runs is the fleet-wide run count.
	Runs int64 `json:"runs"`
}

// DecodePatchSet reads a patch set in the JSON wire encoding: the
// document GET /v1/patches answers a request that does not ask for a
// frame, as curl saves it (patchmerge reads such a download). It rejects
// trailing garbage so a truncated or concatenated document cannot
// silently decode into a partial set.
func DecodePatchSet(r io.Reader) (*patch.Set, uint64, error) {
	dec := json.NewDecoder(r)
	var w codec.PatchSet
	if err := dec.Decode(&w); err != nil {
		return nil, 0, fmt.Errorf("fleet: decode patch set: %w", err)
	}
	if dec.More() {
		return nil, 0, fmt.Errorf("fleet: decode patch set: trailing data after JSON document")
	}
	return w.Set(), w.Version, nil
}

// LeaseReply is the GET /v1/lease response body: the serving
// coordinator's incarnation epoch and role. Epochs are the failover
// ordering: a promoted standby takes an epoch strictly above anything
// the old primary ever stamped into a patch response, so clients can
// reject a zombie primary (lower epoch than the highest they have seen)
// without any out-of-band signal. A warm standby answers with
// primary=false; its probe loop watches the primary's lease and
// promotes itself when the primary stops answering.
type LeaseReply struct {
	// Epoch is the incarnation stamp this server puts in PatchSet
	// responses (monotonically increasing across failovers).
	Epoch uint64 `json:"epoch"`
	// Holder names the lease holder (operator-chosen, diagnostic only).
	Holder string `json:"holder"`
	// Primary reports whether this server currently serves the
	// patch-log read path (a standby answers false and 503s patch and
	// triage reads until promoted).
	Primary bool `json:"primary"`
	// PatchVersion is the holder's current patch-log version.
	PatchVersion uint64 `json:"patchVersion"`
}

// StatusReply is the GET /v1/status response body.
type StatusReply struct {
	// Build is the serving binary's link-time identity ("version
	// (commit)", stamped via -ldflags; see internal/version), so an
	// operator can tell which binary a partition runs.
	Build       string `json:"build,omitempty"`
	Version     uint64 `json:"version"`
	Sites       int    `json:"sites"`
	Runs        int64  `json:"runs"`
	FailedRuns  int64  `json:"failedRuns"`
	CorruptRuns int64  `json:"corruptRuns"`
	Batches     int64  `json:"batches"`
	Clients     int    `json:"clients"`
	Reports     int64  `json:"reports"`
	PatchLen    int    `json:"patchLen"`
	UptimeSec   int64  `json:"uptimeSec"`
	// Corrections counts completed correction passes.
	Corrections int64 `json:"corrections"`
	// RateLimited counts uploads rejected with 429 — visible rate-limit
	// pressure.
	RateLimited int64 `json:"rateLimited"`
	// DirtyKeys is the evidence-key backlog the next correction pass will
	// rescore (0 means the patch log fully reflects the evidence).
	DirtyKeys int `json:"dirtyKeys"`
	// Deduped counts uploads acknowledged as duplicates without being
	// absorbed (exactly-once ingest catching retried batches).
	Deduped int64 `json:"deduped,omitempty"`
	// Seq is the evidence journal's current sequence number (the cursor
	// coordinators poll GET /v1/deltas with).
	Seq uint64 `json:"seq,omitempty"`
	// RingVersion is the required cluster membership version (0 until a
	// rebalance announces one; see codec.Batch.RingVersion).
	RingVersion uint64 `json:"ringVersion,omitempty"`
	// Evictions counts rebalance drains served via POST /v1/evict.
	Evictions int64 `json:"evictions,omitempty"`
	// Shards breaks the evidence store down per stripe, so operators can
	// see rebalance skew and per-shard recompute health at a glance.
	Shards []ShardStatus `json:"shards,omitempty"`
}

// ShardStatus is one evidence-store stripe's counters in StatusReply.
type ShardStatus struct {
	Sites        int `json:"sites"`
	OverflowKeys int `json:"overflowKeys"`
	DanglingKeys int `json:"danglingKeys"`
	DirtyKeys    int `json:"dirtyKeys"`
}

// SnapshotObservations counts the individual overflow and dangling
// observations a snapshot carries — the unit the ingest
// observation-counter metrics are denominated in.
func SnapshotObservations(s *cumulative.Snapshot) int {
	if s == nil {
		return 0
	}
	n := 0
	for _, so := range s.Overflow {
		n += len(so.Obs)
	}
	for _, po := range s.Dangling {
		n += len(po.Obs)
	}
	return n
}

// EvictRequest is the POST /v1/evict body: atomically remove and return
// the canonical evidence for a key set (a rebalance drain). The answer is
// one codec.Batch frame whose BatchID is Token and whose Snapshot is the
// drained evidence. Token is the caller's idempotency handle: the server
// caches the extraction result under it, and re-posting the same token
// returns the cached snapshot — which is what lets a coordinator that
// crashed between drain and backfill re-drain without losing the
// already-extracted evidence.
type EvictRequest struct {
	Token string    `json:"token"`
	Keys  []site.ID `json:"keys"`
	// Counters additionally drains the store's run counters into the
	// returned snapshot (they are not keyed, so key eviction alone never
	// moves them). Set when the node is leaving the cluster entirely —
	// its counters must follow its evidence to the survivors, or the
	// fleet-wide run totals would shrink.
	Counters bool `json:"counters,omitempty"`
}

// RingUpdate is the POST /v1/ring body: announce the cluster membership
// version this partition must require on versioned uploads. The server
// only ever moves the requirement forward.
type RingUpdate struct {
	Version uint64 `json:"version"`
}

// RingReply is the POST /v1/ring response, echoing the (possibly higher)
// version now in force.
type RingReply struct {
	OK      bool   `json:"ok"`
	Version uint64 `json:"version"`
}

// MembershipReply is the coordinator's GET /v1/membership response: the
// current cluster topology, which writers adopt via
// cluster.Ring.SetMembership after a stale-ring rejection (or on their
// regular patch-poll path).
type MembershipReply struct {
	Version uint64   `json:"version"`
	Nodes   []string `json:"nodes"`
}
