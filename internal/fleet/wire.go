// Package fleet turns Exterminator's cumulative mode (paper §5) into a
// networked subsystem: an HTTP aggregation server that pools per-site
// (X, Y) observations from any number of independent installations, reruns
// the Bayesian hypothesis test as evidence arrives, and distributes the
// derived runtime patches back to the fleet with cheap delta polling —
// the "automatic distribution" deployment the paper's §6.3/§6.4 sketch.
//
// Protocol (all JSON over HTTP):
//
//	POST /v1/observations   ObservationBatch (a cumulative.Snapshot + client id)
//	POST /v1/reports        report.Report (human-readable bug reports)
//	GET  /v1/reports        recently received reports
//	GET  /v1/patches?since=V WirePatchSet with entries added after version V
//	GET  /v1/deltas?since=S  SnapshotDelta with evidence absorbed after journal seq S
//	POST /v1/evict          EvictRequest: drain a key set (cluster rebalancing)
//	POST /v1/ring           RingUpdate: raise the required membership version
//	GET  /v1/status         aggregate statistics
//	GET  /healthz           liveness
//
// Write endpoints optionally require a shared bearer token and are rate
// limited per remote host (ServerOptions.Token / RatePerSec); GET
// /v1/deltas is the partition→coordinator feed the cluster tier
// (internal/cluster) builds on.
//
// Ingest is exactly-once for stamped uploads: batches carry a
// content-addressed identity (codec.BatchID over the client id, the
// history's lineage, the upload-watermark position and the snapshot),
// and the server keeps a bounded, snapshot-persisted window of recently
// absorbed IDs — a retry after a lost ack is acknowledged as a
// duplicate without being re-absorbed. Unstamped batches from legacy clients stay
// at-least-once. Sink streams evidence both mid-run (as an
// engine.StreamingSink under WithFlushInterval/WithFlushEvery) and at
// session end, retrying unacknowledged batches verbatim so the
// guarantee holds end to end.
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
	"sort"

	"exterminator/internal/cumulative"
	"exterminator/internal/patch"
	"exterminator/internal/site"
)

// ObservationBatch is the POST /v1/observations request body: one
// installation's accumulated run summaries, in the canonical snapshot
// form. Client is an opaque installation identifier used only for
// statistics.
type ObservationBatch struct {
	Client   string               `json:"client,omitempty" v2:"1"`
	Snapshot *cumulative.Snapshot `json:"snapshot" v2:"2"`
	// BatchID is the batch's content-addressed identity
	// (codec.BatchID): a digest of the client id, the uploading
	// history's lineage, the upload watermark position the delta was cut
	// at, and the snapshot. Servers keep a bounded window of recently absorbed IDs
	// and acknowledge a duplicate without re-absorbing it, which makes
	// ingest exactly-once under retried uploads (lost acks). Empty means
	// "no identity": the batch is absorbed unconditionally (legacy
	// at-least-once clients).
	BatchID string `json:"batchId,omitempty" v2:"3"`
	// RingVersion is the cluster membership version the uploader split
	// this batch under (cluster.Ring.Version). A partition whose
	// required ring version is newer rejects the batch with 409 and
	// IngestReply.StaleRing, so a writer that missed a rebalance
	// re-splits under the new topology instead of stranding evidence on
	// a former owner. Zero means "unversioned": the batch is accepted
	// regardless (single-node deployments and legacy clients).
	RingVersion uint64 `json:"ringVersion,omitempty" v2:"4"`
}

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

// PadEntry is one pad-table entry on the wire.
type PadEntry struct {
	Site site.ID `json:"site" v2:"1"`
	Pad  uint32  `json:"pad" v2:"2"`
}

// DeferralEntry is one deferral-table entry on the wire.
type DeferralEntry struct {
	Alloc    site.ID `json:"alloc" v2:"1"`
	Free     site.ID `json:"free" v2:"2"`
	Deferral uint64  `json:"deferral" v2:"3"`
}

// WirePatchSet is a versioned patch.Set in the fleet wire encoding: the
// GET /v1/patches response body, and also a standalone file format
// (cmd/patchmerge reads and writes it alongside the binary .xtp format).
type WirePatchSet struct {
	Version uint64 `json:"version" v2:"1"`
	// Epoch identifies the server incarnation that issued Version.
	// Versions are only ordered within one epoch: after a restart the
	// server rederives its patch log from the (possibly stale) snapshot
	// and restarts version numbering, so a client holding a version from
	// another epoch must resync from 0 instead of delta-polling (the
	// Client does this transparently). Zero in standalone files.
	Epoch     uint64          `json:"epoch,omitempty" v2:"2"`
	Pads      []PadEntry      `json:"pads,omitempty" v2:"3"`
	FrontPads []PadEntry      `json:"frontPads,omitempty" v2:"4"`
	Deferrals []DeferralEntry `json:"deferrals,omitempty" v2:"5"`
}

// ToWire converts a patch set to its wire form, sorted for deterministic
// encoding.
func ToWire(ps *patch.Set, version uint64) *WirePatchSet {
	w := &WirePatchSet{Version: version}
	for s, pad := range ps.Pads {
		w.Pads = append(w.Pads, PadEntry{Site: s, Pad: pad})
	}
	for s, pad := range ps.FrontPads {
		w.FrontPads = append(w.FrontPads, PadEntry{Site: s, Pad: pad})
	}
	for p, d := range ps.Deferrals {
		w.Deferrals = append(w.Deferrals, DeferralEntry{Alloc: p.Alloc, Free: p.Free, Deferral: d})
	}
	sort.Slice(w.Pads, func(i, j int) bool { return w.Pads[i].Site < w.Pads[j].Site })
	sort.Slice(w.FrontPads, func(i, j int) bool { return w.FrontPads[i].Site < w.FrontPads[j].Site })
	sort.Slice(w.Deferrals, func(i, j int) bool {
		if w.Deferrals[i].Alloc != w.Deferrals[j].Alloc {
			return w.Deferrals[i].Alloc < w.Deferrals[j].Alloc
		}
		return w.Deferrals[i].Free < w.Deferrals[j].Free
	})
	return w
}

// Set converts the wire form back into a patch set.
func (w *WirePatchSet) Set() *patch.Set {
	ps := patch.New()
	for _, e := range w.Pads {
		ps.AddPad(e.Site, e.Pad)
	}
	for _, e := range w.FrontPads {
		ps.AddFrontPad(e.Site, e.Pad)
	}
	for _, e := range w.Deferrals {
		ps.AddDeferral(site.Pair{Alloc: e.Alloc, Free: e.Free}, e.Deferral)
	}
	return ps
}

// EncodePatchSet writes a patch set in the JSON wire encoding.
func EncodePatchSet(w io.Writer, ps *patch.Set, version uint64) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ToWire(ps, version))
}

// DecodePatchSet reads a patch set in the JSON wire encoding. It rejects
// trailing garbage so a truncated or concatenated file cannot silently
// decode into a partial set.
func DecodePatchSet(r io.Reader) (*patch.Set, uint64, error) {
	w, err := decodeWire(r)
	if err != nil {
		return nil, 0, err
	}
	return w.Set(), w.Version, nil
}

// decodeWire strictly decodes one WirePatchSet document.
func decodeWire(r io.Reader) (*WirePatchSet, error) {
	dec := json.NewDecoder(r)
	var w WirePatchSet
	if err := dec.Decode(&w); err != nil {
		return nil, fmt.Errorf("fleet: decode patch set: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("fleet: decode patch set: trailing data after JSON document")
	}
	return &w, nil
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
	// Epoch is the incarnation stamp this server puts in WirePatchSet
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
	// rebalance announces one; see ObservationBatch.RingVersion).
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

// SnapshotDelta is the GET /v1/deltas response body: the evidence
// absorbed after journal sequence number `since`, merged into one
// canonical snapshot. It is the partition→coordinator half of the
// cluster protocol (internal/cluster): coordinators poll each partition
// with the last Seq they applied and absorb only what is new.
type SnapshotDelta struct {
	// Epoch identifies the server incarnation that issued Seq. Sequence
	// numbers are only ordered within one epoch; a poller holding a Seq
	// from another epoch receives a Full resync.
	Epoch uint64 `json:"epoch" v2:"1"`
	// Seq is the journal position the delta runs up to; poll with it
	// next time.
	Seq uint64 `json:"seq" v2:"2"`
	// Full marks a resync: Snapshot is the server's entire evidence
	// store, not a delta, and must *replace* (not augment) whatever the
	// poller previously mirrored from this server.
	Full bool `json:"full,omitempty" v2:"3"`
	// Snapshot is the merged evidence (nil when nothing changed). It is
	// only used when the window holds no evictions; otherwise Ops carries
	// the ordered sequence instead.
	Snapshot *cumulative.Snapshot `json:"snapshot,omitempty" v2:"4"`
	// Ops is the ordered delta when the window contains rebalance
	// evictions: additions and evictions must be applied in sequence
	// (an eviction removes a key's entire evidence from the mirror at
	// that point in the stream). Consecutive additions are pre-merged.
	// Mutually exclusive with Snapshot.
	Ops []DeltaOp `json:"ops,omitempty" v2:"5"`
	// ReqIDs are the X-Request-ID correlation fields of the uploads this
	// delta covers (bounded; oldest first). The coordinator logs them
	// when it applies the delta, so one upload is grep-able from the
	// client through the partition to the coordinator.
	ReqIDs []string `json:"reqIds,omitempty" v2:"6"`
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

// DeltaOp is one step of an ordered evidence delta: either an absorbed
// snapshot or a key-set eviction (a rebalance drain — the keys' evidence
// moved to another partition and must leave the poller's mirror of this
// one).
type DeltaOp struct {
	Evict    []site.ID            `json:"evict,omitempty" v2:"1"`
	Snapshot *cumulative.Snapshot `json:"snapshot,omitempty" v2:"2"`
}

// EvictRequest is the POST /v1/evict body: atomically remove and return
// the canonical evidence for a key set (a rebalance drain). Token is the
// caller's idempotency handle: the server caches the extraction result
// under it, and re-posting the same token returns the cached snapshot —
// which is what lets a coordinator that crashed between drain and
// backfill re-drain without losing the already-extracted evidence.
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

// EvictReply is the POST /v1/evict response.
type EvictReply struct {
	OK bool `json:"ok"`
	// Cached reports that Token was seen before and Evicted is the
	// original extraction's result (Keys was ignored).
	Cached bool `json:"cached,omitempty"`
	// Evicted is the removed evidence in canonical snapshot form.
	Evicted *cumulative.Snapshot `json:"evicted"`
	// RingVersion echoes the partition's required membership version.
	RingVersion uint64 `json:"ringVersion,omitempty"`
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
