package codec

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"

	"exterminator/internal/cumulative"
	"exterminator/internal/patch"
	"exterminator/internal/site"
)

// Batch is what a POST /v1/observations frame (FrameBatch) carries:
// one installation's accumulated run summaries, in the canonical
// snapshot form. Client is an opaque installation identifier used only
// for statistics.
//
// Payload layout:
//
//	u8 flags (bit0: snapshot present)
//	str client | str batchID | uvarint ringVersion
//	[snapshot payload]
type Batch struct {
	Client string
	// BatchID is the batch's content-addressed identity (BatchID): a
	// digest of the client id, the uploading history's lineage, the
	// upload watermark position the delta was cut at, and the snapshot.
	// Servers keep a bounded window of recently absorbed IDs and
	// acknowledge a duplicate without re-absorbing it, which makes
	// ingest exactly-once under retried uploads (lost acks). Required:
	// a batch without one is rejected with 400.
	BatchID string
	// RingVersion is the cluster membership version the uploader split
	// this batch under (cluster.Ring.Version). A partition whose
	// required ring version is newer rejects the batch with 409 and
	// fleet.IngestReply.StaleRing, so a writer that missed a rebalance
	// re-splits under the new topology instead of stranding evidence on
	// a former owner. Zero means "unversioned": the batch is accepted
	// regardless (single-node deployments).
	RingVersion uint64
	Snapshot    *cumulative.Snapshot
}

const batchFlagSnapshot = 1 << 0

// EncodeBatch appends b as a complete FrameBatch frame; the returned
// bytes alias buf.
func EncodeBatch(buf *Buffer, b *Batch) []byte {
	start := buf.beginFrame(FrameBatch)
	flags := byte(0)
	if b.Snapshot != nil {
		flags |= batchFlagSnapshot
	}
	buf.u8(flags)
	buf.str(b.Client)
	buf.str(b.BatchID)
	buf.uvarint(b.RingVersion)
	if b.Snapshot != nil {
		appendSnapshot(buf, b.Snapshot)
	}
	return buf.endFrame(start)
}

// DecodeBatch decodes a FrameBatch frame into one whole snapshot. An
// observation X that is not a finite number in [0, 1] fails the decode.
func DecodeBatch(data []byte) (*Batch, error) {
	payload, err := expectFrame(data, FrameBatch)
	if err != nil {
		return nil, err
	}
	r := &reader{b: payload, probs: true}
	b := &Batch{}
	flags := r.u8()
	b.Client = r.str("client id")
	b.BatchID = r.str("batch id")
	b.RingVersion = r.uvarint()
	if flags&batchFlagSnapshot != 0 {
		b.Snapshot = readSnapshot(r)
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	return b, nil
}

// BatchInfo is the header of a sharded batch decode: everything the
// ingest path needs before touching the store, plus the counters that
// rode the frame (they are assigned to exactly one of the returned
// parts, so absorbing all parts counts each run once).
type BatchInfo struct {
	Client      string
	BatchID     string
	RingVersion uint64
	// HasSnapshot reports whether the frame carried a snapshot at all
	// (Batch.Snapshot != nil).
	HasSnapshot bool
	// Observations is the total overflow + dangling observation count,
	// the unit the ingest metrics are denominated in.
	Observations int
	// Runs is the batch's run-counter increment (metrics; the counters
	// themselves ride the parts).
	Runs int
}

// DecodeBatchSharded decodes a FrameBatch payload directly into
// per-shard sub-snapshots: parts[i] holds exactly the evidence whose
// key shardOf maps to i, sized exactly, with no whole-batch
// intermediate. Shards the batch touches get a snapshot; the rest stay
// nil. The split mirrors fleet.Store: overflow, pad hints and the site
// set shard by site, dangling evidence and deferral hints by their
// allocation side. Run counters ride the first non-nil part (one is
// created if the batch has counters but no evidence), so a store or
// mirror absorbing every part sees each run exactly once. Like
// DecodeBatch it rejects any observation X outside [0, 1].
func DecodeBatchSharded(data []byte, shards int, shardOf func(site.ID) int) (BatchInfo, []*cumulative.Snapshot, error) {
	var info BatchInfo
	if shards <= 0 {
		return info, nil, fmt.Errorf("codec: sharded decode needs a positive shard count")
	}
	payload, err := expectFrame(data, FrameBatch)
	if err != nil {
		return info, nil, err
	}
	r := &reader{b: payload, probs: true}
	flags := r.u8()
	info.Client = r.str("client id")
	info.BatchID = r.str("batch id")
	info.RingVersion = r.uvarint()
	if flags&batchFlagSnapshot == 0 {
		return info, nil, r.finish()
	}
	info.HasSnapshot = true

	parts := make([]*cumulative.Snapshot, shards)
	// Every per-shard snapshot comes out of one backing array: a batch
	// of any size touches most shards of a default store, and a single
	// allocation (pinned for as long as the longest-lived part, i.e. the
	// journal window) beats one per shard.
	snaps := make([]cumulative.Snapshot, shards)
	c := r.f64()
	p := r.f64()
	part := func(i int) *cumulative.Snapshot {
		if parts[i] == nil {
			snaps[i].C, snaps[i].P = c, p
			parts[i] = &snaps[i]
		}
		return parts[i]
	}
	runs := r.nonNeg("run counter")
	failed := r.nonNeg("run counter")
	corrupt := r.nonNeg("run counter")
	info.Runs = runs

	sc := getScratch(shards)
	defer putScratch(sc)

	// Sites: count per shard, then carve exact-size per-part slices out
	// of one backing array (disjoint capacity windows, so the appends
	// below never cross shards).
	if n := r.count(1, "site"); n > 0 {
		ids := sc.ids(n)
		clear(sc.perShard)
		prev := int64(0)
		for i := range ids {
			ids[i] = r.siteID(&prev)
		}
		if r.err == nil {
			for _, id := range ids {
				sc.perShard[shardOf(id)]++
			}
			backing := make([]site.ID, n)
			off := 0
			for i, cnt := range sc.perShard {
				if cnt > 0 {
					part(i).Sites = backing[off : off : off+cnt]
					off += cnt
				}
			}
			for _, id := range ids {
				sh := parts[shardOf(id)]
				sh.Sites = append(sh.Sites, id)
			}
		}
	}

	// Overflow groups → per-shard group slices and observation arrays,
	// each carved from one backing allocation. The group headers and
	// observation columns land in pooled scratch and are copied out.
	if groups, counts, ids, _, obs := readObsGroups(r, false, sc); groups > 0 {
		info.Observations += len(obs)
		clear(sc.perShard)
		clear(sc.perShardObs)
		for i, id := range ids {
			sh := shardOf(id)
			sc.perShard[sh]++
			sc.perShardObs[sh] += counts[i]
		}
		groupBacking := make([]cumulative.SiteObservations, groups)
		gOff := 0
		for i, cnt := range sc.perShard {
			if cnt > 0 {
				part(i).Overflow = groupBacking[gOff : gOff : gOff+cnt]
				gOff += cnt
			}
		}
		backing := sc.obsBacking(shards, sc.perShardObs)
		off := 0
		for i, id := range ids {
			sh := shardOf(id)
			dst := backing.take(sh, counts[i])
			copy(dst, obs[off:off+counts[i]])
			off += counts[i]
			p := parts[sh]
			p.Overflow = append(p.Overflow, cumulative.SiteObservations{Site: id, Obs: dst})
		}
	}

	// Dangling groups shard by allocation side.
	if groups, counts, ids, frees, obs := readObsGroups(r, true, sc); groups > 0 {
		info.Observations += len(obs)
		clear(sc.perShard)
		clear(sc.perShardObs)
		for i, id := range ids {
			sh := shardOf(id)
			sc.perShard[sh]++
			sc.perShardObs[sh] += counts[i]
		}
		groupBacking := make([]cumulative.PairObservations, groups)
		gOff := 0
		for i, cnt := range sc.perShard {
			if cnt > 0 {
				part(i).Dangling = groupBacking[gOff : gOff : gOff+cnt]
				gOff += cnt
			}
		}
		backing := sc.obsBacking(shards, sc.perShardObs)
		off := 0
		for i, id := range ids {
			sh := shardOf(id)
			dst := backing.take(sh, counts[i])
			copy(dst, obs[off:off+counts[i]])
			off += counts[i]
			p := parts[sh]
			p.Dangling = append(p.Dangling, cumulative.PairObservations{Alloc: id, Free: frees[i], Obs: dst})
		}
	}

	if n := r.count(2, "pad hint"); n > 0 && r.err == nil {
		hints := sc.pads(n)
		clear(sc.perShard)
		prev := int64(0)
		for i := range hints {
			hints[i].Site = r.siteID(&prev)
			hints[i].Pad = r.pad()
		}
		if r.err == nil {
			for _, h := range hints {
				sc.perShard[shardOf(h.Site)]++
			}
			backing := make([]cumulative.PadHint, n)
			off := 0
			for i, cnt := range sc.perShard {
				if cnt > 0 {
					part(i).PadHints = backing[off : off : off+cnt]
					off += cnt
				}
			}
			for _, h := range hints {
				sh := parts[shardOf(h.Site)]
				sh.PadHints = append(sh.PadHints, h)
			}
		}
	}
	if n := r.count(3, "deferral hint"); n > 0 && r.err == nil {
		hints := sc.deferrals(n)
		clear(sc.perShard)
		prev := int64(0)
		for i := range hints {
			hints[i].Alloc = r.siteID(&prev)
			hints[i].Free = r.freeSite()
			hints[i].Deferral = r.uvarint()
		}
		if r.err == nil {
			for _, h := range hints {
				sc.perShard[shardOf(h.Alloc)]++
			}
			backing := make([]cumulative.DeferralHint, n)
			off := 0
			for i, cnt := range sc.perShard {
				if cnt > 0 {
					part(i).DeferralHints = backing[off : off : off+cnt]
					off += cnt
				}
			}
			for _, h := range hints {
				sh := parts[shardOf(h.Alloc)]
				sh.DeferralHints = append(sh.DeferralHints, h)
			}
		}
	}
	if err := r.finish(); err != nil {
		return info, nil, err
	}

	// Counters ride exactly one part.
	if runs != 0 || failed != 0 || corrupt != 0 {
		carrier := (*cumulative.Snapshot)(nil)
		for _, p := range parts {
			if p != nil {
				carrier = p
				break
			}
		}
		if carrier == nil {
			carrier = part(0)
		}
		carrier.Runs, carrier.FailedRuns, carrier.CorruptRuns = runs, failed, corrupt
	}
	return info, parts, nil
}

// shardScratch recycles the transient index arrays a sharded decode
// needs, so the steady-state ingest path allocates only its outputs.
type shardScratch struct {
	perShard    []int
	perShardObs []int
	idBuf       []site.ID
	freeBuf     []site.ID
	countBuf    []int
	obsBuf      []cumulative.Observation
	padBuf      []cumulative.PadHint
	defBuf      []cumulative.DeferralHint
	obsOff      []int
}

var scratchPool = sync.Pool{New: func() any { return &shardScratch{} }}

func getScratch(shards int) *shardScratch {
	sc := scratchPool.Get().(*shardScratch)
	if cap(sc.perShard) < shards {
		sc.perShard = make([]int, shards)
		sc.perShardObs = make([]int, shards)
		sc.obsOff = make([]int, shards)
	}
	sc.perShard = sc.perShard[:shards]
	sc.perShardObs = sc.perShardObs[:shards]
	sc.obsOff = sc.obsOff[:shards]
	return sc
}

func putScratch(sc *shardScratch) { scratchPool.Put(sc) }

func (sc *shardScratch) ids(n int) []site.ID {
	if cap(sc.idBuf) < n {
		sc.idBuf = make([]site.ID, n)
	}
	return sc.idBuf[:n]
}

func (sc *shardScratch) frees(n int) []site.ID {
	if cap(sc.freeBuf) < n {
		sc.freeBuf = make([]site.ID, n)
	}
	return sc.freeBuf[:n]
}

func (sc *shardScratch) counts(n int) []int {
	if cap(sc.countBuf) < n {
		sc.countBuf = make([]int, n)
	}
	return sc.countBuf[:n]
}

func (sc *shardScratch) obs(n int) []cumulative.Observation {
	if cap(sc.obsBuf) < n {
		sc.obsBuf = make([]cumulative.Observation, n)
	}
	return sc.obsBuf[:n]
}

func (sc *shardScratch) pads(n int) []cumulative.PadHint {
	if cap(sc.padBuf) < n {
		sc.padBuf = make([]cumulative.PadHint, n)
	}
	return sc.padBuf[:n]
}

func (sc *shardScratch) deferrals(n int) []cumulative.DeferralHint {
	if cap(sc.defBuf) < n {
		sc.defBuf = make([]cumulative.DeferralHint, n)
	}
	return sc.defBuf[:n]
}

// obsBacking carves one observation array per shard out of contiguous
// per-shard regions: take(shard, n) returns the shard's next n slots as
// a full-capacity sub-slice, so group slices within a shard stay
// adjacent but can never grow into a neighbour.
type obsBacking struct {
	buf []cumulative.Observation
	off []int
}

func (sc *shardScratch) obsBacking(shards int, perShardObs []int) obsBacking {
	total := 0
	for i, n := range perShardObs {
		sc.obsOff[i] = total
		total += n
	}
	return obsBacking{buf: make([]cumulative.Observation, total), off: sc.obsOff}
}

func (b obsBacking) take(shard, n int) []cumulative.Observation {
	off := b.off[shard]
	b.off[shard] = off + n
	return b.buf[off : off+n : off+n]
}

// PadEntry is one pad-table entry of a PatchSet.
type PadEntry struct {
	Site site.ID `json:"site"`
	Pad  uint32  `json:"pad"`
}

// DeferralEntry is one deferral-table entry of a PatchSet.
type DeferralEntry struct {
	Alloc    site.ID `json:"alloc"`
	Free     site.ID `json:"free"`
	Deferral uint64  `json:"deferral"`
}

// PatchSet is a versioned patch.Set on the wire: what a FramePatches
// payload carries, and the JSON document GET /v1/patches answers a
// request that does not ask for a frame. The JSON document is also a
// standalone file format (cmd/patchmerge reads and writes it alongside
// the binary .xtp format). Entries are encoded in the order given;
// ToWire produces the canonical sorted order.
//
// Payload layout:
//
//	uvarint version | uvarint epoch
//	pads:      uvarint n | n × (svarint site delta | uvarint pad)
//	frontPads: uvarint n | n × (svarint site delta | uvarint pad)
//	deferrals: uvarint n | n × (svarint alloc delta | uvarint free | uvarint deferral)
type PatchSet struct {
	Version uint64 `json:"version"`
	// Epoch identifies the server incarnation that issued Version.
	// Versions are only ordered within one epoch: after a restart the
	// server rederives its patch log from the (possibly stale) snapshot
	// and restarts version numbering, so a client holding a version from
	// another epoch must resync from 0 instead of delta-polling (the
	// fleet client does this transparently). Zero in standalone files.
	Epoch     uint64          `json:"epoch,omitempty"`
	Pads      []PadEntry      `json:"pads,omitempty"`
	FrontPads []PadEntry      `json:"frontPads,omitempty"`
	Deferrals []DeferralEntry `json:"deferrals,omitempty"`
}

// ToWire converts a patch set to its wire form, sorted for deterministic
// encoding.
func ToWire(ps *patch.Set, version uint64) *PatchSet {
	w := &PatchSet{Version: version}
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
func (w *PatchSet) Set() *patch.Set {
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

// EncodePatches appends ps as a complete FramePatches frame; the
// returned bytes alias buf.
func EncodePatches(buf *Buffer, ps *PatchSet) []byte {
	start := buf.beginFrame(FramePatches)
	buf.uvarint(ps.Version)
	buf.uvarint(ps.Epoch)
	appendPadColumn(buf, ps.Pads)
	appendPadColumn(buf, ps.FrontPads)
	buf.uvarint(uint64(len(ps.Deferrals)))
	prev := int64(0)
	for _, e := range ps.Deferrals {
		buf.svarint(int64(e.Alloc) - prev)
		prev = int64(e.Alloc)
		buf.uvarint(uint64(e.Free))
		buf.uvarint(e.Deferral)
	}
	return buf.endFrame(start)
}

func appendPadColumn(buf *Buffer, entries []PadEntry) {
	buf.uvarint(uint64(len(entries)))
	prev := int64(0)
	for _, e := range entries {
		buf.svarint(int64(e.Site) - prev)
		prev = int64(e.Site)
		buf.uvarint(uint64(e.Pad))
	}
}

// DecodePatches decodes a FramePatches frame.
func DecodePatches(data []byte) (*PatchSet, error) {
	payload, err := expectFrame(data, FramePatches)
	if err != nil {
		return nil, err
	}
	r := &reader{b: payload}
	ps := &PatchSet{}
	ps.Version = r.uvarint()
	ps.Epoch = r.uvarint()
	ps.Pads = readPadColumn(r)
	ps.FrontPads = readPadColumn(r)
	if n := r.count(3, "deferral"); n > 0 {
		ps.Deferrals = make([]DeferralEntry, n)
		prev := int64(0)
		for i := range ps.Deferrals {
			ps.Deferrals[i].Alloc = r.siteID(&prev)
			ps.Deferrals[i].Free = r.freeSite()
			ps.Deferrals[i].Deferral = r.uvarint()
		}
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	return ps, nil
}

func readPadColumn(r *reader) []PadEntry {
	n := r.count(2, "pad entry")
	if n == 0 {
		return nil
	}
	entries := make([]PadEntry, n)
	prev := int64(0)
	for i := range entries {
		entries[i].Site = r.siteID(&prev)
		entries[i].Pad = r.pad()
	}
	return entries
}

// DeltaOp is one step of an ordered evidence delta: either an absorbed
// snapshot or a key-set eviction (a rebalance drain: the keys' evidence
// moved to another partition and must leave the poller's mirror of this
// one).
type DeltaOp struct {
	Evict    []site.ID
	Snapshot *cumulative.Snapshot
}

// Delta is what a GET /v1/deltas frame (FrameDelta) carries: the
// evidence a partition absorbed after journal sequence number `since`,
// merged into one canonical snapshot. It is the partition→coordinator
// half of the cluster protocol (internal/cluster): coordinators poll
// each partition with the last Seq they applied and absorb only what is
// new.
//
// Payload layout:
//
//	uvarint epoch | uvarint seq
//	u8 flags (bit0: full resync, bit1: snapshot present)
//	reqIDs: uvarint n | n × str
//	ops:    uvarint n | n × op
//	  op: u8 kind (0: snapshot payload follows; 1: eviction —
//	      uvarint n | n × svarint site delta)
//	[snapshot payload]
type Delta struct {
	// Epoch identifies the server incarnation that issued Seq. Sequence
	// numbers are only ordered within one epoch; a poller holding a Seq
	// from another epoch receives a Full resync.
	Epoch uint64
	// Seq is the journal position the delta runs up to; poll with it
	// next time.
	Seq uint64
	// Full marks a resync: Snapshot is the server's entire evidence
	// store, not a delta, and must *replace* (not augment) whatever the
	// poller previously mirrored from this server.
	Full bool
	// Snapshot is the merged evidence (nil when nothing changed). It is
	// only used when the window holds no evictions; otherwise Ops carries
	// the ordered sequence instead.
	Snapshot *cumulative.Snapshot
	// Ops is the ordered delta when the window contains rebalance
	// evictions: additions and evictions must be applied in sequence
	// (an eviction removes a key's entire evidence from the mirror at
	// that point in the stream). Consecutive additions are pre-merged.
	// Mutually exclusive with Snapshot.
	Ops []DeltaOp
	// ReqIDs are the X-Request-ID correlation fields of the uploads this
	// delta covers (bounded; oldest first). The coordinator logs them
	// when it applies the delta, so one upload is grep-able from the
	// client through the partition to the coordinator.
	ReqIDs []string
}

const (
	deltaFlagFull     = 1 << 0
	deltaFlagSnapshot = 1 << 1
)

const (
	deltaOpSnapshot byte = 0
	deltaOpEvict    byte = 1
)

// EncodeDelta appends d as a complete FrameDelta frame; the returned
// bytes alias buf.
func EncodeDelta(buf *Buffer, d *Delta) []byte {
	start := buf.beginFrame(FrameDelta)
	buf.uvarint(d.Epoch)
	buf.uvarint(d.Seq)
	flags := byte(0)
	if d.Full {
		flags |= deltaFlagFull
	}
	if d.Snapshot != nil {
		flags |= deltaFlagSnapshot
	}
	buf.u8(flags)
	buf.uvarint(uint64(len(d.ReqIDs)))
	for _, id := range d.ReqIDs {
		buf.str(id)
	}
	buf.uvarint(uint64(len(d.Ops)))
	for _, op := range d.Ops {
		if len(op.Evict) > 0 {
			buf.u8(deltaOpEvict)
			buf.uvarint(uint64(len(op.Evict)))
			prev := int64(0)
			for _, id := range op.Evict {
				buf.svarint(int64(id) - prev)
				prev = int64(id)
			}
			continue
		}
		buf.u8(deltaOpSnapshot)
		appendSnapshotOrEmpty(buf, op.Snapshot)
	}
	if d.Snapshot != nil {
		appendSnapshot(buf, d.Snapshot)
	}
	return buf.endFrame(start)
}

// DecodeDelta decodes a FrameDelta frame.
func DecodeDelta(data []byte) (*Delta, error) {
	payload, err := expectFrame(data, FrameDelta)
	if err != nil {
		return nil, err
	}
	r := &reader{b: payload}
	d := &Delta{}
	d.Epoch = r.uvarint()
	d.Seq = r.uvarint()
	flags := r.u8()
	d.Full = flags&deltaFlagFull != 0
	d.ReqIDs = readStrings(r, "request id")
	if n := r.count(1, "delta op"); n > 0 {
		d.Ops = make([]DeltaOp, n)
		for i := range d.Ops {
			switch kind := r.u8(); kind {
			case deltaOpSnapshot:
				d.Ops[i].Snapshot = readSnapshot(r)
			case deltaOpEvict:
				ne := r.count(1, "evicted key")
				if ne > 0 {
					d.Ops[i].Evict = make([]site.ID, ne)
					prev := int64(0)
					for j := range d.Ops[i].Evict {
						d.Ops[i].Evict[j] = r.siteID(&prev)
					}
				}
			default:
				r.fail("unknown delta op kind %d", kind)
			}
			if r.err != nil {
				return nil, r.err
			}
		}
	}
	if flags&deltaFlagSnapshot != 0 {
		d.Snapshot = readSnapshot(r)
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	return d, nil
}

// BatchID is an upload batch's content-addressed identity: a digest of
// WHO sends it (the client id), WHICH history it comes from (the
// lineage, see cumulative.Snapshot.Lineage), WHERE in that history the
// delta starts (the upload watermark position wmRuns, wmObs — see
// cumulative.History.UploadedCounts) and WHAT it carries (the
// snapshot's codec encoding). A retry of the same batch — the lost-ack
// case — reproduces the ID, so a server's bounded dedup window
// acknowledges it without absorbing twice; a new delta differs in
// content or position and gets a fresh ID. The lineage keeps two fresh
// histories under one client id apart: their first deltas share the
// position (0, 0) and may share content. Every uploader stamps with
// this function, whichever wire codec carries the batch.
//
// The snapshot should be in canonical order (UploadDelta and Snapshot
// always produce one); an unsorted hand-built snapshot still dedups
// exact retries, but two equal batches in different orders get
// different IDs.
func BatchID(client string, lineage uint64, wmRuns, wmObs int, s *cumulative.Snapshot) string {
	buf := GetBuffer()
	defer PutBuffer(buf)
	buf.str(client)
	buf.B = binary.LittleEndian.AppendUint64(buf.B, lineage)
	buf.svarint(int64(wmRuns))
	buf.svarint(int64(wmObs))
	if s != nil {
		appendSnapshot(buf, s)
	}
	sum := sha256.Sum256(buf.B)
	return hex.EncodeToString(sum[:16])
}
