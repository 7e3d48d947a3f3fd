package codec

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"

	"exterminator/internal/cumulative"
	"exterminator/internal/patch"
	"exterminator/internal/site"
)

// Batch is what a POST /v1/observations frame (FrameBatch) carries:
// one installation's accumulated run summaries, in the canonical
// snapshot form. Client is an opaque installation identifier used only
// for statistics. The same frame answers POST /v1/evict: BatchID is the
// drain's idempotency token, RingVersion the partition's required
// version, and Snapshot the drained evidence.
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

// DecodeBatch decodes a FrameBatch frame, the body of POST
// /v1/observations, into one whole snapshot: one exact-size slice per
// column and one backing observation array per section. The codec knows
// only byte layouts: the store's striping rule lives in
// fleet.Store.AbsorbSnapshot, and the ring rule in cluster.SplitSnapshot.
// An observation X that is not a finite number in [0, 1] fails the
// decode.
func DecodeBatch(data []byte) (*Batch, error) {
	payload, err := expectFrame(data, FrameBatch)
	if err != nil {
		return nil, err
	}
	r := &reader{b: payload}
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
// request that does not ask for a frame. A patch file (exterminate
// -patches, patchmerge -o) is one FramePatches frame at version 0 and
// epoch 0 in ToWire order; the JSON document is only the answer a
// person gets with curl, which patchmerge reads but never writes.
// Entries are encoded in the order given; ToWire produces the canonical
// sorted order.
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
	// fleet client does this transparently). Zero in patch files.
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

// DeltaOp is one step of an ordered evidence delta, one journal entry:
// either a batch's snapshot as it was absorbed, or a key-set eviction (a
// rebalance drain: the keys' evidence moved to another partition and
// must leave the poller's mirror of this one).
type DeltaOp struct {
	Evict    []site.ID
	Snapshot *cumulative.Snapshot
}

// Delta is what a GET /v1/deltas frame (FrameDelta) carries: the
// evidence a partition absorbed after journal sequence number `since`,
// one op per journal entry in journal order, or a resync. It is the
// partition→coordinator half of the cluster protocol (internal/cluster):
// coordinators poll each partition with the last Seq and Epoch they
// applied and absorb only what is new.
//
// Payload layout:
//
//	uvarint epoch | uvarint seq
//	u8 flags (must be 0)
//	reqIDs: uvarint n | n × str
//	ops:    uvarint n | n × op
//	  op: u8 kind (0: snapshot payload follows; 1: eviction —
//	      uvarint n | n × svarint site delta; 2: reset, first op only —
//	      nothing follows)
type Delta struct {
	// Epoch identifies the server incarnation that issued Seq. Sequence
	// numbers are only ordered within one epoch; a poller holding a Seq
	// from another epoch receives a Full resync.
	Epoch uint64
	// Seq is the journal position the delta runs up to; poll with it
	// next time.
	Seq uint64
	// Full marks a resync, written as the leading reset op: the poller
	// must *replace* (not augment) whatever it previously mirrored from
	// this server with what Ops carries, the server's entire evidence
	// store.
	Full bool
	// Ops is the ordered delta: additions and evictions must be applied
	// in sequence (an eviction removes a key's entire evidence from the
	// mirror at that point in the stream). Each addition is one absorbed
	// batch, so a key appears once per batch that carried it.
	Ops []DeltaOp
	// ReqIDs are the X-Request-ID correlation fields of the uploads this
	// delta covers (bounded; oldest first). The coordinator logs them
	// when it applies the delta, so one upload is grep-able from the
	// client through the partition to the coordinator.
	ReqIDs []string
}

const (
	deltaOpSnapshot byte = 0
	deltaOpEvict    byte = 1
	deltaOpReset    byte = 2
)

// EncodeDelta appends d as a complete FrameDelta frame; the returned
// bytes alias buf.
func EncodeDelta(buf *Buffer, d *Delta) []byte {
	start := buf.beginFrame(FrameDelta)
	buf.uvarint(d.Epoch)
	buf.uvarint(d.Seq)
	buf.u8(0)
	buf.uvarint(uint64(len(d.ReqIDs)))
	for _, id := range d.ReqIDs {
		buf.str(id)
	}
	n := len(d.Ops)
	if d.Full {
		n++
	}
	buf.uvarint(uint64(n))
	if d.Full {
		buf.u8(deltaOpReset)
	}
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
	return buf.endFrame(start)
}

// DecodeDelta decodes a FrameDelta frame. Like DecodeBatch it rejects
// any observation X that is not a finite number in [0, 1]: the frame
// comes from another process, and the coordinator folds it into its
// mirrors as it stands.
func DecodeDelta(data []byte) (*Delta, error) {
	payload, err := expectFrame(data, FrameDelta)
	if err != nil {
		return nil, err
	}
	r := &reader{b: payload}
	d := &Delta{}
	d.Epoch = r.uvarint()
	d.Seq = r.uvarint()
	if flags := r.u8(); flags != 0 {
		r.fail("unknown delta flags %#x", flags)
	}
	d.ReqIDs = readStrings(r, "request id")
	if n := r.count(1, "delta op"); n > 0 {
		d.Ops = make([]DeltaOp, 0, n)
		for i := 0; i < n && r.err == nil; i++ {
			var op DeltaOp
			switch kind := r.u8(); kind {
			case deltaOpSnapshot:
				op.Snapshot = readSnapshot(r)
			case deltaOpEvict:
				if ne := r.count(1, "evicted key"); ne > 0 {
					op.Evict = make([]site.ID, ne)
					prev := int64(0)
					for j := range op.Evict {
						op.Evict[j] = r.siteID(&prev)
					}
				}
			case deltaOpReset:
				if i > 0 {
					r.fail("delta reset op at position %d, not first", i)
				}
				d.Full = true
				continue
			default:
				r.fail("unknown delta op kind %d", kind)
			}
			d.Ops = append(d.Ops, op)
		}
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
