package codec

import "exterminator/internal/cumulative"

// State is a daemon's durable state: the one thing fleetd and the
// cluster coordinator write to their -snapshot file (a FrameState
// frame) and restore from on start. Every section is optional; each
// tier fills the sections it owns and leaves the rest empty. The
// evidence sections reuse the snapshot payload, so evidence restores
// exactly: no observation is lost or counted twice.
//
// Payload layout:
//
//	u8 flags (bit0: evidence present)
//	uvarint ringVersion
//	nodes:   uvarint n | n × str
//	mirrors: uvarint n | n × (str base | uvarint seq | uvarint epoch | snapshot payload)
//	dedup:   uvarint n | n × str
//	evicts:  uvarint n | n × (str token | snapshot payload)
//	alerts:  uvarint n | n bytes
//	[evidence snapshot payload]
type State struct {
	// RingVersion is fleetd's required ring version, or the
	// coordinator's membership version.
	RingVersion uint64
	// Nodes is the coordinator's membership, sorted.
	Nodes []string
	// Mirrors are the coordinator's per-partition mirrors and the
	// journal cursors they are valid at.
	Mirrors []Mirror
	// Evidence is fleetd's evidence store.
	Evidence *cumulative.Snapshot
	// Dedup is fleetd's exactly-once window of absorbed batch IDs,
	// oldest first.
	Dedup []string
	// Evicts is fleetd's rebalance evict cache, oldest first.
	Evicts []Evicted
	// Alerts is the triage alerter's opaque exactly-once state
	// (triage.Engine.AlertState), on either tier.
	Alerts []byte
}

// Mirror is one partition's state in a coordinator's State.
type Mirror struct {
	Base       string
	Seq, Epoch uint64
	Snapshot   *cumulative.Snapshot
}

// Evicted is one cached rebalance drain: the evidence POST /v1/evict
// removed under an idempotency token.
type Evicted struct {
	Token    string
	Snapshot *cumulative.Snapshot
}

const stateFlagEvidence = 1 << 0

// minSnapshotBytes is the smallest snapshot payload: c and p, three
// run counters and the seven empty section counts. Sections of
// snapshots are counted against it, so a forged count cannot size an
// allocation beyond what the remaining bytes can hold.
const minSnapshotBytes = 8 + 8 + 3 + 7

// EncodeState appends s as a complete FrameState frame; the returned
// bytes alias buf. A nil mirror or evict snapshot encodes as an empty
// one.
func EncodeState(buf *Buffer, s *State) []byte {
	start := buf.beginFrame(FrameState)
	flags := byte(0)
	if s.Evidence != nil {
		flags |= stateFlagEvidence
	}
	buf.u8(flags)
	buf.uvarint(s.RingVersion)
	buf.uvarint(uint64(len(s.Nodes)))
	for _, n := range s.Nodes {
		buf.str(n)
	}
	buf.uvarint(uint64(len(s.Mirrors)))
	for _, m := range s.Mirrors {
		buf.str(m.Base)
		buf.uvarint(m.Seq)
		buf.uvarint(m.Epoch)
		appendSnapshotOrEmpty(buf, m.Snapshot)
	}
	buf.uvarint(uint64(len(s.Dedup)))
	for _, id := range s.Dedup {
		buf.str(id)
	}
	buf.uvarint(uint64(len(s.Evicts)))
	for _, e := range s.Evicts {
		buf.str(e.Token)
		appendSnapshotOrEmpty(buf, e.Snapshot)
	}
	buf.uvarint(uint64(len(s.Alerts)))
	buf.B = append(buf.B, s.Alerts...)
	if s.Evidence != nil {
		appendSnapshot(buf, s.Evidence)
	}
	return buf.endFrame(start)
}

// appendSnapshotOrEmpty is appendSnapshot with nil encoded as an empty
// snapshot, for sections whose elements always carry one.
func appendSnapshotOrEmpty(buf *Buffer, s *cumulative.Snapshot) {
	if s == nil {
		s = &cumulative.Snapshot{}
	}
	appendSnapshot(buf, s)
}

// DecodeState decodes a FrameState frame. Like DecodeBatch it rejects
// any observation X that is not a finite number in [0, 1]: a daemon only
// ever stored evidence that passed that check.
func DecodeState(data []byte) (*State, error) {
	payload, err := expectFrame(data, FrameState)
	if err != nil {
		return nil, err
	}
	r := &reader{b: payload}
	s := &State{}
	flags := r.u8()
	s.RingVersion = r.uvarint()
	s.Nodes = readStrings(r, "node")
	if n := r.count(3+minSnapshotBytes, "mirror"); n > 0 {
		s.Mirrors = make([]Mirror, n)
		for i := range s.Mirrors {
			m := &s.Mirrors[i]
			m.Base = r.str("mirror base")
			m.Seq = r.uvarint()
			m.Epoch = r.uvarint()
			m.Snapshot = readSnapshot(r)
		}
	}
	s.Dedup = readStrings(r, "dedup id")
	if n := r.count(1+minSnapshotBytes, "evict entry"); n > 0 {
		s.Evicts = make([]Evicted, n)
		for i := range s.Evicts {
			s.Evicts[i].Token = r.str("evict token")
			s.Evicts[i].Snapshot = readSnapshot(r)
		}
	}
	if a := r.str("alert state"); a != "" {
		s.Alerts = []byte(a)
	}
	if flags&stateFlagEvidence != 0 {
		s.Evidence = readSnapshot(r)
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	return s, nil
}

// readStrings reads a count-prefixed string column (nil when empty).
func readStrings(r *reader, what string) []string {
	n := r.count(1, what)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.str(what)
	}
	return out
}
