package fleet

import (
	"sync"

	"exterminator/internal/cumulative"
	"exterminator/internal/fleet/codec"
	"exterminator/internal/site"
)

// journal is the bounded evidence journal behind GET /v1/deltas: every
// absorbed observation batch is appended with a monotonic sequence
// number, so a coordinator can poll "what arrived after seq S" and
// receive just that, one delta op per entry. Rebalance evictions are
// journaled too — as removal ops, so a poller's mirror tracks evidence
// that *left* this partition, not only evidence that arrived. Pollers
// whose cursor predates the retained window (or comes from another
// server incarnation) get a full resync instead.
type journal struct {
	mu      sync.Mutex
	max     int
	base    uint64 // entries[0] carries seq base+1
	seq     uint64
	entries []journalEntry
}

// journalEntry is one journal step and the delta op that answers it: an
// absorbed batch (the snapshot its frame decoded to) or an eviction (the
// key set a rebalance drained from this partition). reqID is the batch's
// X-Request-ID correlation field; it rides the delta reply so the
// coordinator's log can be joined with this partition's, upload by
// upload.
type journalEntry struct {
	op    codec.DeltaOp
	reqID string
}

// defaultJournalLen is the retained batch window. Batches are a few KB
// each (§3.4), so the default costs a few MB and covers minutes of
// coordinator downtime at high ingest rates. Single-node deployments
// that nothing ever delta-polls can disable retention entirely
// (ServerOptions.JournalLen < 0): sequence numbers still advance, and
// any poll is answered with a full resync.
const defaultJournalLen = 1024

func newJournal(max int) *journal {
	if max == 0 {
		max = defaultJournalLen
	}
	if max < 0 {
		max = -1 // retention disabled: append trims immediately
	}
	return &journal{max: max}
}

// appendBatch records one absorbed batch's snapshot, tagged with its
// request's correlation ID, and returns its sequence number. The
// snapshot must not be mutated afterwards (the journal keeps the
// reference).
func (j *journal) appendBatch(snap *cumulative.Snapshot, reqID string) uint64 {
	return j.push(journalEntry{op: codec.DeltaOp{Snapshot: snap}, reqID: reqID})
}

// appendEvict records a rebalance drain of the given keys.
func (j *journal) appendEvict(keys []site.ID) uint64 {
	return j.push(journalEntry{op: codec.DeltaOp{Evict: keys}})
}

func (j *journal) push(e journalEntry) uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	if j.max < 0 {
		// Retention disabled: keep no references, only the sequence.
		j.base = j.seq
		return j.seq
	}
	j.entries = append(j.entries, e)
	if len(j.entries) > j.max {
		drop := len(j.entries) - j.max/2
		j.entries = append([]journalEntry(nil), j.entries[drop:]...)
		j.base += uint64(drop)
	}
	return j.seq
}

// since fills d with the window after sequence number from: one op per
// entry in journal order, sharing each batch's journaled snapshot, the
// entries' correlation IDs (at most maxDeltaReqIDs, oldest first) and
// the current sequence. It reports false, leaving d alone, when from
// lies outside the retained window (too old, or from a previous
// incarnation ahead of seq) — the caller must answer with a full
// resync.
func (j *journal) since(from uint64, d *codec.Delta) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if from > j.seq || from < j.base {
		return false
	}
	window := j.entries[from-j.base:]
	d.Seq = j.seq
	d.Ops = make([]codec.DeltaOp, len(window))
	d.ReqIDs = make([]string, 0, min(len(window), maxDeltaReqIDs))
	for i, e := range window {
		d.Ops[i] = e.op
		if e.reqID != "" && len(d.ReqIDs) < maxDeltaReqIDs {
			d.ReqIDs = append(d.ReqIDs, e.reqID)
		}
	}
	return true
}

// length returns how many entries the journal currently retains (the
// delta-poll window depth gauge).
func (j *journal) length() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.entries)
}

// seqNow returns the current sequence number.
func (j *journal) seqNow() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// invalidate declares every cursor at or below the current sequence
// stale: the store now holds evidence that never went through the
// journal (a snapshot restore), so a delta reconstructed from journal
// entries alone would silently miss it. Advancing base past seq forces
// the next poll from any such cursor onto the full-resync path.
func (j *journal) invalidate() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	j.base = j.seq
	j.entries = j.entries[:0]
}
