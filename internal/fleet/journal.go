package fleet

import (
	"sync"

	"exterminator/internal/cumulative"
	"exterminator/internal/site"
)

// journal is the bounded evidence journal behind GET /v1/deltas: every
// absorbed observation batch is appended with a monotonic sequence
// number, so a coordinator can poll "what arrived after seq S" and
// receive just that. Rebalance evictions are journaled too — as removal
// entries, so a poller's mirror tracks evidence that *left* this
// partition, not only evidence that arrived. Pollers whose cursor
// predates the retained window (or comes from another server
// incarnation) get a full resync instead.
type journal struct {
	mu      sync.Mutex
	max     int
	base    uint64 // entries[0] carries seq base+1
	seq     uint64
	entries []journalEntry
}

// journalEntry is one journal step: an absorbed batch (snap — the
// snapshot its frame decoded to) or an eviction (evict — the key set a
// rebalance drained from this partition). reqID is the batch's
// X-Request-ID correlation field; it rides the delta reply so the
// coordinator's log can be joined with this partition's, upload by
// upload.
type journalEntry struct {
	snap  *cumulative.Snapshot
	evict []site.ID
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
	return j.push(journalEntry{snap: snap, reqID: reqID})
}

// appendEvict records a rebalance drain of the given keys.
func (j *journal) appendEvict(keys []site.ID) uint64 {
	return j.push(journalEntry{evict: keys})
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

// since returns the entries recorded after sequence number from, plus
// the current sequence. ok is false when from lies outside the retained
// window (too old, or from a previous incarnation ahead of seq) — the
// caller must answer with a full resync.
func (j *journal) since(from uint64) (entries []journalEntry, seq uint64, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if from > j.seq || from < j.base {
		return nil, j.seq, false
	}
	return append([]journalEntry(nil), j.entries[from-j.base:]...), j.seq, true
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

// concatBatches is the delta for a run of journaled batches: their run
// counters add up, and their site, group and hint lists follow one
// another in journal order, so a key appears once per batch that carried
// it. Groups keep their observation slices, shared read-only with the
// journal. Nothing is merged or sorted: a History absorbing the result
// holds what absorbing each batch would, and the Bayes factor does not
// depend on observation order.
func concatBatches(cfg cumulative.Config, entries []journalEntry) *cumulative.Snapshot {
	out := &cumulative.Snapshot{
		C:             cfg.C,
		P:             cfg.P,
		Sites:         concatLists(entries, func(s *cumulative.Snapshot) []site.ID { return s.Sites }),
		Overflow:      concatLists(entries, func(s *cumulative.Snapshot) []cumulative.SiteObservations { return s.Overflow }),
		Dangling:      concatLists(entries, func(s *cumulative.Snapshot) []cumulative.PairObservations { return s.Dangling }),
		PadHints:      concatLists(entries, func(s *cumulative.Snapshot) []cumulative.PadHint { return s.PadHints }),
		DeferralHints: concatLists(entries, func(s *cumulative.Snapshot) []cumulative.DeferralHint { return s.DeferralHints }),
	}
	for _, e := range entries {
		out.Runs += e.snap.Runs
		out.FailedRuns += e.snap.FailedRuns
		out.CorruptRuns += e.snap.CorruptRuns
	}
	return out
}

// concatLists concatenates one list of every entry's snapshot into a
// slice of exactly the combined length (nil when it is zero).
func concatLists[T any](entries []journalEntry, list func(*cumulative.Snapshot) []T) []T {
	n := 0
	for _, e := range entries {
		n += len(list(e.snap))
	}
	if n == 0 {
		return nil
	}
	out := make([]T, 0, n)
	for _, e := range entries {
		out = append(out, list(e.snap)...)
	}
	return out
}
