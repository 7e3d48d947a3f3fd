package fleet

import "sync"

// dedupWindow is the server side of exactly-once ingest: a bounded FIFO
// set of recently absorbed batch IDs (codec.BatchID). An upload
// whose ID is already present is acknowledged without being re-absorbed
// — the lost-ack retry case. The window is bounded because IDs are
// client-supplied: retaining them forever would let uploads grow server
// memory without limit. A retry that arrives after its ID aged out of
// the window is absorbed again (the at-least-once fallback), so the
// window must be sized to cover the longest plausible retry horizon —
// see ServerOptions.DedupWindow.
type dedupWindow struct {
	mu    sync.Mutex
	max   int
	seen  map[string]bool
	order []string // FIFO eviction order; len(order) == len(seen)
}

// defaultDedupLen covers thousands of in-flight clients each retrying a
// handful of batches; at ~32 bytes per ID the default costs well under a
// megabyte.
const defaultDedupLen = 4096

// newDedupWindow returns a window retaining up to max IDs (0 = default,
// negative = dedup disabled — returns nil, and admit on a nil window is
// never called).
func newDedupWindow(max int) *dedupWindow {
	if max < 0 {
		return nil
	}
	if max == 0 {
		max = defaultDedupLen
	}
	return &dedupWindow{max: max, seen: make(map[string]bool)}
}

// admit records id and reports whether it was new. A false return means
// the batch was already absorbed: acknowledge it as a duplicate and do
// not absorb again. The check and the insert are atomic, so two
// concurrent deliveries of the same batch admit exactly one.
//
// Eviction drops the older half when the window overflows (the evidence
// journal's strategy): amortized O(1) per ingest, instead of shifting
// the whole slice on every insert once full. The retained set therefore
// fluctuates between max/2 and max of the most recent IDs — size the
// window so max/2 still covers the retry horizon.
func (d *dedupWindow) admit(id string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.seen[id] {
		return false
	}
	d.seen[id] = true
	d.order = append(d.order, id)
	if len(d.order) > d.max {
		drop := len(d.order) - d.max/2
		for _, old := range d.order[:drop] {
			delete(d.seen, old)
		}
		d.order = append([]string(nil), d.order[drop:]...)
	}
	return true
}

// has reports whether id is in the window without admitting it. The
// ingest path consults it before the stale-ring check: a retried batch
// that was absorbed before a rebalance must ack as a duplicate, never be
// rejected as stale (rejection would make the client re-split and
// re-send evidence the drain already moved — a double count).
func (d *dedupWindow) has(id string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.seen[id]
}

// ids returns the retained IDs in FIFO order (snapshot persistence).
func (d *dedupWindow) ids() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.order...)
}

// restore refills the window from persisted IDs, oldest first, dropping
// the oldest overflow if the persisted set exceeds the configured bound.
func (d *dedupWindow) restore(ids []string) {
	for _, id := range ids {
		d.admit(id)
	}
}

// size returns the number of retained IDs.
func (d *dedupWindow) size() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.order)
}
