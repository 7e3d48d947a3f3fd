package fleet

import (
	"sync"

	"exterminator/internal/cumulative"
	"exterminator/internal/fleet/codec"
)

// evictCache makes rebalance drains idempotent: POST /v1/evict removes a
// key set's evidence atomically and *destructively*, so a coordinator
// that crashes after the extraction but before journaling or backfilling
// the result would otherwise lose it forever. The cache retains each
// drain's result keyed by the caller-chosen idempotency token; re-posting
// the token returns the original snapshot ("re-drains at worst"). The
// cache is bounded — tokens are derived from the monotonic membership
// version, so only the most recent rebalances matter — and persisted in
// fleet snapshots so the guarantee survives partition restarts.
type evictCache struct {
	mu    sync.Mutex
	max   int
	order []string // FIFO eviction order
	snaps map[string]*cumulative.Snapshot
}

// defaultEvictCacheLen covers many in-flight or recently crashed
// rebalances; each entry is one drained key set's snapshot.
const defaultEvictCacheLen = 32

func newEvictCache(max int) *evictCache {
	if max <= 0 {
		max = defaultEvictCacheLen
	}
	return &evictCache{max: max, snaps: make(map[string]*cumulative.Snapshot)}
}

// get returns the cached extraction for token, if any.
func (e *evictCache) get(token string) (*cumulative.Snapshot, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	s, ok := e.snaps[token]
	return s, ok
}

// put records an extraction result. The snapshot must not be mutated
// afterwards.
func (e *evictCache) put(token string, s *cumulative.Snapshot) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.snaps[token]; ok {
		return
	}
	e.snaps[token] = s
	e.order = append(e.order, token)
	if len(e.order) > e.max {
		drop := len(e.order) - e.max
		for _, old := range e.order[:drop] {
			delete(e.snaps, old)
		}
		e.order = append([]string(nil), e.order[drop:]...)
	}
}

// entries returns the cached drains oldest-first (snapshot persistence).
func (e *evictCache) entries() []codec.Evicted {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]codec.Evicted, 0, len(e.order))
	for _, tok := range e.order {
		out = append(out, codec.Evicted{Token: tok, Snapshot: e.snaps[tok]})
	}
	return out
}

// restore refills the cache from persisted entries, oldest first.
func (e *evictCache) restore(entries []codec.Evicted) {
	for _, en := range entries {
		e.put(en.Token, en.Snapshot)
	}
}
