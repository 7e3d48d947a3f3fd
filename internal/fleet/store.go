package fleet

import (
	"sync"
	"sync/atomic"

	"exterminator/internal/cumulative"
	"exterminator/internal/site"
	"exterminator/internal/triage"
)

// Store is the evidence pool a correction pass (Corrector) runs over:
// cumulative-mode histories sharded by call site across mutex-striped
// partitions. An ingest absorbs its snapshot key by key, each under its
// own shard's lock (AbsorbSnapshot), so concurrent ingests contend only
// on the shards they share. The striping rule lives here alone: the
// codec decodes a batch whole. The cluster coordinator keeps its merged
// evidence in a one-stripe Store.
//
// Overflow evidence stripes by allocation site; dangling evidence, pad
// hints and deferral hints stripe by the (allocation-side) site of their
// key, so every key deterministically lives in exactly one shard and
// Combined can union the shards without deduplication.
type Store struct {
	cfg    cumulative.Config
	shards []storeShard

	runs        atomic.Int64
	failedRuns  atomic.Int64
	corruptRuns atomic.Int64
	batches     atomic.Int64

	// identifyWorkers is the correction pool width: shards scored
	// concurrently per Identify pass. 0 and 1 are serial (0 is the zero
	// value; NewServer sizes the pool from ServerOptions.CorrectWorkers,
	// elastically by default).
	identifyWorkers atomic.Int64

	clientMu sync.Mutex
	clients  map[string]bool
}

type storeShard struct {
	mu   sync.Mutex
	hist *cumulative.History
}

// DefaultShards is the default stripe count. Call-site hashes are well
// distributed (DJB2), so modest striping already removes almost all
// contention.
const DefaultShards = 16

// NewStore returns an empty store with n shards (n <= 0 means
// DefaultShards).
func NewStore(n int, cfg cumulative.Config) *Store {
	if n <= 0 {
		n = DefaultShards
	}
	st := &Store{
		cfg:     cfg,
		shards:  make([]storeShard, n),
		clients: make(map[string]bool),
	}
	for i := range st.shards {
		st.shards[i].hist = cumulative.NewHistory(cfg)
	}
	return st
}

// shardIndex maps a site ID to its shard. Fibonacci mixing spreads
// consecutive synthetic site IDs (tests use 0x100, 0x101, ...) as well as
// real DJB2 hashes.
func (st *Store) shardIndex(id site.ID) int {
	return int((uint32(id) * 2654435761) % uint32(len(st.shards)))
}

// NumShards returns the stripe count.
func (st *Store) NumShards() int { return len(st.shards) }

// AbsorbSnapshot folds one snapshot into the store: run counters into
// the global totals, and every key into its own stripe under that
// stripe's lock, one key at a time, so absorbs touching different
// stripes never wait on each other and no per-stripe copy of the
// snapshot is built. A one-stripe store (the coordinator's merged
// evidence) absorbs the whole snapshot under one hold instead. The
// coordinator folds a delta window in one call per batch, so an Identify
// pass sees each batch, its sites with its observations, whole or not at
// all (see Identify). Stripe histories carry no run counters.
func (st *Store) AbsorbSnapshot(s *cumulative.Snapshot) {
	if s == nil {
		return
	}
	st.runs.Add(int64(s.Runs))
	st.failedRuns.Add(int64(s.FailedRuns))
	st.corruptRuns.Add(int64(s.CorruptRuns))
	st.batches.Add(1)
	if len(st.shards) == 1 {
		keyed := *s
		keyed.Runs, keyed.FailedRuns, keyed.CorruptRuns = 0, 0, 0
		st.absorbInto(0, &keyed)
		return
	}
	for i, id := range s.Sites {
		st.absorbInto(st.shardIndex(id), &cumulative.Snapshot{Sites: s.Sites[i : i+1]})
	}
	for i, so := range s.Overflow {
		st.absorbInto(st.shardIndex(so.Site), &cumulative.Snapshot{Overflow: s.Overflow[i : i+1]})
	}
	for i, po := range s.Dangling {
		st.absorbInto(st.shardIndex(po.Alloc), &cumulative.Snapshot{Dangling: s.Dangling[i : i+1]})
	}
	for i, h := range s.PadHints {
		st.absorbInto(st.shardIndex(h.Site), &cumulative.Snapshot{PadHints: s.PadHints[i : i+1]})
	}
	for i, h := range s.DeferralHints {
		st.absorbInto(st.shardIndex(h.Alloc), &cumulative.Snapshot{DeferralHints: s.DeferralHints[i : i+1]})
	}
}

// absorbInto folds s into stripe i under the stripe's lock.
func (st *Store) absorbInto(i int, s *cumulative.Snapshot) {
	sh := &st.shards[i]
	sh.mu.Lock()
	sh.hist.Absorb(s)
	sh.mu.Unlock()
}

// Extract atomically removes and returns the canonical evidence for a
// key set — the store-level half of a rebalance drain (Server.Evict
// holds the delta lock, making the extraction exclusive against ingest).
// Each key lives in exactly one shard, so the per-shard extractions
// union without overlap; run counters are not keyed and stay put.
func (st *Store) Extract(keys []site.ID) *cumulative.Snapshot {
	perShard := make(map[int][]site.ID)
	for _, k := range keys {
		i := st.shardIndex(k)
		perShard[i] = append(perShard[i], k)
	}
	tmp := cumulative.NewHistory(st.cfg)
	for i, ks := range perShard {
		sh := &st.shards[i]
		sh.mu.Lock()
		snap := sh.hist.Extract(ks)
		sh.mu.Unlock()
		tmp.Absorb(snap)
	}
	return tmp.Snapshot()
}

// maxClients bounds the distinct-installation statistic: IDs are
// client-chosen, so an unbounded set would let one misbehaving client
// grow server memory without limit.
const maxClients = 1 << 16

// NoteClient records an installation identifier for statistics. Beyond
// maxClients distinct IDs, new ones are counted as existing (the
// statistic saturates rather than the map growing unboundedly).
func (st *Store) NoteClient(id string) {
	if id == "" {
		return
	}
	st.clientMu.Lock()
	if len(st.clients) < maxClients || st.clients[id] {
		st.clients[id] = true
	}
	st.clientMu.Unlock()
}

// Clients returns the number of distinct installation identifiers seen.
func (st *Store) Clients() int {
	st.clientMu.Lock()
	defer st.clientMu.Unlock()
	return len(st.clients)
}

// Combined merges every shard into one history carrying the global run
// counters. Shard snapshots are taken under the shard lock one at a time,
// so Combined never blocks the whole store; the result is canonically
// ordered (see cumulative.Snapshot), making Identify independent of the
// order in which evidence arrived.
func (st *Store) Combined() *cumulative.History {
	hist := cumulative.NewHistory(st.cfg)
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		snap := sh.hist.Snapshot()
		sh.mu.Unlock()
		hist.Absorb(snap)
	}
	hist.Runs = int(st.runs.Load())
	hist.FailedRuns = int(st.failedRuns.Load())
	hist.CorruptRuns = int(st.corruptRuns.Load())
	return hist
}

// Identify runs the Bayesian hypothesis test shard by shard without ever
// materializing a merged history: each shard holds a disjoint slice of
// the logical evidence pool (keys stripe deterministically), so testing
// its keys against the *global* site count N decides exactly as an
// unsharded store would. Passes are incremental — each shard's History
// caches Bayes factors and rescores only keys whose evidence changed
// since the last pass — which is what keeps correction O(dirty sites),
// not O(all sites), as the fleet grows.
//
// Alongside the findings it returns the triage input the pass produced:
// every candidate a shard rescored (cumulative.History.Rescored) and the
// threshold cN−1 they were tested against. Keys stripe deterministically
// across shards, so the concatenation is exactly what an unsharded
// history would have rescored.
func (st *Store) Identify() (*cumulative.Findings, triage.PassInput) {
	if len(st.shards) == 1 {
		// One stripe holds the whole pool (the coordinator's merged
		// evidence): N is read and every key scored under one hold, so a
		// batch folded in mid-pass cannot pair fresh observations with a
		// stale N.
		sh := &st.shards[0]
		sh.mu.Lock()
		defer sh.mu.Unlock()
		in := triage.PassInput{Threshold: sh.hist.Threshold()}
		f := sh.hist.Identify()
		in.Overflows, in.Danglings = sh.hist.Rescored()
		return f, in
	}
	n := st.Sites()
	f := &cumulative.Findings{}
	in := triage.PassInput{Threshold: st.cfg.C*float64(n) - 1}
	results := make([]*cumulative.Findings, len(st.shards))
	over := make([][]cumulative.Candidate, len(st.shards))
	dang := make([][]cumulative.Candidate, len(st.shards))
	workers := min(int(st.identifyWorkers.Load()), len(st.shards))
	if workers <= 1 {
		for i := range st.shards {
			results[i], over[i], dang[i] = st.identifyShard(i, n)
		}
	} else {
		// Elastic pool: score up to `workers` shards concurrently, each
		// goroutine holding exactly one shard lock at a time (no nesting,
		// so no ordering constraint between shard locks). Per-shard
		// results land in indexed slots and merge in shard order, keeping
		// findings deterministic regardless of which shard finishes first.
		next := atomic.Int64{}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(st.shards) {
						return
					}
					results[i], over[i], dang[i] = st.identifyShard(i, n)
				}
			}()
		}
		wg.Wait()
	}
	for i, sf := range results {
		f.Overflows = append(f.Overflows, sf.Overflows...)
		f.Danglings = append(f.Danglings, sf.Danglings...)
		in.Overflows = append(in.Overflows, over[i]...)
		in.Danglings = append(in.Danglings, dang[i]...)
	}
	return f, in
}

// identifyShard runs one shard's identify pass against the global N and
// takes the candidates it rescored, under the shard's lock.
func (st *Store) identifyShard(i, n int) (*cumulative.Findings, []cumulative.Candidate, []cumulative.Candidate) {
	sh := &st.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	f := sh.hist.IdentifyWithSites(n)
	over, dang := sh.hist.Rescored()
	return f, over, dang
}

// Invalidate drops every shard's cached factors, so the next Identify
// rescores every key and hands the triage engine the complete candidate
// set (cumulative.History.Invalidate).
func (st *Store) Invalidate() {
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		sh.hist.Invalidate()
		sh.mu.Unlock()
	}
}

// SetIdentifyWorkers sets the correction pool width: how many shards an
// Identify pass scores concurrently. n <= 1 keeps passes serial; n is
// clamped to the shard count at use. Safe to change at runtime.
func (st *Store) SetIdentifyWorkers(n int) {
	if n < 1 {
		n = 1
	}
	st.identifyWorkers.Store(int64(n))
}

// DirtyKeys returns the number of evidence keys (overflow sites plus
// dangling pairs) changed since the last correction pass — the work the
// next pass will do.
func (st *Store) DirtyKeys() int {
	n := 0
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		n += sh.hist.DirtyKeys()
		sh.mu.Unlock()
	}
	return n
}

// ShardStats returns per-shard evidence counts for operator visibility
// (GET /v1/status): rebalance skew and recompute backlog show up here.
func (st *Store) ShardStats() []ShardStatus {
	out := make([]ShardStatus, len(st.shards))
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		out[i] = ShardStatus{
			Sites:        sh.hist.Sites(),
			OverflowKeys: sh.hist.OverflowKeys(),
			DanglingKeys: sh.hist.DanglingKeys(),
			DirtyKeys:    sh.hist.DirtyKeys(),
		}
		sh.mu.Unlock()
	}
	return out
}

// DrainCounters atomically zeroes the global run counters and returns
// their prior values — the final step of draining a partition that is
// leaving the cluster (counters are not keyed, so Extract cannot move
// them). Callers serialize against ingest (Server.Evict holds the delta
// lock exclusively).
func (st *Store) DrainCounters() (runs, failed, corrupt int64) {
	return st.runs.Swap(0), st.failedRuns.Swap(0), st.corruptRuns.Swap(0)
}

// Runs returns the fleet-wide run count.
func (st *Store) Runs() int64 { return st.runs.Load() }

// FailedRuns returns the fleet-wide failed-run count.
func (st *Store) FailedRuns() int64 { return st.failedRuns.Load() }

// CorruptRuns returns the fleet-wide corrupt-run count.
func (st *Store) CorruptRuns() int64 { return st.corruptRuns.Load() }

// Batches returns the number of observation batches absorbed.
func (st *Store) Batches() int64 { return st.batches.Load() }

// Sites returns the fleet-wide number of distinct allocation sites.
func (st *Store) Sites() int {
	n := 0
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		n += sh.hist.Sites()
		sh.mu.Unlock()
	}
	return n
}
