package analyzers

// LockRank is one entry in the canonical lock hierarchy.
type LockRank struct {
	// Class names the mutex class as "pkg.Type.field" (or "pkg.var"
	// for a package-level mutex), exactly as lockorder derives it.
	Class string

	// Doc is a one-line description of what the lock guards. The
	// "Lock hierarchy" section of docs/ARCHITECTURE.md is generated
	// from these entries and test-pinned against them
	// (TestLockOrderMatchesArchitectureDoc), so the prose and the
	// checker cannot drift apart.
	Doc string
}

// LockOrder is the canonical, machine-readable lock hierarchy for the
// telemetry → fleet → cluster → engine pipeline, outermost first: a
// goroutine may only acquire a lock that appears LATER in this list
// than every lock it already holds. The lockorder analyzer enforces it
// (plus cycle-freedom) on every build; docs/ARCHITECTURE.md renders it
// for humans.
//
// Placement rationale, top to bottom: coordination-scope locks
// (rebalance, poll, sink flush) are taken first and held longest;
// server/delta-scope locks nest inside them; store/journal/patch-log
// leaves nest inside those; the telemetry registry lock is LAST —
// every tier registers metrics while holding its own locks, so the
// registry lock must stay innermost and its holders must never call
// back out (the PR 6 scrape-vs-membership deadlock was exactly such a
// call-out, via gauge funcs evaluated under the registry lock).
var LockOrder = []LockRank{
	// —— coordination scope (outermost) ——
	{Class: "cluster.Coordinator.rebalMu", Doc: "serializes rebalance plans; held across announce/drain/backfill/commit"},
	{Class: "cluster.Coordinator.pollMu", Doc: "serializes poll passes (Run loop vs manual Sync vs frozen rebalance)"},
	{Class: "fleet.Corrector.mu", Doc: "the pass lock: serializes correction passes on fleetd and the coordinator (full-pass refill, identify, patch fold, then the triage pass fed what that identify rescored)"},
	{Class: "engine.Session.histMu", Doc: "session cumulative history: run-loop collector vs mid-run flusher"},
	{Class: "cluster.Coordinator.mu", Doc: "coordinator merge state: partition mirrors, the merged evidence store, membership"},
	{Class: "cluster.Sink.mu", Doc: "cluster sink flush state: pending pieces, upload watermark"},
	{Class: "engine.Session.emitMu", Doc: "orders observer event delivery"},
	// —— client / router scope ——
	{Class: "cluster.Router.mu", Doc: "router membership snapshot and per-partition clients"},
	{Class: "cluster.Ring.mu", Doc: "consistent-hash ring membership and version"},
	{Class: "fleet.Client.mu", Doc: "upload client request-id/backoff/failover state: active base, last epoch, ETag"},
	{Class: "cluster.Replica.mu", Doc: "read-replica triage cache: the re-encoded ranking body and its ETag (the patch mirror is a fleet.PatchLog); poll I/O happens before it is taken, reads copy under it and write after release"},
	// —— partition / server scope ——
	{Class: "fleet.Server.deltaMu", Doc: "partition delta/journal window, ring-version raises, snapshot capture"},
	{Class: "fleet.Reports.mu", Doc: "bug-report ring behind /v1/reports on fleetd and the coordinator"},
	// —— triage scope ——
	{Class: "triage.Engine.mu", Doc: "triage cluster table and rankings; taken by correction passes (under the pass lock) and /v1/triage reads"},
	{Class: "triage.Alerter.mu", Doc: "webhook exactly-once state: fired records and pending queue; armed under Engine.mu, drained lock-free of it — delivery POSTs hold no lock"},
	// —— storage leaves ——
	{Class: "fleet.Store.clientMu", Doc: "distinct installation-ID set behind the clients statistic (NoteClient, Clients)"},
	{Class: "fleet.storeShard.mu", Doc: "one evidence shard of the mutex-striped store"},
	{Class: "fleet.journal.mu", Doc: "evidence journal append/window/cursor state"},
	{Class: "fleet.PatchLog.mu", Doc: "versioned patch log: set, delta window, version and epoch; GET /v1/patches checks its ETag and builds the answer under the read lock, and writes after release"},
	{Class: "fleet.dedupWindow.mu", Doc: "bounded exactly-once ingest dedup window"},
	{Class: "fleet.evictCache.mu", Doc: "eviction idempotency-token cache"},
	{Class: "fleet.rateLimiter.mu", Doc: "per-remote-host token buckets"},
	// —— innermost: telemetry ——
	{Class: "telemetry.Registry.mu", Doc: "metric registry structure; innermost by decree — holders must never call out (gauge funcs are evaluated after release, never under it)"},
}
