// Command fleetd is the fleet aggregation daemon: it pools cumulative-mode
// observations uploaded by any number of Exterminator installations, reruns
// the Bayesian hypothesis test (paper §5) as evidence arrives, and serves
// the derived runtime patches back to the fleet with versioned delta
// polling — collaborative correction (§6.4) as a network service.
//
//	fleetd -addr :7077 -snapshot /var/lib/exterminator/fleet.snap
//
// State survives restarts through a state file written every
// -snapshot-interval: the evidence store, the exactly-once ingest dedup
// window and the triage alerter's state; on startup the daemon restores
// it and rederives patches before accepting traffic.
// Ingest is exactly-once: every upload is a binary frame stamped with a
// batch ID, and a retried batch whose ack was lost is acknowledged as a
// duplicate, never re-absorbed (-dedup sizes the window). In
// coordinator mode -snapshot persists the partition mirrors and journal
// cursors instead, so a restarted coordinator resumes with cheap deltas
// rather than full resyncs.
//
// Cluster deployment (internal/cluster): run N fleetd instances with
// -partition (evidence store + journal, no local patch derivation —
// a partition's local site count would understate the Bayesian prior's
// N), optionally hardened with -token and -rate, and one more in
// coordinator mode to merge them:
//
//	fleetd -addr :7101 -partition   (× N)
//	fleetd -addr :7077 -coordinator http://p1:7101,http://p2:7101,http://p3:7101
//
// The coordinator mirrors each partition's evidence journal (GET
// /v1/deltas), reruns the hypothesis test incrementally over the merged
// pool, and serves the fleet-wide patch log. Installations upload
// through a cluster.Router and poll patches from the *coordinator* with
// an unmodified fleet client; patches must never be polled from a
// partition (in -partition mode there are none to poll).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"exterminator/internal/cluster"
	"exterminator/internal/cumulative"
	"exterminator/internal/fleet"
	"exterminator/internal/telemetry"
	"exterminator/internal/triage"
	"exterminator/internal/version"
)

// The flags. modeFlags says which of them each mode reads.
var (
	addr         = flag.String("addr", ":7077", "listen address")
	shards       = flag.Int("shards", fleet.DefaultShards, "evidence store stripe count")
	correctEvery = flag.Int("correct-every", 8, "inline correction pass once more than this many batches are pending (-1: background loop only)")
	correctWork  = flag.Int("correct-workers", 0, "store stripes identified in parallel per correction pass (0: min(GOMAXPROCS, -shards), 1: serial)")
	correctInt   = flag.Duration("correct-interval", 2*time.Second, "background correction loop interval")
	snapshot     = flag.String("snapshot", "", "snapshot file: restored on start, written periodically and on shutdown")
	snapshotInt  = flag.Duration("snapshot-interval", 30*time.Second, "how often to write the -snapshot state file")
	priorC       = flag.Float64("c", 4, "Bayesian prior constant c (P(H1) = 1/(cN))")
	fillP        = flag.Float64("p", 0.5, "canary fill probability p the fleet's heaps use")
	token        = flag.String("token", "", "shared ingest token: require Authorization: Bearer <token> on write endpoints")
	rate         = flag.Float64("rate", 0, "per-client observation uploads per second (0: unlimited)")
	burst        = flag.Int("burst", 0, "rate-limit burst (0: 2x rate)")
	journalLen   = flag.Int("journal", 0, "evidence journal window in batches for GET /v1/deltas (0: 1024)")
	dedupLen     = flag.Int("dedup", 0, "exactly-once ingest window: recently absorbed batch IDs retained (0: 4096)")
	partition    = flag.Bool("partition", false, "run as a cluster partition: store and journal evidence but derive no patches (the coordinator runs the fleet-wide hypothesis test)")
	coordinator  = flag.String("coordinator", "", "run as cluster coordinator over these comma-separated partition base URLs instead of an evidence store")
	standby      = flag.Bool("standby", false, "coordinator: start as a warm standby — mirror the partitions but gate the client surface behind 503 until promoted (see docs/OPERATIONS.md, Failover)")
	primary      = flag.String("primary", "", "standby: primary coordinator base URL to lease-probe; consecutive probe failures trigger self-promotion")
	takeoverN    = flag.Int("takeover-after", 0, "standby: consecutive failed lease probes before self-promotion (0: 3)")
	leaseHolder  = flag.String("lease-holder", "", "coordinator: lease-holder name reported in /v1/lease and /v1/status (empty: the listen address)")
	replica      = flag.String("replica", "", "run as a read replica over these comma-separated coordinator base URLs (primary first, standby after); serves GET /v1/patches from a cache refreshed every -poll-interval and forwards GET /v1/triage upstream")
	pollInt      = flag.Duration("poll-interval", 1*time.Second, "coordinator: partition journal poll interval (replica: cache refresh interval)")
	rebalJournal = flag.String("rebalance-journal", "", "coordinator: crash-safe rebalance journal file; an interrupted drain/backfill is re-driven on start (required for safe live resizes)")
	alertURL     = flag.String("alert-url", "", "webhook URL for triage alerts: POST a compound alert when a cluster crosses the Bayes or occurrence trigger (empty: alerting off)")
	alertBayes   = flag.Float64("alert-bayes", 0, "triage alert trigger: pooled log10 Bayes factor a cluster must reach (0: disabled)")
	alertOccurs  = flag.Int("alert-occurrences", 0, "triage alert trigger: total occurrences a cluster must accumulate (0: disabled)")
	alertCool    = flag.Duration("alert-cooldown", 0, "minimum gap between webhook alerts for the same cluster (0: 1h)")
	debugAddr    = flag.String("debug-addr", "", "private listen address for net/http/pprof and /metrics (empty: no debug listener; /metrics is always on the main listener too)")
	logJSON      = flag.Bool("log-json", false, "emit structured logs as JSON lines (default: human-readable text)")
	logDebug     = flag.Bool("log-debug", false, "log at debug level: per-request read-path lines (patches/deltas/status served) with their X-Request-ID")
	showVersion  = flag.Bool("version", false, "print build version and exit")
)

// everyMode lists the flags every mode reads, the three mode selectors
// among them (their combinations are checked in main).
var everyMode = []string{"addr", "token", "partition", "coordinator", "replica",
	"debug-addr", "log-json", "log-debug", "version"}

// modeFlags lists the further flags each mode reads. A flag set on the
// command line that its mode does not read draws a warning (ignoredFlags)
// instead of being dropped in silence.
var modeFlags = map[string][]string{
	"single": {"shards", "correct-every", "correct-workers", "correct-interval", "snapshot", "snapshot-interval",
		"c", "p", "rate", "burst", "journal", "dedup",
		"alert-url", "alert-bayes", "alert-occurrences", "alert-cooldown"},
	"partition": {"shards", "snapshot", "snapshot-interval", "c", "p", "rate", "burst", "journal", "dedup"},
	"coordinator": {"snapshot", "snapshot-interval", "c", "p", "poll-interval", "rebalance-journal",
		"standby", "primary", "takeover-after", "lease-holder",
		"alert-url", "alert-bayes", "alert-occurrences", "alert-cooldown"},
	"replica": {"poll-interval"},
}

// ignoredFlags returns the flags set in fs that mode does not read.
func ignoredFlags(fs *flag.FlagSet, mode string) []string {
	var ignored []string
	fs.Visit(func(f *flag.Flag) {
		if !slices.Contains(everyMode, f.Name) && !slices.Contains(modeFlags[mode], f.Name) {
			ignored = append(ignored, "-"+f.Name)
		}
	})
	return ignored
}

// checkDedup rejects a negative -dedup in the modes that read it; in
// any other mode the flag is only reported as ignored.
func checkDedup(fs *flag.FlagSet, mode string) error {
	if !slices.Contains(modeFlags[mode], "dedup") {
		return nil
	}
	if n, err := strconv.Atoi(fs.Lookup("dedup").Value.String()); err == nil && n < 0 {
		return errors.New("fleetd: -dedup must not be negative: every upload is deduplicated (0: the 4096 default)")
	}
	return nil
}

func main() {
	flag.Parse()

	if *showVersion {
		fmt.Println("fleetd", version.String())
		return
	}
	log.Printf("fleetd %s", version.String())
	mode := "single"
	switch {
	case *replica != "":
		if *partition || *coordinator != "" {
			log.Fatal("fleetd: -replica is exclusive with -partition/-coordinator: a replica is a stateless read cache in front of the merge tier")
		}
		mode = "replica"
	case *coordinator != "":
		if *partition {
			log.Fatal("fleetd: -partition and -coordinator are mutually exclusive: a node is either an evidence store or the merge tier")
		}
		mode = "coordinator"
	case *partition:
		mode = "partition"
	}
	if err := checkDedup(flag.CommandLine, mode); err != nil {
		log.Fatal(err)
	}
	if ignored := ignoredFlags(flag.CommandLine, mode); len(ignored) > 0 {
		log.Printf("fleetd: warning: %s ignored in %s mode", strings.Join(ignored, ", "), mode)
	}

	hopts := &slog.HandlerOptions{}
	if *logDebug {
		hopts.Level = slog.LevelDebug
	}
	var handler slog.Handler
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, hopts)
	} else {
		handler = slog.NewTextHandler(os.Stderr, hopts)
	}
	logger := slog.New(handler)
	reg := telemetry.NewRegistry()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	triageCfg := triage.Config{Alert: triage.AlertConfig{
		URL:            *alertURL,
		BayesThreshold: *alertBayes,
		MinOccurrences: *alertOccurs,
		Cooldown:       *alertCool,
	}}

	if *debugAddr != "" {
		go serveDebug(ctx, *debugAddr, reg)
	}

	switch mode {
	case "replica":
		runReplica(ctx, *addr, *replica, *token, *pollInt, reg, logger)
		return
	case "coordinator":
		if *standby && *primary == "" {
			log.Print("fleetd: warning: -standby without -primary never promotes automatically (only POST /v1/lease)")
		}
		holder := *leaseHolder
		if holder == "" {
			holder = *addr
		}
		ha := haOptions{standby: *standby, primary: *primary, takeoverAfter: *takeoverN, holder: holder}
		runCoordinator(ctx, *addr, *coordinator, *token, cumulative.Config{C: *priorC, P: *fillP},
			*pollInt, *snapshot, *snapshotInt, *rebalJournal, ha, triageCfg, reg, logger)
		return
	case "partition":
		log.Print("fleetd: partition mode: evidence store + journal only; patch derivation is the coordinator's job")
	}
	srv := fleet.NewServer(fleet.ServerOptions{
		Shards:         *shards,
		Config:         cumulative.Config{C: *priorC, P: *fillP},
		CorrectEvery:   *correctEvery,
		CorrectWorkers: *correctWork,
		Token:          *token,
		RatePerSec:     *rate,
		RateBurst:      *burst,
		JournalLen:     *journalLen,
		DedupWindow:    *dedupLen,
		Triage:         triageCfg,
		Metrics:        reg,
		Logger:         logger,
		// See ServerOptions.DisableCorrection: a partition's local N
		// would understate the Bayesian prior, so the server itself
		// refuses to derive patches in this mode.
		DisableCorrection: *partition,
	})
	if *snapshot != "" {
		if err := srv.LoadSnapshot(*snapshot); err != nil {
			log.Fatalf("fleetd: %v", err)
		}
		st := srv.Store()
		log.Printf("restored snapshot %s: %d runs, %d sites, %d patch entries",
			*snapshot, st.Runs(), st.Sites(), srv.PatchLog().Len())
	}

	if !*partition {
		go srv.RunCorrectionLoop(ctx, *correctInt)
	}
	finalSnapshot := snapshotLoop(ctx, srv.SaveSnapshot, *snapshot, *snapshotInt)

	serve(ctx, *addr, srv.Handler(), "fleetd")
	finalSnapshot()
	st := srv.Store()
	fmt.Printf("fleetd: served %d batches from %d client(s): %d runs, %d sites, %d patch entries at version %d\n",
		st.Batches(), st.Clients(), st.Runs(), st.Sites(), srv.PatchLog().Len(), srv.PatchLog().Version())
}

// haOptions carries the coordinator high-availability flags
// (-standby, -primary, -takeover-after, -lease-holder).
type haOptions struct {
	standby       bool
	primary       string
	takeoverAfter int
	holder        string
}

// runCoordinator runs the cluster merge tier until ctx is done. With a
// snapshot path, the coordinator restores its partition mirrors and
// journal cursors on start (so surviving partitions answer with cheap
// deltas instead of full resyncs), persists them periodically, and
// writes a final snapshot on graceful shutdown.
func runCoordinator(ctx context.Context, addr, partitions, token string, cfg cumulative.Config,
	pollInt time.Duration, snapshot string, snapshotInt time.Duration, rebalJournal string,
	ha haOptions, triageCfg triage.Config, reg *telemetry.Registry, logger *slog.Logger) {
	var parts []string
	for _, p := range strings.Split(partitions, ",") {
		if p = strings.TrimSpace(p); p != "" {
			parts = append(parts, p)
		}
	}
	coord, err := cluster.NewCoordinator(cluster.CoordinatorOptions{
		Partitions:       parts,
		Config:           cfg,
		Token:            token,
		Triage:           triageCfg,
		RebalanceJournal: rebalJournal,
		Standby:          ha.standby,
		Primary:          ha.primary,
		TakeoverAfter:    ha.takeoverAfter,
		LeaseHolder:      ha.holder,
		Metrics:          reg,
		Logger:           logger,
	})
	if err != nil {
		log.Fatalf("fleetd: %v", err)
	}
	if snapshot != "" {
		if err := coord.LoadSnapshot(snapshot); err != nil {
			log.Fatalf("fleetd: %v", err)
		}
		st := coord.Status()
		log.Printf("restored coordinator snapshot %s: %d runs, %d sites, %d patch entries",
			snapshot, st.Runs, st.Sites, st.PatchLen)
	}
	if rebalJournal != "" && !ha.standby {
		// A coordinator killed mid-rebalance re-drives the interrupted
		// drain/backfill before anything else: evictions replay from the
		// partitions' caches and backfills dedup, so the re-drive is
		// lossless however far the crash got. A standby does not touch
		// the journal at boot — it re-drives on promotion instead.
		if res, err := coord.ResumeRebalance(ctx); err != nil {
			log.Printf("fleetd: resume rebalance failed (will keep serving; retry with POST /v1/rebalance {}): %v", err)
		} else if res != nil {
			log.Printf("fleetd: resumed interrupted rebalance: now at membership v%d over %d node(s), %d key(s) moved",
				res.Version, len(res.Nodes), res.MovedKeys)
		}
	}
	boot := coord.Status()
	role := "primary"
	if ha.standby {
		role = fmt.Sprintf("standby for %s", ha.primary)
	}
	log.Printf("fleetd: coordinator (%s, holder %s) over %d partition(s) at membership v%d: %s",
		role, ha.holder, len(boot.Nodes), boot.MembershipVersion, strings.Join(boot.Nodes, ", "))
	go coord.Run(ctx, pollInt)
	finalSnapshot := snapshotLoop(ctx, coord.SaveSnapshot, snapshot, snapshotInt)

	serve(ctx, addr, coord.Handler(), "fleetd (coordinator)")
	finalSnapshot()
	st := coord.Status()
	fmt.Printf("fleetd (coordinator): %d poll round(s), %d resync(s): %d runs, %d sites, %d patch entries at version %d\n",
		st.Polls, st.Resyncs, st.Runs, st.Sites, st.PatchLen, st.Version)
}

// runReplica runs the read-path fan-out tier: a stateless patch cache
// over one or more coordinators (primary first, standby after) serving
// GET /v1/patches to any number of pollers, and forwarding the rare
// GET /v1/triage upstream. No snapshot, no journal — a restarted replica
// rebuilds its entire state from one upstream poll.
func runReplica(ctx context.Context, addr, upstreams, token string, pollInt time.Duration,
	reg *telemetry.Registry, logger *slog.Logger) {
	var ups []string
	for _, u := range strings.Split(upstreams, ",") {
		if u = strings.TrimSpace(u); u != "" {
			ups = append(ups, u)
		}
	}
	rep, err := cluster.NewReplica(cluster.ReplicaOptions{
		Upstreams:    ups,
		PollInterval: pollInt,
		Token:        token,
		Metrics:      reg,
		Logger:       logger,
	})
	if err != nil {
		log.Fatalf("fleetd: %v", err)
	}
	log.Printf("fleetd: replica over %d upstream(s): %s", len(ups), strings.Join(ups, ", "))
	go rep.Run(ctx)

	serve(ctx, addr, rep.Handler(), "fleetd (replica)")

	st := rep.Status()
	fmt.Printf("fleetd (replica): %d poll(s), %d error(s): serving upstream version %d (epoch %d), %d patch req(s), %d revalidated\n",
		st.Polls, st.PollErrors, st.ReplicaVersion, st.ReplicaEpoch, st.PatchRequests, st.PatchNotModified)
}

// serveDebug runs the private profiling listener (-debug-addr):
// net/http/pprof plus /metrics. Kept off the public mux so profiling
// endpoints are only reachable where the operator pointed them.
func serveDebug(ctx context.Context, addr string, reg *telemetry.Registry) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Printf("fleetd: debug listener: %v", err)
		return
	}
	hs := &http.Server{Handler: telemetry.DebugMux(reg)}
	go func() {
		log.Printf("fleetd: debug (pprof + metrics) on %s", ln.Addr())
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("fleetd: debug listener: %v", err)
		}
	}()
	<-ctx.Done()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	hs.Shutdown(shutdownCtx)
}

// serve runs an HTTP server for handler until ctx is done, then drains.
func serve(ctx context.Context, addr string, handler http.Handler, name string) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("%s: %v", name, err)
	}
	hs := &http.Server{Handler: handler}
	go func() {
		log.Printf("%s: serving on %s", name, ln.Addr())
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("%s: %v", name, err)
		}
	}()
	<-ctx.Done()
	log.Printf("%s: shutting down", name)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		log.Printf("%s: shutdown: %v", name, err)
	}
}

// snapshotLoop keeps the daemon's state file at path ("" = none): it
// writes it every interval, whatever changed — a rebalance drain, a
// ring-version raise or an alert delivery moves no batch counter but
// must reach the file too, so the file is at worst one interval stale.
// It returns the final write, for the caller to run once its HTTP server
// has drained and ctx is done: that waits for the loop to return first,
// since an interval write still in flight captured its state before the
// drain and would otherwise land on top of the final one.
func snapshotLoop(ctx context.Context, save func(path string) error, path string, interval time.Duration) (final func()) {
	if path == "" {
		return func() {}
	}
	if interval <= 0 {
		interval = 30 * time.Second
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				if err := save(path); err != nil {
					log.Printf("fleetd: snapshot: %v", err)
				}
			}
		}
	}()
	return func() {
		<-done
		if err := save(path); err != nil {
			log.Printf("fleetd: final snapshot: %v", err)
		} else {
			log.Printf("fleetd: final snapshot written to %s", path)
		}
	}
}
