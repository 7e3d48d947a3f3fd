// Command bench is the repository's end-to-end benchmark: one process
// running the real tiers, from the allocator under a simulated program to
// a patch visible to a polling installation, with four workloads that
// stress different layers. See README.md for what each workload and
// metric means and how to compare two commits.
//
// Usage (from the repository root):
//
//	bash bench/run.sh --workload heap --seed 1 --seconds 15 --trace 0
//	go -C bench run . --workload all --seed 1 --out results.json
//
// The last line of standard output is one JSON object,
// {"correct", "attempted", "failed", "metrics"}: with --trace 0 the
// end-to-end metrics, with --trace 1 the per-layer ones. A human-readable
// table of every metric goes to standard error. The command exits
// non-zero when an output check fails or an operation fails.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"
)

// config is one run's settings.
type config struct {
	seed     uint64
	seconds  float64       // length of the timed phase
	trace    bool          // record spans and report per-layer metrics
	setups   int           // minimum set-up repetitions; setup_s is their median
	setupFor time.Duration // keep repeating set-up until this much time has passed
	warmup   time.Duration // untimed load before the timed phase
}

const maxSetups = 200

func (c config) duration() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// workload is one traffic mix.
type workload struct {
	name string
	run  func(context.Context, config) (*result, error)
}

var allWorkloads = []workload{
	{"heap", runHeap},
	{"session", runSession},
	{"fleet-ingest", runIngest},
	{"fleet-poll", runPoll},
}

// metricDef names a metric and its unit. BENCHMARK.json lists the same
// names with the same units; bench_test.go keeps the two in step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload from untraced runs. The operation ("op") is the workload's
// unit of work: a program execution under the Exterminator stack for heap
// and session, an upload for fleet-ingest, a patch poll for fleet-poll.
// The slowdowns divide the operation's latency by that of a baseline run
// side by side in the same process (the program on the freelist
// allocator, or a bare HTTP exchange of the operation's shape), which
// cancels the speed the machine happens to run at. alloc_kb_per_op is
// metered around the operations alone; on fleet-ingest an operation
// carries its share of the coordinator pass and replica poll that fold
// it, so the coordinator's allocation is gated there.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"slowdown_p50", "ratio"},
	{"slowdown_p75", "ratio"},
	{"alloc_kb_per_op", "KB"},
}

// perLayer are the traced run's layer metrics. A layer a workload does
// not exercise reports 0.
var perLayer = []metricDef{
	{"op.latency_ms_p50", "ms"},
	{"op.latency_ms_p75", "ms"},
	{"op.baseline_ms_p50", "ms"},
	{"op.cpu_ms_per_op", "ms"},
	{"correct.malloc_ns_p50", "ns"},
	{"correct.free_ns_p50", "ns"},
	{"correct.calls_per_run", "count"},
	{"correct.share", "ratio"},
	{"correct.go_alloc_kb_per_run", "KB"},
	{"freelist.malloc_ns_p50", "ns"},
	{"freelist.free_ns_p50", "ns"},
	{"freelist.share", "ratio"},
	{"freelist.go_alloc_kb_per_run", "KB"},
	{"fig7.ratio_alloc", "ratio"},
	{"fig7.ratio_spec", "ratio"},
	{"engine.session_ms_p50", "ms"},
	{"engine.runs_per_s", "1/s"},
	{"engine.fetch_ms_p50", "ms"},
	{"engine.flush_ms_p50", "ms"},
	{"engine.flush_ms_p99", "ms"},
	{"engine.commit_ms_p50", "ms"},
	{"engine.sink_share", "ratio"},
	{"engine.failed_run_frac", "ratio"},
	{"client.upload_ms_p50", "ms"},
	{"client.upload_ms_p99", "ms"},
	{"client.poll_ms_p50", "ms"},
	{"client.poll_ms_p99", "ms"},
	{"client.ingest_obs_per_s", "1/s"},
	{"client.ingest_kb_per_upload", "KB"},
	{"router.split_us_p50", "us"},
	{"router.push_ms_p50", "ms"},
	{"router.push_ms_p99", "ms"},
	{"router.push_self_ms_p50", "ms"},
	{"router.pieces_per_upload", "count"},
	{"partition.ingest_us_p50", "us"},
	{"partition.ingest_us_p99", "us"},
	{"partition.ingest_busy_frac", "ratio"},
	{"partition.wire_bytes_per_obs", "B"},
	{"partition.deltas_ms_p50", "ms"},
	{"partition.deltas_ms_p99", "ms"},
	{"partition.non2xx", "count"},
	{"coord.poll_ms_p50", "ms"},
	{"coord.poll_ms_p99", "ms"},
	{"coord.poll_self_ms_p50", "ms"},
	{"coord.correct_ms_p50", "ms"},
	{"coord.correct_ms_p99", "ms"},
	{"coord.pass_alone_ms_p50", "ms"},
	{"coord.busy_frac", "ratio"},
	{"coord.passes", "count"},
	{"coord.lag_runs_end", "count"},
	{"coord.false_patches", "count"},
	{"coord.patches_serve_us_p50", "us"},
	{"replica.poll_ms_p50", "ms"},
	{"replica.serve_us_p50", "us"},
	{"replica.serve_us_p99", "us"},
	{"replica.not_modified_frac", "ratio"},
	{"replica.full_fetch_frac", "ratio"},
	{"e2p.total_ms_p50", "ms"},
	{"e2p.total_ms_p90", "ms"},
	{"e2p.wait_coord_ms_p50", "ms"},
	{"e2p.coord_ms_p50", "ms"},
	{"e2p.wait_replica_ms_p50", "ms"},
	{"e2p.wait_client_ms_p50", "ms"},
	{"gen.lag_ms_p99", "ms"},
	{"go.gc_cpu_frac", "ratio"},
	{"go.live_heap_mb", "MB"},
	{"go.rss_peak_mb", "MB"},
	{"trace.overhead_frac", "ratio"},
	{"trace.spans", "count"},
}

// lagLimitMs is the validity limit on gen.lag_ms_p99: an open-loop run
// whose generator started its 99th-percentile operation later than this
// measured its own backlog, not the system's, and fails.
const lagLimitMs = 100

// result is one workload run's outcome.
type result struct {
	attempted int
	failed    int
	problems  []string
	metrics   map[string]float64
	spans     []span
}

// allMetrics is every metric, end-to-end first.
func allMetrics() []metricDef { return append(append([]metricDef(nil), endToEnd...), perLayer...) }

func newResult() *result {
	r := &result{metrics: map[string]float64{}}
	for _, d := range allMetrics() {
		r.metrics[d.name] = 0
	}
	return r
}

// maxProblems bounds the check failures kept for the report; the count
// of failed operations is exact regardless.
const maxProblems = 20

func (r *result) fail(format string, args ...any) {
	if len(r.problems) < maxProblems {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) set(name string, v float64) {
	if _, ok := r.metrics[name]; !ok {
		panic("bench: undeclared metric " + name)
	}
	r.metrics[name] = v
}

// endToEnd fills the end-to-end metrics, and the raw latencies and CPU
// behind them: latency and baseline are the operation's and the
// baseline's latencies (ms) in the timed phase, and work is the CPU and
// allocation of ops operations, metered around those operations alone
// (see each workload for which). The slowdowns are the ratios of the two
// latencies' percentiles; workloads that pair each operation with a
// baseline run replace them through setSlowdown.
func (r *result) endToEnd(setupS float64, latency, baseline []float64, work meter, ops int) {
	r.set("setup_s", setupS)
	r.setSlowdown(frac(pct(latency, 0.50), pct(baseline, 0.50)), frac(pct(latency, 0.75), pct(baseline, 0.75)))
	r.set("alloc_kb_per_op", frac(work.allocB/1024, float64(ops)))
	r.set("op.latency_ms_p50", pct(latency, 0.50))
	r.set("op.latency_ms_p75", pct(latency, 0.75))
	r.set("op.baseline_ms_p50", pct(baseline, 0.50))
	r.set("op.cpu_ms_per_op", frac(ms(work.cpu), float64(ops)))
}

func (r *result) setSlowdown(p50, p75 float64) {
	r.set("slowdown_p50", p50)
	r.set("slowdown_p75", p75)
}

// finishTrace keeps the run's spans and counts them.
func (r *result) finishTrace(tr *tracer) {
	r.spans = tr.all()
	r.set("trace.spans", float64(len(r.spans)))
}

// setUp builds a workload's state repeatedly, closing all but the last,
// and returns the last with the median set-up time in seconds. It builds
// at least cfg.setups times and keeps going until cfg.setupFor has passed
// (at most maxSetups times), so a set-up of a few milliseconds is
// measured as often as it takes for its median to be steady.
func setUp[T any](cfg config, build func() (T, error), closeFn func(T)) (T, float64, error) {
	var st T
	var times []float64
	began := time.Now()
	for i := 0; i < max(cfg.setups, 1) || (time.Since(began) < cfg.setupFor && i < maxSetups); i++ {
		if i > 0 {
			closeFn(st)
		}
		t := time.Now()
		var err error
		if st, err = build(); err != nil {
			return st, 0, err
		}
		times = append(times, time.Since(t).Seconds())
	}
	return st, median(times), nil
}

// metricOut is one metric in the result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line.
type output struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func (r *result) output(defs []metricDef) output {
	out := output{
		Correct:   len(r.problems) == 0,
		Attempted: max(r.attempted, 1),
		Failed:    r.failed,
		Metrics:   map[string]metricOut{},
	}
	for _, d := range defs {
		v := r.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	return out
}

// table writes every metric, end-to-end first, as aligned text.
func (r *result) table(w io.Writer, name string) {
	fmt.Fprintf(w, "== %s: %d attempted, %d failed\n", name, r.attempted, r.failed)
	for _, p := range r.problems {
		fmt.Fprintf(w, "   CHECK FAILED: %s\n", p)
	}
	for _, d := range allMetrics() {
		fmt.Fprintf(w, "   %-32s %14.6g %s\n", d.name, r.metrics[d.name], d.unit)
	}
}

// report is the -out file: every metric of every workload run, with the
// run's settings.
type report struct {
	GoVersion string      `json:"goVersion"`
	NumCPU    int         `json:"numCPU"`
	Seed      uint64      `json:"seed"`
	Seconds   float64     `json:"seconds"`
	Trace     bool        `json:"trace"`
	Runs      []reportRun `json:"runs"`
}

type reportRun struct {
	Workload  string               `json:"workload"`
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Problems  []string             `json:"problems,omitempty"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	var (
		name    = flag.String("workload", "heap", "workload to run: heap, session, fleet-ingest, fleet-poll, or all")
		seed    = flag.Uint64("seed", 1, "input seed; the same seed generates the same inputs")
		seconds = flag.Float64("seconds", 15, "length of the timed phase, seconds")
		trace   = flag.Int("trace", 0, "1: record spans and print the per-layer metrics instead of the end-to-end ones")
		outPath = flag.String("out", "", "also write every metric of every workload run to this JSON file")
		spans   = flag.String("spans", "", "with -trace 1, write the recorded spans to this JSON file")
	)
	flag.Parse()
	os.Exit(run(*name, config{
		seed: *seed, seconds: *seconds, trace: *trace == 1,
		setups: 5, setupFor: time.Second, warmup: 2 * time.Second,
	}, *outPath, *spans))
}

func run(name string, cfg config, outPath, spansPath string) int {
	var todo []workload
	for _, w := range allWorkloads {
		if name == "all" || name == w.name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
		return 2
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		return 2
	}
	rep := report{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace}
	var allSpans []span
	code := 0
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, w := range todo {
		// Every workload ends well within three minutes even if a request
		// hangs: the fleet clients time out after 15 s, and the context
		// bounds the rest.
		ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
		res, err := w.run(ctx, cfg)
		cancel()
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		res.table(os.Stderr, w.name)
		out := res.output(defs)
		if !out.Correct || out.Failed > 0 {
			code = 1
		}
		line, err := json.Marshal(out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		fmt.Println(string(line))
		all := res.output(allMetrics())
		rep.Runs = append(rep.Runs, reportRun{
			Workload: w.name, Correct: all.Correct, Attempted: all.Attempted, Failed: all.Failed,
			Problems: res.problems, Metrics: all.Metrics,
		})
		allSpans = append(allSpans, res.spans...)
	}
	if outPath != "" {
		if err := writeJSON(outPath, rep); err != nil {
			fmt.Fprintf(os.Stderr, "bench: write %s: %v\n", outPath, err)
			return 1
		}
	}
	if spansPath != "" {
		if err := writeJSON(spansPath, allSpans); err != nil {
			fmt.Fprintf(os.Stderr, "bench: write %s: %v\n", spansPath, err)
			return 1
		}
	}
	return code
}
