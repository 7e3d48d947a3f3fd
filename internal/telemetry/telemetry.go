// Package telemetry is Exterminator's dependency-free instrumentation
// layer: counters, gauges and fixed-bucket histograms on atomics, a
// metric registry with constant labels, and Prometheus text-format
// exposition (GET /metrics). Every fleet tier — fleetd partitions, the
// cluster coordinator, the upload client, and engine sessions (via
// Observer) — registers into one of these registries, so the whole
// client → partition → coordinator pipeline is observable with stock
// Prometheus tooling and zero third-party dependencies.
//
// Metrics are get-or-create: asking a registry twice for the same
// (name, labels) pair returns the same instance, so dynamic components
// (cluster partitions joining a ring) can register lazily without
// bookkeeping. All mutation paths are lock-free atomics; exposition
// takes only the registry's structural lock, never blocking the hot
// path.
package telemetry

import (
	"bufio"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one constant name=value pair attached to a metric series.
type Label struct {
	Name  string
	Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// metric type names as they appear on # TYPE lines.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

var nameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
var labelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)

// Counter is a monotonically increasing value. The zero value is unusable;
// obtain one from Registry.Counter.
type Counter struct {
	bits atomic.Uint64 // float64 bits
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by delta; negative deltas are ignored
// (counters only go up).
func (c *Counter) Add(delta float64) {
	if delta < 0 {
		return
	}
	atomicAddFloat(&c.bits, delta)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a value that can go up and down. The zero value is unusable;
// obtain one from Registry.Gauge.
type Gauge struct {
	bits atomic.Uint64 // float64 bits
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta (which may be negative).
func (g *Gauge) Add(delta float64) { atomicAddFloat(&g.bits, delta) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// atomicAddFloat adds delta to a float64 stored as uint64 bits, CAS-looped.
func atomicAddFloat(bits *atomic.Uint64, delta float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Histogram is a fixed-bucket distribution: cumulative bucket counts, a
// running sum, and a total count, all on atomics. The zero value is
// unusable; obtain one from Registry.Histogram.
type Histogram struct {
	bounds []float64 // sorted upper bounds, +Inf implicit
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bucket whose bound >= v.
	i := sort.SearchFloat64s(h.bounds, v)
	if i < len(h.counts) {
		h.counts[i].Add(1)
	}
	h.count.Add(1)
	atomicAddFloat(&h.sum, v)
}

// ObserveSince records the elapsed time since start, in seconds — the
// standard latency-histogram idiom: defer h.ObserveSince(time.Now()).
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Seconds())
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// DefBuckets are general-purpose latency buckets in seconds (500µs to
// 10s), suitable for ingest, identify/correct and push latencies.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// SizeBuckets are general-purpose size/count buckets (1 to 65536),
// suitable for batch sizes, piece counts and flush sizes.
var SizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 256, 1024, 4096, 16384, 65536}

// series is one labeled instance inside a family.
type series struct {
	labels []Label
	key    string // canonical label encoding, "" for unlabeled

	// exactly one of these is set, matching the family type.
	counter *Counter
	gauge   *Gauge
	fn      func() float64 // gauge-func; guarded by the registry lock on swap
	hist    *Histogram
}

// family is all series sharing one metric name.
type family struct {
	name   string
	help   string
	typ    string
	series []*series // registration order
	byKey  map[string]*series
}

// Registry holds an ordered set of metric families and renders them in
// the Prometheus text exposition format. Safe for concurrent use.
type Registry struct {
	mu    sync.Mutex
	fams  map[string]*family
	order []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// lookup returns (creating if needed) the series for (name, labels),
// enforcing name validity and type consistency. create builds the series
// payload on first sight.
func (r *Registry) lookup(name, help, typ string, labels []Label, create func(*series)) *series {
	if !nameRe.MatchString(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !labelRe.MatchString(l.Name) {
			panic(fmt.Sprintf("telemetry: invalid label name %q on metric %q", l.Name, name))
		}
	}
	key := labelKey(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.fams[name]
	if fam == nil {
		fam = &family{name: name, help: help, typ: typ, byKey: make(map[string]*series)}
		r.fams[name] = fam
		r.order = append(r.order, name)
	}
	if fam.typ != typ {
		panic(fmt.Sprintf("telemetry: metric %q re-registered as %s (was %s)", name, typ, fam.typ))
	}
	s := fam.byKey[key]
	if s == nil {
		s = &series{labels: append([]Label(nil), labels...), key: key}
		create(s)
		fam.byKey[key] = s
		fam.series = append(fam.series, s)
	}
	return s
}

// Counter returns the counter for (name, labels), creating and
// registering it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.lookup(name, help, typeCounter, labels, func(s *series) { s.counter = &Counter{} })
	return s.counter
}

// Gauge returns the gauge for (name, labels), creating and registering
// it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.lookup(name, help, typeGauge, labels, func(s *series) { s.gauge = &Gauge{} })
	return s.gauge
}

// GaugeFunc registers a gauge whose value is computed at scrape time.
// Re-registering the same (name, labels) replaces the function — dynamic
// components (a cluster partition dropped and re-added) re-bind their
// closure instead of exposing a stale one.
func (r *Registry) GaugeFunc(name, help string, f func() float64, labels ...Label) {
	s := r.lookup(name, help, typeGauge, labels, func(s *series) {})
	r.mu.Lock()
	s.fn = f
	r.mu.Unlock()
}

// Histogram returns the histogram for (name, labels) with the given
// bucket upper bounds (nil = DefBuckets), creating and registering it on
// first use. Buckets are sorted and deduplicated.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	s := r.lookup(name, help, typeHistogram, labels, func(s *series) {
		if len(buckets) == 0 {
			buckets = DefBuckets
		}
		bounds := append([]float64(nil), buckets...)
		sort.Float64s(bounds)
		uniq := bounds[:0]
		for i, b := range bounds {
			if i == 0 || b != bounds[i-1] {
				uniq = append(uniq, b)
			}
		}
		s.hist = &Histogram{bounds: uniq, counts: make([]atomic.Int64, len(uniq))}
	})
	return s.hist
}

// WriteText renders the registry in the Prometheus text exposition
// format (version 0.0.4).
func (r *Registry) WriteText(w io.Writer) error {
	// Snapshot the structure under the lock, then render — and evaluate
	// gauge funcs — after releasing it. Gauge funcs may take component
	// locks, and components register series (Registry.lookup takes this
	// lock) while holding those same locks, so calling a func with the
	// registry lock held would be a lock-order inversion: a scrape and a
	// membership change could deadlock each other. Copying the fn values
	// under the lock also keeps a concurrent GaugeFunc swap from racing
	// the read.
	type seriesSnap struct {
		labels  []Label
		counter *Counter
		gauge   *Gauge
		fn      func() float64
		hist    *Histogram
	}
	type famSnap struct {
		name, help, typ string
		series          []seriesSnap
	}
	r.mu.Lock()
	fams := make([]famSnap, 0, len(r.order))
	for _, name := range r.order {
		fam := r.fams[name]
		fs := famSnap{name: fam.name, help: fam.help, typ: fam.typ}
		for _, s := range fam.series {
			fs.series = append(fs.series, seriesSnap{
				labels:  s.labels,
				counter: s.counter,
				gauge:   s.gauge,
				fn:      s.fn,
				hist:    s.hist,
			})
		}
		fams = append(fams, fs)
	}
	r.mu.Unlock()
	bw := bufio.NewWriter(w)
	for _, fam := range fams {
		fmt.Fprintf(bw, "# HELP %s %s\n", fam.name, escapeHelp(fam.help))
		fmt.Fprintf(bw, "# TYPE %s %s\n", fam.name, fam.typ)
		for _, s := range fam.series {
			switch {
			case s.counter != nil:
				writeSample(bw, fam.name, s.labels, nil, s.counter.Value())
			case s.gauge != nil:
				writeSample(bw, fam.name, s.labels, nil, s.gauge.Value())
			case s.fn != nil:
				writeSample(bw, fam.name, s.labels, nil, s.fn())
			case s.hist != nil:
				h := s.hist
				cum := int64(0)
				for i, b := range h.bounds {
					cum += h.counts[i].Load()
					writeSample(bw, fam.name+"_bucket", s.labels,
						&Label{Name: "le", Value: formatFloat(b)}, float64(cum))
				}
				writeSample(bw, fam.name+"_bucket", s.labels,
					&Label{Name: "le", Value: "+Inf"}, float64(h.count.Load()))
				writeSample(bw, fam.name+"_sum", s.labels, nil, h.Sum())
				writeSample(bw, fam.name+"_count", s.labels, nil, float64(h.count.Load()))
			}
		}
	}
	return bw.Flush()
}

// Handler returns an http.Handler serving the registry as GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteText(w)
	})
}

// writeSample emits one exposition line: name{labels,extra} value.
func writeSample(w *bufio.Writer, name string, labels []Label, extra *Label, v float64) {
	w.WriteString(name)
	if len(labels) > 0 || extra != nil {
		w.WriteByte('{')
		first := true
		for _, l := range labels {
			if !first {
				w.WriteByte(',')
			}
			first = false
			fmt.Fprintf(w, "%s=%q", l.Name, l.Value)
		}
		if extra != nil {
			if !first {
				w.WriteByte(',')
			}
			fmt.Fprintf(w, "%s=%q", extra.Name, extra.Value)
		}
		w.WriteByte('}')
	}
	w.WriteByte(' ')
	w.WriteString(formatFloat(v))
	w.WriteByte('\n')
}

// formatFloat renders a sample value: integers without an exponent or
// trailing zeros, everything else in Go's shortest form.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Label values need no pre-escaping: writeSample's %q adds the quotes
// and escapes backslash, quote and newline exactly as the exposition
// format requires.

// escapeHelp escapes a help string per the exposition format.
func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, `\`, `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}

// labelKey canonically encodes a label set (sorted by name).
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	for _, l := range ls {
		b.WriteString(l.Name)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(l.Value))
		b.WriteByte(';')
	}
	return b.String()
}

// NewRequestID returns a fresh correlation ID: 16 hex characters of
// crypto randomness. It rides the X-Request-ID header from the upload
// client through the partition's ingest log and journal to the
// coordinator's delta log, so one upload's journey is grep-able across
// every tier.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; degrade to a
		// time-derived ID rather than panicking in a logging path.
		return fmt.Sprintf("t%015x", time.Now().UnixNano()&0xffffffffffffff)
	}
	return hex.EncodeToString(b[:])
}
