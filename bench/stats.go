package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// pct returns the q-quantile of xs by the nearest-rank rule (0 for no
// samples). xs is not modified.
func pct(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return pct(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	l := 0.0
	for _, x := range xs {
		l += math.Log(x)
	}
	return math.Exp(l / float64(len(xs)))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// frac is a/b, or 0 when b is 0.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// probe is a reading of the process's resource counters; the difference
// of two readings meters a phase.
type probe struct {
	cpu      time.Duration // user + system CPU of the whole process
	rssMB    float64       // peak resident set size of the process so far
	allocB   float64       // cumulative Go heap bytes allocated
	gcCPU    float64       // cumulative GC CPU seconds (runtime estimate)
	totalCPU float64       // cumulative CPU seconds available to Go (runtime estimate)
}

var probeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readProbe() probe {
	var p probe
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		p.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KB
	}
	s := append([]metrics.Sample(nil), probeSamples...)
	metrics.Read(s)
	p.allocB = float64(s[0].Value.Uint64())
	p.gcCPU = s[1].Value.Float64()
	p.totalCPU = s[2].Value.Float64()
	return p
}

// meter is the resource use of one phase.
type meter struct {
	cpu    time.Duration
	allocB float64
	gcFrac float64
	rssMB  float64 // peak resident set size up to the phase's end
}

func (p probe) until(q probe) meter {
	return meter{
		cpu:    q.cpu - p.cpu,
		allocB: q.allocB - p.allocB,
		gcFrac: frac(q.gcCPU-p.gcCPU, q.totalCPU-p.totalCPU),
		rssMB:  q.rssMB,
	}
}

// plus adds the CPU and allocation of another phase.
func (m meter) plus(o meter) meter {
	m.cpu += o.cpu
	m.allocB += o.allocB
	return m
}

// liveHeapMB forces a GC and returns the live heap in MB: what the
// process retains at the end of a phase (fleet state, histories, caches),
// without the garbage a run leaves behind, whose amount at any instant
// depends on when the last GC ran.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
