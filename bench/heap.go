package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"exterminator/internal/alloc"
	"exterminator/internal/correct"
	"exterminator/internal/diefast"
	"exterminator/internal/freelist"
	"exterminator/internal/mem"
	"exterminator/internal/mutator"
	"exterminator/internal/site"
	"exterminator/internal/workloads"
	"exterminator/internal/xrand"
)

// heapSuite is the Fig. 7 suite: five allocation-intensive programs, then
// eleven SPEC-like ones.
func heapSuite() []mutator.Program {
	return append(workloads.AllocIntensive(1), workloads.SPECLike(1)...)
}

const numAllocIntensive = 5

// progSeed is the program-level seed of every heap run: the same program
// input under every heap, so outputs must match byte for byte.
const progSeed = 7

// timedAlloc wraps the allocator a traced run hands mutator.NewEnv: it
// counts every call and times every sampleEvery-th one (timing each
// would cost as much as a fast malloc).
type timedAlloc struct {
	alloc.Allocator
	calls          int
	mallocNs       []float64
	freeNs         []float64
	mallocN, freeN int
}

const sampleEvery = 8

func (a *timedAlloc) Malloc(size int, s site.ID) (mem.Addr, error) {
	a.calls++
	a.mallocN++
	if a.mallocN%sampleEvery != 0 {
		return a.Allocator.Malloc(size, s)
	}
	t := time.Now()
	p, err := a.Allocator.Malloc(size, s)
	a.mallocNs = append(a.mallocNs, float64(time.Since(t)))
	return p, err
}

func (a *timedAlloc) Free(p mem.Addr, s site.ID) alloc.FreeStatus {
	a.calls++
	a.freeN++
	if a.freeN%sampleEvery != 0 {
		return a.Allocator.Free(p, s)
	}
	t := time.Now()
	st := a.Allocator.Free(p, s)
	a.freeNs = append(a.freeNs, float64(time.Since(t)))
	return st
}

// allocShare estimates the share of run time spent in Malloc/Free from
// the sampled calls.
func (a *timedAlloc) allocShare(run time.Duration) float64 {
	return frac((sum(a.mallocNs)+sum(a.freeNs))*sampleEvery, float64(run))
}

// stackStats accumulates one allocator stack's traced runs.
type stackStats struct {
	mallocNs, freeNs, share, allocKB []float64
	calls                            float64
	runs                             int
}

func (s *stackStats) add(a *timedAlloc, run time.Duration, allocB float64) {
	// Keep the pooled samples bounded; thousands of runs at a few hundred
	// samples each would otherwise hold millions of floats.
	if len(s.mallocNs) < 1<<18 {
		s.mallocNs = append(s.mallocNs, a.mallocNs...)
		s.freeNs = append(s.freeNs, a.freeNs...)
	}
	s.share = append(s.share, a.allocShare(run))
	s.allocKB = append(s.allocKB, allocB/1024)
	s.calls += float64(a.calls)
	s.runs++
}

// execute runs one program on one stack: the freelist baseline (no
// call-site hashing, like the paper's libc) or DieFast under the
// correcting allocator.
func execute(p mutator.Program, exterminator bool, heapSeed uint64, wrap *timedAlloc) *mutator.Outcome {
	var a alloc.Allocator
	var space *mem.Space
	if exterminator {
		h := diefast.New(diefast.DefaultConfig(), xrand.New(heapSeed))
		h.OnError = func(diefast.Event) {}
		a, space = correct.New(h), h.Space()
	} else {
		rng := xrand.New(heapSeed)
		fl := freelist.New(mem.NewSpace(rng.Split()), rng.Split())
		a, space = fl, fl.Space()
	}
	if wrap != nil {
		wrap.Allocator = a
		a = wrap
	}
	e := mutator.NewEnv(a, space, xrand.New(progSeed), nil)
	e.NoSites = !exterminator
	return mutator.Run(p, e)
}

// heapState is the heap workload's set-up: the suite and each program's
// reference output, from one baseline run checked against one
// Exterminator run.
type heapState struct {
	progs []mutator.Program
	ref   [][]byte
}

func setUpHeap(seed uint64) (*heapState, error) {
	st := &heapState{progs: heapSuite()}
	for i, p := range st.progs {
		s := seed*7919 + uint64(i)
		base, ext := execute(p, false, s, nil), execute(p, true, s+1, nil)
		if !base.Completed || !ext.Completed || !bytes.Equal(base.Output, ext.Output) {
			return nil, fmt.Errorf("heap set-up: %s does not run identically on both stacks (%s; %s)", p.Name(), base, ext)
		}
		st.ref = append(st.ref, base.Output)
	}
	return st, nil
}

// runHeap is the heap workload: a closed loop of one goroutine cycling
// through the suite, each program run on the freelist baseline and then
// on DieFast+correct, each on a fresh heap seed. The fleet is not
// started.
func runHeap(ctx context.Context, cfg config) (*result, error) {
	st, setupS, err := setUp(cfg, func() (*heapState, error) { return setUpHeap(cfg.seed) }, func(*heapState) {})
	if err != nil {
		return nil, err
	}
	res := newResult()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	n := len(st.progs)
	base := make([][]float64, n) // untraced run times per program, ms
	ext := make([][]float64, n)
	pairs := make([][]float64, n) // untraced Exterminator / freelist run-time ratios
	var latency, baseline, tracedLat, untracedLat []float64
	var stacks [2]stackStats // freelist, exterminator
	// work meters the untraced Exterminator executions alone, so the
	// freelist runs' allocation and CPU stay out of the per-op metrics.
	var work meter
	works := 0

	cycle := func(c int, until time.Time, record bool) bool {
		traced := tr != nil && c%2 == 0
		for i, p := range st.progs {
			if time.Now().After(until) || ctx.Err() != nil {
				return false
			}
			seed := cfg.seed<<32 ^ uint64(c)*104729 ^ uint64(i)*7919
			var baseRun time.Duration
			for k, exterminator := range []bool{false, true} {
				var wrap *timedAlloc
				if traced {
					wrap = &timedAlloc{}
				}
				name := "heap.run.freelist"
				if exterminator {
					name = "heap.run.exterminator"
				}
				p0 := readProbe()
				sp := tr.begin(0, name)
				t := time.Now()
				out := execute(p, exterminator, seed+uint64(k), wrap)
				d := time.Since(t)
				sp.end()
				used := p0.until(readProbe())
				if !record {
					continue
				}
				res.attempted++
				if !out.Completed || !bytes.Equal(out.Output, st.ref[i]) {
					res.failed++
					res.fail("%s on %s: %s", p.Name(), name, out)
				}
				if traced {
					stacks[k].add(wrap, d, used.allocB)
				}
				if !exterminator {
					baseRun = d
					baseline = append(baseline, ms(d))
					if !traced {
						base[i] = append(base[i], ms(d))
					}
					continue
				}
				latency = append(latency, ms(d))
				if traced {
					tracedLat = append(tracedLat, ms(d))
				} else {
					untracedLat = append(untracedLat, ms(d))
					ext[i] = append(ext[i], ms(d))
					pairs[i] = append(pairs[i], float64(d)/float64(baseRun))
					work = work.plus(used)
					works++
				}
			}
		}
		return true
	}

	warmEnd := time.Now().Add(cfg.warmup)
	for c := 0; cycle(c, warmEnd, false); c++ {
	}
	p0 := readProbe()
	end := time.Now().Add(cfg.duration())
	for c := 0; cycle(c, end, true); c++ {
	}
	m := p0.until(readProbe())
	res.set("go.live_heap_mb", liveHeapMB())
	res.set("go.rss_peak_mb", m.rssMB)
	res.endToEnd(setupS, latency, baseline, work, works)

	// The slowdowns pair each Exterminator execution with the freelist
	// execution of the same program just before it, take the median (p75)
	// of those ratios per program, and the geometric mean over the suite,
	// as Fig. 7 summarizes it. Pairing adjacent runs cancels the machine's
	// speed more closely than dividing the two stacks' medians. The Fig. 7
	// group ratios keep the paper's ratio of medians.
	var r50, r75, ratioAlloc, ratioSpec []float64
	for i := range st.progs {
		if len(pairs[i]) == 0 {
			continue
		}
		r50 = append(r50, median(pairs[i]))
		r75 = append(r75, pct(pairs[i], 0.75))
		r := median(ext[i]) / median(base[i])
		if i < numAllocIntensive {
			ratioAlloc = append(ratioAlloc, r)
		} else {
			ratioSpec = append(ratioSpec, r)
		}
	}
	res.setSlowdown(geomean(r50), geomean(r75))
	res.set("fig7.ratio_alloc", geomean(ratioAlloc))
	res.set("fig7.ratio_spec", geomean(ratioSpec))
	for k, prefix := range []string{"freelist.", "correct."} {
		s := &stacks[k]
		res.set(prefix+"malloc_ns_p50", median(s.mallocNs))
		res.set(prefix+"free_ns_p50", median(s.freeNs))
		res.set(prefix+"share", median(s.share))
		res.set(prefix+"go_alloc_kb_per_run", median(s.allocKB))
		if k == 1 {
			res.set("correct.calls_per_run", frac(s.calls, float64(s.runs)))
		}
	}
	res.set("go.gc_cpu_frac", m.gcFrac)
	if tr != nil {
		res.set("trace.overhead_frac", frac(median(tracedLat), median(untracedLat))-1)
	}
	res.finishTrace(tr)
	return res, nil
}
