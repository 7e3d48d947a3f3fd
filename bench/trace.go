package main

import (
	"context"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the
// benchmark around a call into the system (never from inside it). Start
// and End are nanoseconds since the tracer's epoch; Parent is the span
// that caused this one (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// tracer keeps every span of a run in memory; they are written out and
// summarized after the run. A nil *tracer records nothing, which is how
// untraced runs pay no tracing cost.
type tracer struct {
	epoch time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// openSpan is a span that has started but not ended.
type openSpan struct {
	t      *tracer
	id     uint64
	parent uint64
	name   string
	start  time.Time
}

// begin starts a span. On a nil tracer it returns a no-op span whose id
// is 0, so children of an untraced operation are untraced too.
func (t *tracer) begin(parent uint64, name string) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{t: t, id: t.next.Add(1), parent: parent, name: name, start: time.Now()}
}

// end records the span.
func (s openSpan) end() {
	if s.t == nil {
		return
	}
	now := time.Now()
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, span{
		ID: s.id, Parent: s.parent, Name: s.name,
		Start: s.start.Sub(s.t.epoch).Nanoseconds(), End: now.Sub(s.t.epoch).Nanoseconds(),
	})
	s.t.mu.Unlock()
}

// all returns the recorded spans.
func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// between returns the spans that started and ended within [start, end].
func (t *tracer) between(start, end time.Time) []span {
	if t == nil {
		return nil
	}
	lo, hi := start.Sub(t.epoch).Nanoseconds(), end.Sub(t.epoch).Nanoseconds()
	var out []span
	for _, s := range t.all() {
		if s.Start >= lo && s.End <= hi {
			out = append(out, s)
		}
	}
	return out
}

type spanKey struct{}

// withSpan makes s the parent of every span started under ctx, including
// server-side spans of HTTP requests the system sends with ctx.
func withSpan(ctx context.Context, s openSpan) context.Context {
	if s.id == 0 {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s.id)
}

func spanFrom(ctx context.Context) uint64 {
	id, _ := ctx.Value(spanKey{}).(uint64)
	return id
}

// spanHeader carries the parent span id from a client request to the
// timing handler in front of the server that answers it.
const spanHeader = "X-Bench-Span"

// spanTransport stamps requests made under a traced context with their
// parent span id. Every fleet client in the process sends through it, as
// they all use http.DefaultTransport.
type spanTransport struct{ base http.RoundTripper }

func (t spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if id := spanFrom(req.Context()); id != 0 {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	}
	return t.base.RoundTrip(req)
}

// selfTime is a span's duration minus the union of its children's
// intervals, each clipped to the span: the time the layer spent in its own
// code rather than waiting on the layers it called.
func selfTime(s span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	covered := int64(0)
	curLo, curHi := int64(0), int64(-1)
	for _, v := range iv {
		if v[0] > curHi {
			if curHi > curLo {
				covered += curHi - curLo
			}
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	if curHi > curLo {
		covered += curHi - curLo
	}
	return s.End - s.Start - covered
}

// spanIndex groups a run's spans for the per-layer summaries.
type spanIndex struct {
	byName   map[string][]span
	children map[uint64][]span
}

func indexSpans(spans []span) spanIndex {
	ix := spanIndex{byName: map[string][]span{}, children: map[uint64][]span{}}
	for _, s := range spans {
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
		if s.Parent != 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], s)
		}
	}
	return ix
}

// durations returns the durations (ns) of every span with the name.
func (ix spanIndex) durations(name string) []float64 {
	var out []float64
	for _, s := range ix.byName[name] {
		out = append(out, float64(s.End-s.Start))
	}
	return out
}

// selfTimes returns the self times (ns) of every span with the name.
func (ix spanIndex) selfTimes(name string) []float64 {
	var out []float64
	for _, s := range ix.byName[name] {
		out = append(out, float64(selfTime(s, ix.children[s.ID])))
	}
	return out
}
