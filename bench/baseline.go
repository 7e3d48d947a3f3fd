package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// baseline is a bare HTTP exchange of an operation's shape against a
// handler that does no work, on a loopback listener of the same process:
// what a fleet operation costs in transport and scheduling alone. The
// fleet workloads' slowdown metrics divide the operation's latency by
// the baseline's, measured at the same time, so the machine's speed at
// the time cancels out of them. The baseline runs on a goroutine of its
// own: interleaved with the operations it queued behind their slow
// cases, and its percentiles varied several times more between runs.
type baseline struct {
	url     string
	client  *http.Client
	payload []byte
}

// baselineHandler answers POSTs with 200 after draining the body and
// GETs with a bodyless 304, like an up-to-date patch poll.
func baselineHandler(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		_, _ = io.Copy(io.Discard, r.Body) // the body only has to be read
		w.WriteHeader(http.StatusOK)
		return
	}
	w.WriteHeader(http.StatusNotModified)
}

// newBaseline serves the baseline handler on the rig. payload is the body
// size of one baseline POST.
func newBaseline(r *rig, payload int) (*baseline, error) {
	url, err := r.serve("baseline", http.HandlerFunc(baselineHandler))
	if err != nil {
		return nil, err
	}
	return &baseline{url: url, client: &http.Client{Timeout: 15 * time.Second}, payload: make([]byte, payload)}, nil
}

// posts sends n baseline POSTs concurrently, the shape of an upload's
// pieces.
func (b *baseline) posts(ctx context.Context, n int) error {
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = b.do(ctx, http.MethodPost, http.StatusOK)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// get sends one baseline GET, the shape of an unchanged patch poll.
func (b *baseline) get(ctx context.Context) error {
	return b.do(ctx, http.MethodGet, http.StatusNotModified)
}

func (b *baseline) do(ctx context.Context, method string, want int) error {
	var body io.Reader
	if method == http.MethodPost {
		body = bytes.NewReader(b.payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, b.url, body)
	if err != nil {
		return err
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
	resp.Body.Close()
	if resp.StatusCode != want {
		return fmt.Errorf("baseline %s: status %d", method, resp.StatusCode)
	}
	return nil
}

// runBaseline runs baseline exchanges in an open loop of their own
// goroutine at rate per second from start for d, alongside the
// workload's operations, and returns their latencies from their due
// times (ms) and their errors.
func runBaseline(start time.Time, d time.Duration, rate float64, op func() error) (lat []float64, errs []error) {
	n := max(1, int(rate*d.Seconds()))
	done := make([]time.Time, n)
	due := make([]time.Time, n)
	errOf := make([]error, n)
	openLoop(start, n, 1, rateDue(rate), func(i int, at time.Time) {
		due[i] = at
		errOf[i] = op()
		done[i] = time.Now()
	})
	for i := range done {
		if errOf[i] != nil {
			errs = append(errs, errOf[i])
			continue
		}
		lat = append(lat, ms(done[i].Sub(due[i])))
	}
	return lat, errs
}
