package fleet

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"exterminator/internal/cumulative"
	"exterminator/internal/fleet/codec"
	"exterminator/internal/site"
	"exterminator/internal/telemetry"
)

// replyTransport answers every request with 200 and a fresh copy of a
// chosen body, in place of a server: length is the declared
// Content-Length, -1 for none.
type replyTransport struct {
	body   func() io.Reader
	length int64
}

func (rt replyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		req.Body.Close()
	}
	return &http.Response{
		Status:        "200 OK",
		StatusCode:    http.StatusOK,
		Header:        http.Header{},
		ContentLength: rt.length,
		Body:          io.NopCloser(rt.body()),
		Request:       req,
	}, nil
}

// replyClient returns a client whose every request is answered with
// body, declaring its length when declare is set.
func replyClient(body []byte, declare bool) *Client {
	length := int64(-1)
	if declare {
		length = int64(len(body))
	}
	return transportClient(replyTransport{body: func() io.Reader { return bytes.NewReader(body) }, length: length})
}

func transportClient(rt http.RoundTripper) *Client {
	c := NewClient("http://fleet.invalid", "replies")
	c.hc = &http.Client{Transport: rt}
	return c
}

// jsonReplyCalls runs one decoding method per JSON reply path: the GET
// ones read through getJSON, the POST ones through post.
var jsonReplyCalls = map[string]func(*Client) error{
	"Lease (getJSON)": func(c *Client) error {
		_, err := c.Lease(context.Background())
		return err
	},
	"Membership (getJSON)": func(c *Client) error {
		_, err := c.Membership(context.Background())
		return err
	},
	"AnnounceRing (post)": func(c *Client) error {
		_, err := c.AnnounceRing(context.Background(), 7)
		return err
	},
	"PushBatchContext (post)": func(c *Client) error {
		_, err := c.PushBatchContext(context.Background(), stampedBatch("replies", smallSnapshot(1, 0x10)))
		return err
	},
}

// TestJSONReplyDeclaringOverCapIsRefused: a JSON reply whose declared
// Content-Length exceeds maxResponseBytes is refused from its header,
// even though the bytes that follow would decode.
func TestJSONReplyDeclaringOverCapIsRefused(t *testing.T) {
	const doc = `{"ok":true,"version":7,"nodes":["http://p1"]}`
	for name, call := range jsonReplyCalls {
		c := transportClient(replyTransport{body: func() io.Reader { return strings.NewReader(doc) }, length: maxResponseBytes + 1})
		if err := call(c); err == nil || !strings.Contains(err.Error(), "limit") {
			t.Errorf("%s: a reply declaring %d bytes: err = %v, want the size limit", name, maxResponseBytes+1, err)
		}
	}
}

// TestJSONReplyWithTrailingBytesIsRefused: a reply holding anything but
// whitespace after its JSON value is refused, whether or not it declares
// its length; the newline WriteJSON ends every reply with is accepted.
func TestJSONReplyWithTrailingBytesIsRefused(t *testing.T) {
	const doc = `{"ok":true,"version":7,"nodes":["http://p1"]}`
	for name, call := range jsonReplyCalls {
		for _, declare := range []bool{true, false} {
			if err := call(replyClient([]byte(doc+" \n"), declare)); err != nil {
				t.Errorf("%s (declared %t): a reply with trailing whitespace: %v", name, declare, err)
			}
			for _, tail := range []string{"x", `{"ok":false}`, "\x00"} {
				if err := call(replyClient([]byte(doc+tail), declare)); err == nil {
					t.Errorf("%s (declared %t): a reply followed by %q was accepted", name, declare, tail)
				}
			}
		}
	}
}

// TestUndeclaredBodyOverCapIsRefused: a body that declares no length and
// runs one byte past maxResponseBytes is refused, not cut at the cap and
// handed on as a prefix.
func TestUndeclaredBodyOverCapIsRefused(t *testing.T) {
	over := func() io.Reader { return io.LimitReader(repeatReader(' '), maxResponseBytes+1) }
	c := transportClient(replyTransport{body: over, length: -1})
	page, err := c.TriagePage(context.Background(), 0, 10, "")
	if err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("an undeclared body of %d bytes: %d bytes returned, err = %v; want the size limit", maxResponseBytes+1, len(page), err)
	}
}

// repeatReader yields its byte forever.
type repeatReader byte

func (r repeatReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(r)
	}
	return len(p), nil
}

// evictFrame encodes the answer POST /v1/evict gives for token.
func evictFrame(token string, s *cumulative.Snapshot) []byte {
	return frame(&codec.Batch{BatchID: token, RingVersion: 2, Snapshot: s})
}

// xSnapshot is drained evidence with one observation of the given X, in
// the overflow or the dangling section.
func xSnapshot(x float64, dangling bool) *cumulative.Snapshot {
	s := &cumulative.Snapshot{C: 4, P: 0.5, Runs: 1, Sites: []site.ID{0x10, 0x11}}
	obs := []cumulative.Observation{{X: 0.5, Y: true}, {X: x, Y: false}}
	if dangling {
		s.Dangling = []cumulative.PairObservations{{Alloc: 0x10, Free: 0x11, Obs: obs}}
	} else {
		s.Overflow = []cumulative.SiteObservations{{Site: 0x10, Obs: obs}}
	}
	return s
}

// TestEvictKeysRefusesBadAnswers: the drained evidence passes the batch
// decoder's checks before a caller sees it. An X outside [0, 1] in either
// section, a batch stamped with another token, another frame type and a
// JSON body are each refused, declared or not.
func TestEvictKeysRefusesBadAnswers(t *testing.T) {
	const token = "rebalance:v2:http://p1"
	bad := map[string][]byte{
		"another token":      evictFrame("rebalance:v2:http://p2", xSnapshot(0.25, false)),
		"no snapshot":        frame(&codec.Batch{BatchID: token}),
		"a delta frame":      codec.EncodeDelta(&codec.Buffer{}, &codec.Delta{Seq: 1, Ops: []codec.DeltaOp{{Snapshot: xSnapshot(0.25, false)}}}),
		"a JSON body":        []byte(`{"ok":true,"evicted":{"c":4,"p":0.5,"runs":1}}`),
		"a trailing byte":    append(evictFrame(token, xSnapshot(0.25, false)), 0),
		"an empty body":      nil,
		"a truncated answer": evictFrame(token, xSnapshot(0.25, false))[:20],
	}
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.5, 2, math.Nextafter(1, 2)} {
		bad[fmt.Sprint("overflow X = ", x)] = evictFrame(token, xSnapshot(x, false))
		bad[fmt.Sprint("dangling X = ", x)] = evictFrame(token, xSnapshot(x, true))
	}
	for name, body := range bad {
		for _, declare := range []bool{true, false} {
			if s, err := replyClient(body, declare).EvictKeys(context.Background(), token, nil, false); err == nil {
				t.Errorf("%s (declared %t): accepted %+v", name, declare, s)
			}
		}
	}
	want := xSnapshot(1, true)
	got, err := replyClient(evictFrame(token, want), true).EvictKeys(context.Background(), token, nil, false)
	if err != nil || len(got.Dangling) != 1 || got.Dangling[0].Obs[1].X != 1 {
		t.Fatalf("a valid answer with X = 1: %+v, %v", got, err)
	}
}

// TestEvictReplayIsNotCounted: fleet_evictions_total and the status
// reply's evictions count drains, and a replayed token is not one.
func TestEvictReplayIsNotCounted(t *testing.T) {
	ctx := context.Background()
	reg := telemetry.NewRegistry()
	srv := NewServer(ServerOptions{CorrectEvery: -1, DisableCorrection: true, Metrics: reg})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := NewClient(ts.URL, "c1")
	batch := rebalanceTestSnapshot(1)
	if _, err := c.PushBatchContext(ctx, stampedBatch("c1", batch)); err != nil {
		t.Fatal(err)
	}
	counts := func() (string, int64) {
		t.Helper()
		st, err := c.Status()
		if err != nil {
			t.Fatal(err)
		}
		return metricValue(scrape(t, ts.URL+"/metrics"), "fleet_evictions_total"), st.Evictions
	}
	for i, step := range []struct {
		token  string
		metric string
		status int64
	}{
		{"tok-1", "1", 1},
		{"tok-1", "1", 1}, // the replay
		{"tok-2", "2", 2},
	} {
		if _, err := c.EvictKeys(ctx, step.token, []site.ID{batch.Sites[i]}, false); err != nil {
			t.Fatal(err)
		}
		if metric, status := counts(); metric != step.metric || status != step.status {
			t.Fatalf("after evict %d (%s): fleet_evictions_total %q, status evictions %d; want %q and %d",
				i, step.token, metric, status, step.metric, step.status)
		}
	}
}
