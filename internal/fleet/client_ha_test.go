package fleet

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"exterminator/internal/fleet/codec"
	"exterminator/internal/patch"
	"exterminator/internal/site"
	"exterminator/internal/telemetry"
)

// patchOrigin is a minimal /v1/patches origin for client-side tests:
// it serves one patch set stamped with a settable epoch/version, honors
// If-None-Match, and records every since= cursor and validator it saw.
type patchOrigin struct {
	epoch   atomic.Uint64
	version atomic.Uint64

	mu     sync.Mutex
	set    *patch.Set
	sinces []string
	inms   []string
}

func newPatchOrigin(epoch, version uint64) *patchOrigin {
	ps := patch.New()
	ps.AddPad(site.ID(0xE7A6), 24)
	o := &patchOrigin{set: ps}
	o.epoch.Store(epoch)
	o.version.Store(version)
	return o
}

func (o *patchOrigin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	o.mu.Lock()
	o.sinces = append(o.sinces, r.URL.Query().Get("since"))
	o.inms = append(o.inms, r.Header.Get("If-None-Match"))
	set := o.set.Clone()
	o.mu.Unlock()
	epoch, version := o.epoch.Load(), o.version.Load()
	if MatchETag(w, r, PatchETag(epoch, version)) {
		return
	}
	wire := codec.ToWire(set, version)
	wire.Epoch = epoch
	writePatchSet(w, r, wire)
}

func (o *patchOrigin) seen() (sinces, inms []string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]string(nil), o.sinces...), append([]string(nil), o.inms...)
}

// TestClientConditionalPatchPolling pins the client half of the ETag
// handshake: after a successful poll the client revalidates with
// If-None-Match, treats the 304 as "no change" (empty delta, cursor
// kept), and counts the saved body.
func TestClientConditionalPatchPolling(t *testing.T) {
	origin := newPatchOrigin(7, 3)
	ts := httptest.NewServer(origin)
	defer ts.Close()

	c := NewClient(ts.URL, "etag-client")
	reg := telemetry.NewRegistry()
	c.SetMetrics(reg)

	first, v, err := c.Patches(0)
	if err != nil {
		t.Fatal(err)
	}
	if v != 3 || first.Len() == 0 {
		t.Fatalf("first poll = (%s, v%d), want the origin set at v3", first, v)
	}

	delta, v2, err := c.Patches(v)
	if err != nil {
		t.Fatal(err)
	}
	if delta.Len() != 0 || v2 != v {
		t.Fatalf("revalidation poll = (%s, v%d), want empty delta at v%d", delta, v2, v)
	}
	if got := c.m.notMod.Value(); got != 1 {
		t.Fatalf("fleet_client_patch_not_modified_total = %v, want 1", got)
	}
	_, inms := origin.seen()
	if len(inms) != 2 || inms[0] != "" || inms[1] != PatchETag(7, 3) {
		t.Fatalf("If-None-Match sequence = %q, want none then %q", inms, PatchETag(7, 3))
	}
}

// TestClientRotatesToFallbackOnTransportError pins base rotation: with
// the active base unreachable, a poll lands on the fallback without an
// error surfacing, the rotation is counted, and the fallback stays
// sticky for the next request.
func TestClientRotatesToFallbackOnTransportError(t *testing.T) {
	origin := newPatchOrigin(4, 1)
	ts := httptest.NewServer(origin)
	defer ts.Close()

	c := NewClient("http://127.0.0.1:1", "failover-client")
	c.SetFallbacks(ts.URL)
	reg := telemetry.NewRegistry()
	c.SetMetrics(reg)

	if _, _, err := c.Patches(0); err != nil {
		t.Fatalf("poll with dead active base: %v", err)
	}
	if got := c.Base(); got != ts.URL {
		t.Fatalf("active base after failover = %q, want %q", got, ts.URL)
	}
	if got := c.m.failovers.Value(); got < 1 {
		t.Fatalf("fleet_client_failovers_total = %v, want >= 1", got)
	}
	if _, _, err := c.Patches(0); err != nil {
		t.Fatalf("sticky fallback poll: %v", err)
	}
	if sinces, _ := origin.seen(); len(sinces) != 2 {
		t.Fatalf("fallback served %d requests, want 2 (sticky)", len(sinces))
	}
}

// TestClientRotatesOn503 pins the standby-gate path: a base answering
// 503 (a coordinator standing by) is rotated past, not retried into.
func TestClientRotatesOn503(t *testing.T) {
	var gated atomic.Int64
	gate := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gated.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "standing by (not primary)", http.StatusServiceUnavailable)
	}))
	defer gate.Close()
	origin := newPatchOrigin(4, 1)
	ts := httptest.NewServer(origin)
	defer ts.Close()

	c := NewClient(gate.URL, "gate-client")
	c.SetFallbacks(ts.URL)

	ps, _, err := c.Patches(0)
	if err != nil {
		t.Fatalf("poll with gated active base: %v", err)
	}
	if ps.Len() == 0 {
		t.Fatal("poll returned empty set, want the fallback's patches")
	}
	if got := gated.Load(); got != 1 {
		t.Fatalf("gated base hit %d times, want 1 (no retry into a standby)", got)
	}
}

// TestClientRejectsStalePrimary pins zombie fencing: once the client
// has seen epoch E, bases still stamping a lower epoch are rotated
// through and, with every base stale, the poll fails with
// StalePrimaryError rather than silently regressing.
func TestClientRejectsStalePrimary(t *testing.T) {
	origin := newPatchOrigin(100, 5)
	a := httptest.NewServer(origin)
	defer a.Close()
	b := httptest.NewServer(origin)
	defer b.Close()

	c := NewClient(a.URL, "fence-client")
	c.SetFallbacks(b.URL)
	if _, _, err := c.Patches(0); err != nil {
		t.Fatal(err)
	}

	origin.epoch.Store(50) // both bases are now zombies
	origin.version.Store(9)
	_, _, err := c.Patches(5)
	var stale *StalePrimaryError
	if !errors.As(err, &stale) {
		t.Fatalf("poll against all-stale bases = %v, want StalePrimaryError", err)
	}
	if stale.Seen != 100 || stale.Got != 50 {
		t.Fatalf("StalePrimaryError = %+v, want Seen=100 Got=50", stale)
	}
}

// TestClientResyncsOnEpochBump pins the failover resync: a delta poll
// answered from a higher epoch (a promoted standby with restarted
// version numbering) is transparently refetched from 0.
func TestClientResyncsOnEpochBump(t *testing.T) {
	origin := newPatchOrigin(1, 5)
	ts := httptest.NewServer(origin)
	defer ts.Close()

	c := NewClient(ts.URL, "resync-client")
	if _, _, err := c.Patches(0); err != nil {
		t.Fatal(err)
	}

	origin.epoch.Store(2) // new incarnation, version numbering restarted
	origin.version.Store(2)
	ps, v, err := c.Patches(5)
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 || !ps.Equal(origin.set) {
		t.Fatalf("post-bump poll = (%s, v%d), want the full set at v2", ps, v)
	}
	sinces, _ := origin.seen()
	want := []string{"0", "5", "0"}
	if len(sinces) != len(want) {
		t.Fatalf("since cursors = %q, want %q", sinces, want)
	}
	for i := range want {
		if sinces[i] != want[i] {
			t.Fatalf("since cursors = %q, want %q", sinces, want)
		}
	}
}

// TestJitterIntervalBounds pins the poll-jitter distribution: every
// draw lands in [0.9d, 1.1d), and both halves of the window are hit —
// the de-synchronization the jitter exists to provide.
func TestJitterIntervalBounds(t *testing.T) {
	const d = time.Second
	lo, hi := time.Duration(float64(d)*(1-JitterFraction)), time.Duration(float64(d)*(1+JitterFraction))
	var below, above int
	for i := 0; i < 4000; i++ {
		j := JitterInterval(d)
		if j < lo || j >= hi {
			t.Fatalf("JitterInterval(%v) = %v, outside [%v, %v)", d, j, lo, hi)
		}
		if j < d {
			below++
		} else {
			above++
		}
	}
	if below == 0 || above == 0 {
		t.Fatalf("jitter never crossed the midpoint: %d below, %d above", below, above)
	}
	if JitterInterval(0) != 0 {
		t.Fatalf("JitterInterval(0) = %v, want 0", JitterInterval(0))
	}
}
