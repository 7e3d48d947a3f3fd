package fleet

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"exterminator/internal/cumulative"
	"exterminator/internal/fleet/codec"
	"exterminator/internal/patch"
	"exterminator/internal/report"
	"exterminator/internal/site"
	"exterminator/internal/telemetry"
	"exterminator/internal/triage"
)

// Client talks to a fleet aggregation server. It is safe for concurrent
// use. The zero value is not usable; call NewClient.
//
// Observation batches go up as binary v2 frames, gzip-compressed
// (Content-Encoding: gzip) past v2GzipMinBytes; the other uploads
// (reports, admin requests) are gzipped JSON. Patch and delta polls ask
// for v2 frames.
type Client struct {
	id     string
	token  string
	hc     *http.Client
	logger *slog.Logger
	m      *clientMetrics

	mu sync.Mutex
	// bases are the server base URLs in failover order; active indexes
	// the one requests currently go to. A transport failure or a 503
	// (a coordinator standing by) rotates to the next base and sticks —
	// millions of pollers must not hammer a dead primary on every poll.
	bases  []string
	active int
	// lastEpoch is the highest server incarnation seen by any patch
	// poll. Epochs are ordered across failovers (a promoted standby
	// takes an epoch above its predecessor's), so a response stamped
	// with a *lower* epoch comes from a zombie primary and is rejected;
	// a *higher* epoch means the server is a new incarnation whose
	// version numbering restarted, so the client resyncs from 0.
	lastEpoch uint64
	// etag and lastVersion are the patch-poll cache validator: the
	// ETag of the last 200 patch response and the version it carried.
	// Polls from that version revalidate with If-None-Match; a 304
	// answers "nothing new" without a body.
	etag        string
	lastVersion uint64
}

// clientMetrics is the upload-side instrument set, registered when the
// embedding process hands the client a registry (SetMetrics). Nil on
// clients that never did — every touch point is nil-guarded.
type clientMetrics struct {
	pushes     *telemetry.Counter
	retries    *telemetry.Counter
	backoffSec *telemetry.Counter
	errors     *telemetry.Counter
	notMod     *telemetry.Counter
	failovers  *telemetry.Counter
	pushSec    *telemetry.Histogram
}

func newClientMetrics(reg *telemetry.Registry) *clientMetrics {
	return &clientMetrics{
		pushes: reg.Counter("fleet_client_pushes_total",
			"Observation batch uploads attempted (each counted once, however many 429 retries it took)."),
		retries: reg.Counter("fleet_client_retries_total",
			"Rate-limited (429) upload deliveries retried after a Retry-After wait."),
		backoffSec: reg.Counter("fleet_client_backoff_seconds_total",
			"Total seconds spent sleeping on Retry-After backoff."),
		errors: reg.Counter("fleet_client_push_errors_total",
			"Observation uploads that ultimately failed (after retries)."),
		notMod: reg.Counter("fleet_client_patch_not_modified_total",
			"Patch polls answered 304 Not Modified off the If-None-Match validator (no body shipped)."),
		failovers: reg.Counter("fleet_client_failovers_total",
			"Requests rotated to a fallback base after a transport failure or 503."),
		pushSec: reg.Histogram("fleet_client_push_seconds",
			"Observation upload round-trip latency, including 429 backoff.",
			telemetry.DefBuckets),
	}
}

// NewClient returns a client for the server at base (e.g.
// "http://patches.example.com:7077"). id is an opaque installation
// identifier sent with uploads; empty is fine.
func NewClient(base, id string) *Client {
	return &Client{
		bases:  []string{strings.TrimRight(base, "/")},
		id:     id,
		hc:     &http.Client{Timeout: 15 * time.Second},
		logger: slog.New(slog.DiscardHandler),
	}
}

// SetFallbacks appends failover base URLs tried — in order, sticky —
// when the active base fails at the transport level or answers 503
// (a warm standby gating its read path). Point a fleet of pollers at
// the primary coordinator with its standby as fallback and a failover
// needs no client reconfiguration.
func (c *Client) SetFallbacks(bases ...string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, b := range bases {
		if b = strings.TrimRight(b, "/"); b != "" {
			c.bases = append(c.bases, b)
		}
	}
}

// Base returns the base URL requests currently go to: the first base,
// or the fallback a failover rotated to.
func (c *Client) Base() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bases[c.active]
}

// Epoch returns the highest server epoch a patch poll has integrated:
// the incarnation whose numbering the last polled version belongs to.
func (c *Client) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastEpoch
}

// numBases returns the failover set's size.
func (c *Client) numBases() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.bases)
}

// rotateFrom advances to the next base if failed is still the active
// one (concurrent requests that both fail rotate once, not twice).
func (c *Client) rotateFrom(failed string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.bases) > 1 && c.bases[c.active] == failed {
		c.active = (c.active + 1) % len(c.bases)
	}
}

// SetLogger attaches a structured logger; by default the client is
// silent. Each rate-limited retry is logged with the attempt count, the
// server's Retry-After, and the batch and correlation IDs, so a stalled
// uploader explains itself.
func (c *Client) SetLogger(l *slog.Logger) {
	if l == nil {
		l = slog.New(slog.DiscardHandler)
	}
	c.logger = l.With("component", "fleet-client")
}

// SetMetrics registers the client's upload instruments (push latency,
// retry and backoff counters) into reg. Without it the client records
// nothing.
func (c *Client) SetMetrics(reg *telemetry.Registry) {
	if reg != nil {
		c.m = newClientMetrics(reg)
	}
}

// SetToken attaches a shared ingest token, sent as `Authorization:
// Bearer <token>` with every request (servers started with -token reject
// unauthenticated writes).
func (c *Client) SetToken(token string) { c.token = token }

// SetWireV2 does nothing.
//
// Deprecated: the binary v2 frame is the only wire on uploads and polls.
// The benchmark module (bench/) still calls this; the next change to the
// benchmark drops those calls, and then this shim is deleted.
func (c *Client) SetWireV2(bool) {}

// PushBatchContext uploads a prepared batch verbatim as a v2 frame. The
// batch must be stamped with a BatchID (codec.BatchID): servers reject
// unstamped batches, and the ID is what makes retries of the same batch
// idempotent against their dedup window. The batch's Client field is
// filled from the client's id when empty.
func (c *Client) PushBatchContext(ctx context.Context, b *codec.Batch) (*IngestReply, error) {
	if b == nil || b.Snapshot == nil {
		return nil, fmt.Errorf("fleet: nil batch")
	}
	if b.Client == "" {
		b.Client = c.id
	}
	buf := codec.GetBuffer()
	pb, err := gzipBody(codec.EncodeBatch(buf, b), codec.ContentTypeV2, v2GzipMinBytes)
	codec.PutBuffer(buf)
	if err != nil {
		return nil, fmt.Errorf("fleet: compress /v1/observations: %w", err)
	}
	body, err := c.post(ctx, "/v1/observations", b.BatchID, pb)
	reply, err := unmarshalJSON[IngestReply](body, err, "/v1/observations reply")
	if err != nil {
		if c.m != nil {
			c.m.errors.Inc()
		}
		return nil, err
	}
	return reply, nil
}

// ID returns the installation identifier uploads are attributed to.
func (c *Client) ID() string { return c.id }

// PushReport uploads a human-readable bug report.
func (c *Client) PushReport(r *report.Report) error {
	return c.PushReportContext(context.Background(), r)
}

// PushReportContext is PushReport honoring ctx. The report is redacted
// in place before upload (report.Redact): relative paths only, no
// PII/token-shaped strings, capped lists — nothing leaves the client
// that the fleet's retention and triage tiers must not see.
func (c *Client) PushReportContext(ctx context.Context, r *report.Report) error {
	_, err := c.postJSON(ctx, "/v1/reports", report.Redact(r))
	return err
}

// Patches fetches the patch entries added after version since, returning
// the delta set and the server's current version. Merging the delta into
// a local set with Set.Merge is always safe: patches compose by maxima.
//
// Versions are only ordered within one server incarnation; if the server
// failed over or restarted since this client's previous poll (its epoch
// rose), the carried-over since would silently skip rederived patches,
// so the client transparently resyncs from version 0 instead. A response
// stamped with a *lower* epoch than the highest this client has seen
// comes from a deposed primary still answering; the client rotates to
// its fallback bases and, if every base is stale, fails with
// *StalePrimaryError rather than regress the patch log. Callers that
// persist since across their *own* restarts should poll once with
// since=0 after loading it.
func (c *Client) Patches(since uint64) (*patch.Set, uint64, error) {
	return c.PatchesContext(context.Background(), since)
}

// PatchesContext is Patches honoring ctx. Polls revalidate with the last
// response's ETag; a 304 Not Modified returns an empty delta and the
// cached version without shipping a body.
func (c *Client) PatchesContext(ctx context.Context, since uint64) (*patch.Set, uint64, error) {
	c.mu.Lock()
	inm := ""
	if c.etag != "" && since >= c.lastVersion {
		inm = c.etag
	}
	lastEpoch := c.lastEpoch
	c.mu.Unlock()

	w, etag, err := c.fetchPatches(ctx, since, inm)
	if err != nil {
		return nil, 0, err
	}
	if w == nil { // 304: nothing changed since the validator was minted
		if c.m != nil {
			c.m.notMod.Inc()
		}
		c.mu.Lock()
		v := c.lastVersion
		c.mu.Unlock()
		return patch.New(), v, nil
	}
	// Reject stale primaries: rotate away from any base answering with
	// an epoch below the highest we have integrated — merging its
	// response could not regress the set (patches compose by maxima),
	// but trusting its *version* would wedge the poll cursor.
	for tries := 1; w.Epoch != 0 && lastEpoch != 0 && w.Epoch < lastEpoch; tries++ {
		if tries >= c.numBases() {
			return nil, 0, &StalePrimaryError{Seen: lastEpoch, Got: w.Epoch}
		}
		c.rotateFrom(c.Base())
		if c.m != nil {
			c.m.failovers.Inc()
		}
		if w, etag, err = c.fetchPatches(ctx, since, ""); err != nil {
			return nil, 0, err
		}
		if w == nil {
			return nil, 0, fmt.Errorf("fleet: get patches: unexpected 304 without validator")
		}
	}
	if since > 0 && lastEpoch != 0 && w.Epoch > lastEpoch {
		// New incarnation: its version numbering restarted, so our
		// cursor means nothing to it. Resync from 0.
		if w, etag, err = c.fetchPatches(ctx, 0, ""); err != nil {
			return nil, 0, err
		}
		if w == nil {
			return nil, 0, fmt.Errorf("fleet: get patches: unexpected 304 without validator")
		}
	}
	c.mu.Lock()
	if w.Epoch > c.lastEpoch {
		c.lastEpoch = w.Epoch
	}
	c.etag, c.lastVersion = etag, w.Version
	c.mu.Unlock()
	return w.Set(), w.Version, nil
}

// fetchPatches issues one patch poll. A nil PatchSet with nil error
// reports 304 Not Modified (only possible when ifNoneMatch was sent).
func (c *Client) fetchPatches(ctx context.Context, since uint64, ifNoneMatch string) (*codec.PatchSet, string, error) {
	hdr := map[string]string{"Accept": codec.ContentTypeV2}
	if ifNoneMatch != "" {
		hdr["If-None-Match"] = ifNoneMatch
	}
	resp, reqID, err := c.get(ctx, fmt.Sprintf("/v1/patches?since=%d", since), hdr)
	if err != nil {
		return nil, "", fmt.Errorf("fleet: get patches (request %s): %w", reqID, err)
	}
	defer drain(resp)
	if resp.StatusCode == http.StatusNotModified && ifNoneMatch != "" {
		return nil, "", nil
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", httpError("get patches (request "+reqID+")", resp)
	}
	data, err := readBody(resp, "patch set")
	if err != nil {
		return nil, "", err
	}
	w, err := codec.DecodePatches(data)
	if err != nil {
		return nil, "", err
	}
	return w, resp.Header.Get("ETag"), nil
}

// Lease fetches the server's lease state (GET /v1/lease): its failover
// epoch and whether it is currently primary. Standby coordinators probe
// their primary with this; operators use it to verify a topology.
func (c *Client) Lease(ctx context.Context) (*LeaseReply, error) {
	return getJSON[LeaseReply](ctx, c, "/v1/lease", "get lease")
}

// Status fetches aggregate server statistics.
func (c *Client) Status() (*StatusReply, error) {
	return getJSON[StatusReply](context.Background(), c, "/v1/status", "get status")
}

// TriageRankings fetches the server's paginated triage ranking (GET
// /v1/triage): the fleet's top defect clusters, pooled-Bayes first.
func (c *Client) TriageRankings(ctx context.Context, offset, limit int) (*triage.RankingReply, error) {
	body, err := c.TriagePage(ctx, offset, limit)
	return unmarshalJSON[triage.RankingReply](body, err, "triage")
}

// TriagePage fetches one page of the server's triage ranking (GET
// /v1/triage) as the server wrote it: a RankingReply's JSON, not yet
// checked. TriageRankings decodes it; a cache re-serves the bytes as
// they are.
func (c *Client) TriagePage(ctx context.Context, offset, limit int) ([]byte, error) {
	body, _, err := c.getBody(ctx, fmt.Sprintf("/v1/triage?offset=%d&limit=%d", offset, limit), "get triage", nil)
	return body, err
}

// Deltas polls the server's evidence journal: everything absorbed after
// journal sequence number since, batch after batch in journal order (see
// codec.Delta). This is the feed cluster coordinators (internal/cluster)
// mirror partitions with; ordinary installations never need it.
func (c *Client) Deltas(ctx context.Context, since uint64) (*codec.Delta, error) {
	data, what, err := c.getBody(ctx, fmt.Sprintf("/v1/deltas?since=%d", since), "get deltas", map[string]string{"Accept": codec.ContentTypeV2})
	if err != nil {
		return nil, err
	}
	d, err := codec.DecodeDelta(data)
	if err != nil {
		return nil, fmt.Errorf("fleet: decode %s: %w", what, err)
	}
	return d, nil
}

// EvictKeys drains a key set from the server (POST /v1/evict): the keys'
// evidence is atomically removed and returned; counters additionally
// drains the node's run totals (for a node leaving the cluster). token
// is the caller's idempotency handle — re-evicting with the same token
// returns the original drain's evidence even if the store has since
// changed. The answer is a batch frame stamped with token, decoded with
// every codec check. This is the partition half of a cluster rebalance;
// ordinary installations never need it.
func (c *Client) EvictKeys(ctx context.Context, token string, keys []site.ID, counters bool) (*cumulative.Snapshot, error) {
	body, err := c.postJSON(ctx, "/v1/evict", EvictRequest{Token: token, Keys: keys, Counters: counters})
	if err != nil {
		return nil, err
	}
	b, err := codec.DecodeBatch(body)
	if err != nil {
		return nil, fmt.Errorf("fleet: decode /v1/evict reply: %w", err)
	}
	if b.BatchID != token || b.Snapshot == nil {
		return nil, fmt.Errorf("fleet: /v1/evict reply is not token %q's drain (batch %q, snapshot %t)", token, b.BatchID, b.Snapshot != nil)
	}
	return b.Snapshot, nil
}

// AnnounceRing raises the server's required cluster membership version
// (POST /v1/ring); versioned uploads split under an older ring are
// rejected from then on. The requirement never regresses — the reply
// carries the version now in force.
func (c *Client) AnnounceRing(ctx context.Context, version uint64) (*RingReply, error) {
	body, err := c.postJSON(ctx, "/v1/ring", RingUpdate{Version: version})
	return unmarshalJSON[RingReply](body, err, "/v1/ring reply")
}

// Membership fetches a coordinator's current cluster topology (GET
// /v1/membership): the membership version and partition base URLs a
// router should split uploads across.
func (c *Client) Membership(ctx context.Context) (*MembershipReply, error) {
	return getJSON[MembershipReply](ctx, c, "/v1/membership", "get membership")
}

// getJSON fetches path and decodes its 200 answer as a JSON T. what
// names the request in errors ("get lease").
func getJSON[T any](ctx context.Context, c *Client, path, what string) (*T, error) {
	body, what, err := c.getBody(ctx, path, what, nil)
	return unmarshalJSON[T](body, err, what)
}

// unmarshalJSON decodes a whole reply body, read with err, as one JSON
// T; an error from the read passes through. Unlike a streaming decoder,
// json.Unmarshal refuses anything after the value.
func unmarshalJSON[T any](body []byte, err error, what string) (*T, error) {
	if err != nil {
		return nil, err
	}
	v := new(T)
	if err := json.Unmarshal(body, v); err != nil {
		return nil, fmt.Errorf("fleet: decode %s: %w", what, err)
	}
	return v, nil
}

// getBody fetches path and reads its 200 answer whole (readBody). what
// names the request in errors ("get lease"); getBody returns it with the
// request's X-Request-ID appended, for the caller's decode errors.
func (c *Client) getBody(ctx context.Context, path, what string, header map[string]string) ([]byte, string, error) {
	resp, reqID, err := c.get(ctx, path, header)
	what += " (request " + reqID + ")"
	if err != nil {
		return nil, what, fmt.Errorf("fleet: %s: %w", what, err)
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, what, httpError(what, resp)
	}
	body, err := readBody(resp, what)
	return body, what, err
}

// get issues a read request for path (e.g. "/v1/patches?since=3"),
// stamping it with a fresh X-Request-ID — the read-path half of the
// correlation contract: uploads have carried one since PR 6, but a
// failed *fetch* could not be grepped across tiers. The ID is logged
// here and returned so callers thread it into their errors.
func (c *Client) get(ctx context.Context, path string, header map[string]string) (resp *http.Response, reqID string, err error) {
	reqID = telemetry.NewRequestID()
	attempts := c.numBases()
	for attempt := 0; ; attempt++ {
		base := c.Base()
		req, rerr := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
		if rerr != nil {
			return nil, reqID, rerr
		}
		req.Header.Set(RequestIDHeader, reqID)
		if c.token != "" {
			req.Header.Set("Authorization", "Bearer "+c.token)
		}
		for k, v := range header {
			req.Header.Set(k, v)
		}
		resp, err = c.hc.Do(req)
		switch {
		case err != nil:
			c.logger.Warn("fetch failed", "path", path, "base", base, "requestId", reqID, "error", err)
		case resp.StatusCode == http.StatusServiceUnavailable && attempt+1 < attempts:
			// A standby coordinator gates its read path with 503; the
			// promoted peer is one rotation away.
			drain(resp)
			err = fmt.Errorf("fleet: %s unavailable (503)", base)
			c.logger.Warn("fetch got 503; rotating base", "path", path, "base", base, "requestId", reqID)
		default:
			c.logger.Debug("fetch", "path", path, "status", resp.StatusCode, "requestId", reqID)
			return resp, reqID, nil
		}
		if attempt+1 >= attempts {
			return nil, reqID, err
		}
		c.rotateFrom(base)
		if c.m != nil {
			c.m.failovers.Inc()
		}
	}
}

// StaleRingError reports a 409 stale-ring rejection: the upload was
// split under an older cluster membership than the partition requires.
// The evidence was not absorbed; the caller must refresh membership
// (coordinator GET /v1/membership, cluster.Ring.SetMembership) and
// re-split its delta before retrying. Required is the partition's
// current membership version.
type StaleRingError struct {
	Required uint64
}

func (e *StaleRingError) Error() string {
	return fmt.Sprintf("fleet: upload split under a stale ring (partition requires membership version %d)", e.Required)
}

// StalePrimaryError reports that every configured base answered a patch
// poll with an epoch below the highest this client has already
// integrated — the failover's deposed primary is still serving (and is
// the only thing serving). The client must not adopt its version
// numbering; poll again once the topology heals.
type StalePrimaryError struct {
	// Seen is the highest epoch this client has integrated; Got is the
	// stale epoch the server answered with.
	Seen, Got uint64
}

func (e *StalePrimaryError) Error() string {
	return fmt.Sprintf("fleet: stale primary: server epoch %d is below the highest epoch seen %d", e.Got, e.Seen)
}

// Rate-limit retry bounds: a 429 with Retry-After is obeyed up to
// maxPushAttempts deliveries, each wait clamped to maxRetryAfterWait so
// a hostile or misconfigured server cannot park the client forever. The
// waits are context-aware — cancellation aborts immediately.
const (
	maxPushAttempts   = 4
	maxRetryAfterWait = 10 * time.Second
)

// postJSON encodes body as gzipped JSON and posts it to path (see post).
func (c *Client) postJSON(ctx context.Context, path string, body any) ([]byte, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, fmt.Errorf("fleet: encode %s: %w", path, err)
	}
	pb, err := gzipBody(raw, "application/json", 0)
	if err != nil {
		return nil, fmt.Errorf("fleet: compress %s: %w", path, err)
	}
	return c.post(ctx, path, "", pb)
}

// gzWriterPool recycles upload gzip.Writers: each carries ~hundreds of
// KB of deflate state, and a fleet client pushes on a steady cadence —
// re-allocating one per push was measurable allocator pressure.
var gzWriterPool = sync.Pool{
	New: func() any { return gzip.NewWriter(io.Discard) },
}

// v2GzipMinBytes is the frame size below which v2 uploads skip gzip:
// the binary encoding is already dense, and for small frames the
// deflate overhead (CPU both ways plus header bytes) beats any saving.
const v2GzipMinBytes = 1024

// postBody is one encoded request body plus the headers that describe
// it.
type postBody struct {
	payload     []byte
	contentType string
	gzipped     bool
}

// gzipBody compresses raw into a request body of contentType, or copies
// it uncompressed when it is shorter than minBytes. raw may alias a
// pooled buffer: the body never does.
func gzipBody(raw []byte, contentType string, minBytes int) (postBody, error) {
	if len(raw) < minBytes {
		return postBody{payload: append([]byte(nil), raw...), contentType: contentType}, nil
	}
	var zbuf bytes.Buffer
	zw := gzWriterPool.Get().(*gzip.Writer)
	zw.Reset(&zbuf)
	_, werr := zw.Write(raw)
	cerr := zw.Close()
	gzWriterPool.Put(zw)
	if err := errors.Join(werr, cerr); err != nil {
		return postBody{}, err
	}
	return postBody{payload: zbuf.Bytes(), contentType: contentType, gzipped: true}, nil
}

// post sends an encoded body to path and returns the 200 answer's body,
// read whole by readBody. Every delivery is stamped with one
// X-Request-ID, held constant across retries of the same payload so all
// server-side log lines for this upload share a single correlation
// handle; batchID rides the retry log lines. Rate-limited requests (429,
// which the server sends with Retry-After and *without* having
// processed the body) are retried after the advertised delay, bounded by
// maxPushAttempts; a transport failure or 503 rotates to the next base;
// a 409 stale-ring rejection surfaces as a *StaleRingError.
func (c *Client) post(ctx context.Context, path, batchID string, pb postBody) ([]byte, error) {
	reqID := telemetry.NewRequestID()
	if path == "/v1/observations" && c.m != nil {
		c.m.pushes.Inc()
		defer c.m.pushSec.ObserveSince(time.Now())
	}
	failovers := 0
	for attempt := 1; ; attempt++ {
		base := c.Base()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(pb.payload))
		if err != nil {
			return nil, fmt.Errorf("fleet: post %s: %w", path, err)
		}
		req.Header.Set("Content-Type", pb.contentType)
		req.Header.Set(RequestIDHeader, reqID)
		if c.token != "" {
			req.Header.Set("Authorization", "Bearer "+c.token)
		}
		if pb.gzipped {
			req.Header.Set("Content-Encoding", "gzip")
		}
		resp, err := c.hc.Do(req)
		if err != nil || resp.StatusCode == http.StatusServiceUnavailable {
			// Transport failure or a standby gating writes: rotate to the
			// next base. Failovers don't consume 429 delivery attempts.
			if err == nil {
				drain(resp)
				err = fmt.Errorf("%s unavailable (503)", base)
			}
			failovers++
			if failovers >= c.numBases() {
				return nil, fmt.Errorf("fleet: post %s: %w", path, err)
			}
			c.rotateFrom(base)
			if c.m != nil {
				c.m.failovers.Inc()
			}
			c.logger.Warn("push failed; rotating base",
				"path", path, "base", base, "requestId", reqID, "error", err)
			attempt--
			continue
		}
		if resp.StatusCode == http.StatusTooManyRequests && attempt < maxPushAttempts {
			wait := retryAfter(resp)
			drain(resp)
			c.logger.Warn("push rate-limited; backing off",
				"path", path,
				"attempt", attempt,
				"retryAfterSec", wait.Seconds(),
				"batchId", batchID,
				"requestId", reqID)
			if c.m != nil {
				c.m.retries.Inc()
				c.m.backoffSec.Add(wait.Seconds())
			}
			select {
			case <-ctx.Done():
				return nil, fmt.Errorf("fleet: post %s: %w", path, ctx.Err())
			case <-time.After(wait):
			}
			continue
		}
		defer drain(resp)
		if resp.StatusCode == http.StatusConflict {
			var ir IngestReply
			raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			if json.Unmarshal(raw, &ir) == nil && ir.StaleRing {
				return nil, &StaleRingError{Required: ir.RingVersion}
			}
			return nil, fmt.Errorf("fleet: post %s: %s: %s", path, resp.Status, strings.TrimSpace(string(raw)))
		}
		if resp.StatusCode != http.StatusOK {
			return nil, httpError("post "+path, resp)
		}
		return readBody(resp, path+" reply")
	}
}

// retryAfter parses a 429's Retry-After seconds, defaulting to one
// second and clamping to maxRetryAfterWait.
func retryAfter(resp *http.Response) time.Duration {
	wait := time.Second
	if v, err := strconv.Atoi(strings.TrimSpace(resp.Header.Get("Retry-After"))); err == nil && v > 0 {
		wait = time.Duration(v) * time.Second
	}
	if wait > maxRetryAfterWait {
		wait = maxRetryAfterWait
	}
	return wait
}

func httpError(op string, resp *http.Response) error {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	return fmt.Errorf("fleet: %s: %s: %s", op, resp.Status, strings.TrimSpace(string(msg)))
}

func drain(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}
