package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"

	"exterminator/internal/cumulative"
	"exterminator/internal/fleet"
	"exterminator/internal/fleet/codec"
	"exterminator/internal/site"
	"exterminator/internal/telemetry"
)

// Router is the cluster-aware upload client: it splits every observation
// batch along the ring and pushes each piece to the partition that owns
// those keys. Node names are partition base URLs. Safe for concurrent
// use.
type Router struct {
	ring    *Ring
	id      string
	mu      sync.Mutex
	clients map[string]*fleet.Client
	token   string
	logger  *slog.Logger
	reg     *telemetry.Registry
}

// ErrNoMembers reports a routing attempt against a ring with no
// members: there is no partition to own any key, so nothing can be
// split or pushed. It guards the degenerate-ring footgun where
// Ring.Owner returns "" and a piece would otherwise be pushed to a
// client built for an empty base URL.
var ErrNoMembers = errors.New("cluster: ring has no members")

// NewRouter returns a router over the given partition base URLs. id is
// the installation identifier forwarded with every upload.
func NewRouter(id string, partitions ...string) (*Router, error) {
	if len(partitions) == 0 {
		return nil, errors.New("cluster: router needs at least one partition")
	}
	return &Router{
		ring:    NewRing(0, partitions...),
		id:      id,
		clients: make(map[string]*fleet.Client),
	}, nil
}

// Ring exposes the router's ring (membership changes, diagnostics).
func (rt *Router) Ring() *Ring { return rt.ring }

// SetToken attaches a shared ingest token to every partition client.
func (rt *Router) SetToken(token string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.token = token
	for _, c := range rt.clients {
		c.SetToken(token)
	}
}

// SetLogger propagates a structured logger to every partition client —
// existing and lazily created alike — so each 429/retry logs with its
// batch and correlation IDs.
func (rt *Router) SetLogger(l *slog.Logger) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.logger = l
	for _, c := range rt.clients {
		c.SetLogger(l)
	}
}

// SetMetrics registers every partition client's upload instruments into
// reg (the fleet_client_* family; all partitions share the series).
func (rt *Router) SetMetrics(reg *telemetry.Registry) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.reg = reg
	for _, c := range rt.clients {
		c.SetMetrics(reg)
	}
}

// SetWireV2 does nothing.
//
// Deprecated: the binary v2 frame is the only wire on uploads. The
// benchmark module (bench/) still calls this; the next change to the
// benchmark drops those calls, and then this shim is deleted.
func (rt *Router) SetWireV2(bool) {}

// client returns (creating lazily) the fleet client for a partition.
func (rt *Router) client(node string) *fleet.Client {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	c := rt.clients[node]
	if c == nil {
		c = fleet.NewClient(node, rt.id)
		if rt.token != "" {
			c.SetToken(rt.token)
		}
		if rt.logger != nil {
			c.SetLogger(rt.logger)
		}
		if rt.reg != nil {
			c.SetMetrics(rt.reg)
		}
		rt.clients[node] = c
	}
	return c
}

// split partitions one snapshot under a consistent (version, ownership)
// pair: if a membership change lands mid-split, the split is redone so
// the stamped version always matches the topology the pieces were routed
// by.
func (rt *Router) split(s *cumulative.Snapshot) (uint64, map[string]*cumulative.Snapshot, error) {
	for {
		version := rt.ring.Version()
		if rt.ring.Len() == 0 {
			return 0, nil, ErrNoMembers
		}
		parts := SplitSnapshot(rt.ring, s)
		if rt.ring.Version() == version {
			return version, parts, nil
		}
	}
}

// Piece is one ring-partitioned share of an upload batch, stamped with
// its own content-addressed batch ID so partition retries stay
// idempotent: re-pushing a piece after a lost ack is recognized by that
// partition's dedup window and acknowledged without re-absorbing.
type Piece struct {
	// Node is the partition base URL that owns the piece's keys.
	Node string
	// Batch is the stamped upload body.
	Batch *fleet.ObservationBatch
}

// SplitBatch splits delta along the ring (SplitSnapshot) and stamps each
// piece with codec.BatchID derived from the client id, the delta's
// lineage, the upload watermark position the delta was cut at (wmRuns,
// wmObs — see History.UploadedCounts), and the piece's content, plus the
// membership version the split was routed under. Retrying a stored piece
// verbatim therefore reproduces its ID exactly, while any newly cut
// delta gets fresh IDs. Pieces are returned in ring-node map order;
// callers push them with PushPiece and advance their watermark per
// acknowledged piece. It returns ErrNoMembers on an empty ring instead
// of routing pieces to a node named "".
func (rt *Router) SplitBatch(wmRuns, wmObs int, delta *cumulative.Snapshot) ([]Piece, error) {
	version, parts, err := rt.split(delta)
	if err != nil {
		return nil, err
	}
	pieces := make([]Piece, 0, len(parts))
	for node, part := range parts {
		pieces = append(pieces, Piece{
			Node: node,
			Batch: &fleet.ObservationBatch{
				Client:      rt.id,
				Snapshot:    part,
				BatchID:     codec.BatchID(rt.id, delta.Lineage, wmRuns, wmObs, part),
				RingVersion: version,
			},
		})
	}
	return pieces, nil
}

// PushPiece uploads one stamped piece to its partition.
func (rt *Router) PushPiece(ctx context.Context, p Piece) (*fleet.IngestReply, error) {
	reply, err := rt.client(p.Node).PushBatchContext(ctx, p.Batch)
	if err != nil {
		return nil, fmt.Errorf("cluster: push to %s: %w", p.Node, err)
	}
	return reply, nil
}

// SplitSnapshot partitions one snapshot by ring ownership: overflow
// evidence, pad hints and the site set split by allocation site;
// dangling evidence and deferral hints by their allocation side — the
// same striping fleet.Store uses, so each key lands on exactly one
// partition. Run counters ride with a single deterministic piece (the
// owner of the batch's lowest key) so the cluster-wide totals the
// coordinator sums count every run exactly once. An empty ring returns
// nil — callers that push (the Router) surface ErrNoMembers instead of
// routing to a node named "".
func SplitSnapshot(r *Ring, s *cumulative.Snapshot) map[string]*cumulative.Snapshot {
	if r.Len() == 0 {
		return nil
	}
	nodes := r.Nodes()
	idx := make(map[string]int, len(nodes))
	for i, n := range nodes {
		idx[n] = i
	}
	// Two passes: resolve every element's owner once into one scratch
	// array and tally per node, then allocate each part's slices at their
	// exact final sizes — the fill pass never re-grows an append.
	nSites, nOver := len(s.Sites), len(s.Overflow)
	nDang, nPads := len(s.Dangling), len(s.PadHints)
	nDefs := len(s.DeferralHints)
	own := make([]int, nSites+nOver+nDang+nPads+nDefs)
	siteOwn := own[:nSites]
	overOwn := own[nSites : nSites+nOver]
	dangOwn := own[nSites+nOver : nSites+nOver+nDang]
	padOwn := own[nSites+nOver+nDang : nSites+nOver+nDang+nPads]
	defOwn := own[nSites+nOver+nDang+nPads:]
	type tally struct{ sites, over, dang, pads, defs int }
	tallies := make([]tally, len(nodes))
	for i, id := range s.Sites {
		j := idx[r.Owner(id)]
		siteOwn[i] = j
		tallies[j].sites++
	}
	for i, so := range s.Overflow {
		j := idx[r.Owner(so.Site)]
		overOwn[i] = j
		tallies[j].over++
	}
	for i, po := range s.Dangling {
		j := idx[r.Owner(po.Alloc)]
		dangOwn[i] = j
		tallies[j].dang++
	}
	for i, h := range s.PadHints {
		j := idx[r.Owner(h.Site)]
		padOwn[i] = j
		tallies[j].pads++
	}
	for i, h := range s.DeferralHints {
		j := idx[r.Owner(h.Alloc)]
		defOwn[i] = j
		tallies[j].defs++
	}
	parts := make(map[string]*cumulative.Snapshot)
	slot := make([]*cumulative.Snapshot, len(nodes))
	part := func(j int) *cumulative.Snapshot {
		p := slot[j]
		if p == nil {
			t := tallies[j]
			p = &cumulative.Snapshot{C: s.C, P: s.P}
			if t.sites > 0 {
				p.Sites = make([]site.ID, 0, t.sites)
			}
			if t.over > 0 {
				p.Overflow = make([]cumulative.SiteObservations, 0, t.over)
			}
			if t.dang > 0 {
				p.Dangling = make([]cumulative.PairObservations, 0, t.dang)
			}
			if t.pads > 0 {
				p.PadHints = make([]cumulative.PadHint, 0, t.pads)
			}
			if t.defs > 0 {
				p.DeferralHints = make([]cumulative.DeferralHint, 0, t.defs)
			}
			slot[j] = p
			parts[nodes[j]] = p
		}
		return p
	}
	for i, id := range s.Sites {
		p := part(siteOwn[i])
		p.Sites = append(p.Sites, id)
	}
	for i, so := range s.Overflow {
		p := part(overOwn[i])
		p.Overflow = append(p.Overflow, so)
	}
	for i, po := range s.Dangling {
		p := part(dangOwn[i])
		p.Dangling = append(p.Dangling, po)
	}
	for i, h := range s.PadHints {
		p := part(padOwn[i])
		p.PadHints = append(p.PadHints, h)
	}
	for i, h := range s.DeferralHints {
		p := part(defOwn[i])
		p.DeferralHints = append(p.DeferralHints, h)
	}
	counterNode := counterOwner(r, s)
	if counterNode != "" {
		p := part(idx[counterNode])
		p.Runs, p.FailedRuns, p.CorruptRuns = s.Runs, s.FailedRuns, s.CorruptRuns
	}
	return parts
}

// counterOwner picks the partition that carries a batch's run counters:
// the owner of the batch's lowest evidence key, falling back to the
// first ring member for batches with counters but no evidence.
func counterOwner(r *Ring, s *cumulative.Snapshot) string {
	best := site.ID(0)
	have := false
	consider := func(id site.ID) {
		if !have || id < best {
			best, have = id, true
		}
	}
	for _, id := range s.Sites {
		consider(id)
	}
	for _, so := range s.Overflow {
		consider(so.Site)
	}
	for _, po := range s.Dangling {
		consider(po.Alloc)
	}
	for _, h := range s.PadHints {
		consider(h.Site)
	}
	for _, h := range s.DeferralHints {
		consider(h.Alloc)
	}
	if have {
		return r.Owner(best)
	}
	if nodes := r.Nodes(); len(nodes) > 0 {
		return nodes[0]
	}
	return ""
}
