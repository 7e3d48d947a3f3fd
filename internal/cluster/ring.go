// Package cluster scales the fleet aggregation service horizontally: a
// consistent-hash ring partitions the evidence store by call site across
// N independent fleetd instances, a router splits every observation
// batch along the ring, and a coordinator/merge tier mirrors each
// partition's evidence journal (GET /v1/deltas), reruns the Bayesian
// hypothesis test incrementally over the merged pool, and publishes a
// fleet-wide versioned patch log that fleet.Client and Sink consumers
// poll exactly as they would a single fleetd. A single fleetd is the
// one-partition case: Sink uploads to it through a one-node ring.
//
// Topology:
//
//	installations ──Router──▶ partition fleetd × N  ──deltas──▶ Coordinator ──patches──▶ installations
//
// Evidence keys (allocation sites; (alloc, free) pairs key by their
// alloc side, like fleet.Store's stripes) live on exactly one partition,
// so the coordinator can union partition evidence without deduplication.
// Membership changes move only the keys owned by the added or removed
// node — the consistent-hash property the ring tests pin down — and the
// coordinator's Rebalance moves those keys' accumulated evidence with
// them (drain via POST /v1/evict, backfill through the exactly-once
// batch path, two-phase journal for crash safety), so a moved key's
// observations never stay split between its old and new owner. Writers
// stamp uploads with the ring's membership version; partitions reject
// stale splits, and Sink/Router re-adopt the topology from the
// coordinator's GET /v1/membership.
//
// Uploads are exactly-once end to end: Router.SplitBatch stamps every
// per-partition piece with its own content-addressed batch ID, Sink
// retries unacknowledged pieces verbatim (and streams mid-run as an
// engine.StreamingSink), and each partition's dedup window absorbs a
// piece at most once. The Coordinator persists its partition mirrors
// and journal cursors (SaveSnapshot/LoadSnapshot), so a restarted merge
// tier resumes with cheap deltas instead of full resyncs.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"sync"

	"exterminator/internal/site"
)

// DefaultVirtualNodes is the number of ring points per node. More points
// smooth the key distribution across heterogeneous node counts at the
// cost of a larger (still tiny) sorted array.
const DefaultVirtualNodes = 64

// Ring is a consistent-hash ring over partition node names. It is safe
// for concurrent use; membership changes rebuild the point array.
//
// Every membership change bumps a monotonically increasing membership
// version. Writers stamp the version on the pieces they route
// (Router.SplitBatch / codec.Batch.RingVersion) and partitions
// reject pieces from a stale ring, so a writer that missed a rebalance
// converges on the new topology instead of racing it — see
// docs/PROTOCOL.md "Membership versioning".
type Ring struct {
	mu      sync.RWMutex
	vnodes  int
	version uint64
	nodes   map[string]bool
	points  []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint32
	node string
}

// NewRing returns a ring with vnodes virtual nodes per member (<= 0
// means DefaultVirtualNodes) and the given initial members.
func NewRing(vnodes int, nodes ...string) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	r := &Ring{vnodes: vnodes, version: 1, nodes: make(map[string]bool)}
	for _, n := range nodes {
		r.nodes[n] = true
	}
	r.rebuild()
	return r
}

// Add inserts a node and bumps the membership version. Keys whose
// ownership changes move exclusively to the new node; no key moves
// between pre-existing nodes. Adding an existing member is a no-op (the
// version does not move).
func (r *Ring) Add(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.nodes[node] {
		return
	}
	r.nodes[node] = true
	r.version++
	r.rebuild()
}

// Remove deletes a node and bumps the membership version. Keys it owned
// redistribute to the surviving nodes; every other key keeps its owner.
// Removing a non-member is a no-op.
func (r *Ring) Remove(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.nodes[node] {
		return
	}
	delete(r.nodes, node)
	r.version++
	r.rebuild()
}

// Version returns the current membership version. Versions start at 1
// and only ever increase: local Add/Remove bump by one, SetMembership
// adopts a strictly newer announced version.
func (r *Ring) Version() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.version
}

// Membership returns the version and the sorted member list as one
// consistent pair.
func (r *Ring) Membership() (uint64, []string) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return r.version, out
}

// SetMembership adopts an externally announced topology (a coordinator's
// GET /v1/membership reply): the node set is replaced wholesale and the
// version adopted. Announcements at or below the current version are
// ignored — versions are monotonic, so a stale announcement can never
// roll a writer back onto an old topology. It reports whether the
// announcement was applied.
func (r *Ring) SetMembership(version uint64, nodes []string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if version <= r.version {
		return false
	}
	return r.setMembershipLocked(version, nodes)
}

// restoreMembership force-applies a persisted topology (coordinator
// snapshot restore), where the on-disk version is authoritative even
// against an equal in-memory one.
func (r *Ring) restoreMembership(version uint64, nodes []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if version < r.version {
		return
	}
	r.setMembershipLocked(version, nodes)
}

func (r *Ring) setMembershipLocked(version uint64, nodes []string) bool {
	r.nodes = make(map[string]bool, len(nodes))
	for _, n := range nodes {
		r.nodes[n] = true
	}
	r.version = version
	r.rebuild()
	return true
}

// rebuild recomputes the sorted point array. Point hashes depend only on
// (node name, vnode index), so the mapping is deterministic for a given
// membership set — two routers configured with the same nodes agree on
// every key, and re-adding a node restores its exact prior ownership.
func (r *Ring) rebuild() {
	r.points = r.points[:0]
	for node := range r.nodes {
		for i := 0; i < r.vnodes; i++ {
			r.points = append(r.points, ringPoint{hash: pointHash(node, i), node: node})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare) break by name so ownership stays
		// deterministic across membership changes.
		return r.points[i].node < r.points[j].node
	})
}

// Owner returns the node owning a site ID, or "" on an empty ring.
// Dangling pairs key by their allocation side, matching fleet.Store's
// striping, so every evidence key has exactly one home partition.
func (r *Ring) Owner(id site.ID) string {
	return r.OwnerKey(keyHash(id))
}

// OwnerKey returns the node owning an arbitrary pre-hashed key.
func (r *Ring) OwnerKey(h uint32) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return ""
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap around
	}
	return r.points[i].node
}

// Nodes returns the current members, sorted.
func (r *Ring) Nodes() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Len returns the member count.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.nodes)
}

func (r *Ring) String() string {
	return fmt.Sprintf("ring of %d node(s), %d vnodes each", r.Len(), r.vnodes)
}

// pointHash places one virtual node on the circle.
func pointHash(node string, vnode int) uint32 {
	h := fnv.New32a()
	h.Write([]byte(node))
	h.Write([]byte{'#'})
	h.Write([]byte(strconv.Itoa(vnode)))
	return h.Sum32()
}

// keyHash maps a site ID onto the circle. Site IDs are DJB2 hashes
// already, but synthetic test IDs are sequential, so they get one more
// mixing round through FNV.
func keyHash(id site.ID) uint32 {
	h := fnv.New32a()
	v := uint32(id)
	h.Write([]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)})
	return h.Sum32()
}
