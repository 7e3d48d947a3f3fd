package fleet

import (
	"bytes"
	"fmt"
	"testing"

	"exterminator/internal/cumulative"
	"exterminator/internal/fleet/codec"
	"exterminator/internal/patch"
	"exterminator/internal/site"
	"exterminator/internal/testutil"
	"exterminator/internal/xrand"
)

// Property tests pinning the algebra the whole fan-out tier leans on:
// patch sets compose by maxima, forming a join-semilattice. Every
// "over-answering is safe" shortcut — replica full-set resyncs, patch
// log delta unions, failover re-merges — is sound only because Merge is
// commutative, associative, and idempotent. Randomized histories are
// driven by the deterministic xrand generator (seed printed on
// failure), and counterexamples are shrunk to a minimal op list before
// reporting.

// patchOp is one randomized mutation of a patch set.
type patchOp struct {
	kind uint8 // 0: pad, 1: front pad, 2: deferral
	a, b site.ID
	v    uint64
}

func (o patchOp) String() string {
	switch o.kind {
	case 0:
		return fmt.Sprintf("AddPad(%#x, %d)", uint32(o.a), o.v)
	case 1:
		return fmt.Sprintf("AddFrontPad(%#x, %d)", uint32(o.a), o.v)
	default:
		return fmt.Sprintf("AddDeferral({%#x,%#x}, %d)", uint32(o.a), uint32(o.b), o.v)
	}
}

// genOps draws n ops from a deliberately small site domain so maxima
// collisions (the interesting case) are common.
func genOps(rng *xrand.RNG, n int) []patchOp {
	ops := make([]patchOp, n)
	for i := range ops {
		ops[i] = patchOp{
			kind: uint8(rng.Intn(3)),
			a:    site.ID(rng.Intn(8)),
			b:    site.ID(rng.Intn(8)),
			v:    uint64(rng.Intn(64) + 1),
		}
	}
	return ops
}

func applyOps(ops []patchOp) *patch.Set {
	ps := patch.New()
	for _, o := range ops {
		switch o.kind {
		case 0:
			ps.AddPad(o.a, uint32(o.v))
		case 1:
			ps.AddFrontPad(o.a, uint32(o.v))
		default:
			ps.AddDeferral(site.Pair{Alloc: o.a, Free: o.b}, o.v)
		}
	}
	return ps
}

func merged(a, b *patch.Set) *patch.Set {
	m := a.Clone()
	m.Merge(b)
	return m
}

// checkSemilattice verifies the three lattice laws on the sets built
// from three op lists, returning a description of the first violated
// law.
func checkSemilattice(opsA, opsB, opsC []patchOp) error {
	a, b, c := applyOps(opsA), applyOps(opsB), applyOps(opsC)
	if ab, ba := merged(a, b), merged(b, a); !ab.Equal(ba) {
		return fmt.Errorf("commutativity: a∪b = %s, b∪a = %s", ab, ba)
	}
	if abc, bca := merged(merged(a, b), c), merged(a, merged(b, c)); !abc.Equal(bca) {
		return fmt.Errorf("associativity: (a∪b)∪c = %s, a∪(b∪c) = %s", abc, bca)
	}
	if aa := merged(a, a); !aa.Equal(a) {
		return fmt.Errorf("idempotence: a∪a = %s, a = %s", aa, a)
	}
	return nil
}

func TestPatchSetIsJoinSemilattice(t *testing.T) {
	const seed, trials = 0xE57E12, 500
	rng := xrand.New(seed)
	for trial := 0; trial < trials; trial++ {
		opsA := genOps(rng, rng.Intn(12))
		opsB := genOps(rng, rng.Intn(12))
		opsC := genOps(rng, rng.Intn(12))
		err := checkSemilattice(opsA, opsB, opsC)
		if err == nil {
			continue
		}
		// Shrink each list in turn while the same-law failure holds.
		fails := func(a, b, c []patchOp) bool { return checkSemilattice(a, b, c) != nil }
		opsA = testutil.Shrink(opsA, func(o []patchOp) bool { return fails(o, opsB, opsC) })
		opsB = testutil.Shrink(opsB, func(o []patchOp) bool { return fails(opsA, o, opsC) })
		opsC = testutil.Shrink(opsC, func(o []patchOp) bool { return fails(opsA, opsB, o) })
		t.Fatalf("seed %#x trial %d: %v\nshrunk a: %v\nshrunk b: %v\nshrunk c: %v",
			seed, trial, checkSemilattice(opsA, opsB, opsC), opsA, opsB, opsC)
	}
}

// TestPatchLogFoldOrderIndependent pins the property failover rests on:
// folding the same randomized history of patch sets in any order yields
// the same cumulative set, and re-folding anything already absorbed is
// a no-op (version does not move). This is why a promoted standby that
// replayed the same deltas — possibly in different poll order, possibly
// twice — serves the same full set as the primary it replaced.
func TestPatchLogFoldOrderIndependent(t *testing.T) {
	const seed, trials = 0x10F0, 200
	rng := xrand.New(seed)
	for trial := 0; trial < trials; trial++ {
		n := rng.Intn(8) + 2
		sets := make([]*patch.Set, n)
		for i := range sets {
			sets[i] = applyOps(genOps(rng, rng.Intn(10)))
		}
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		for i := n - 1; i > 0; i-- { // Fisher–Yates off the same rng
			j := rng.Intn(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		fwd, shuf := NewPatchLog(), NewPatchLog()
		for i := 0; i < n; i++ {
			fwd.Fold(sets[i])
			shuf.Fold(sets[perm[i]])
		}
		fullFwd, _ := fwd.Full()
		fullShuf, _ := shuf.Full()
		if !fullFwd.Equal(fullShuf) {
			t.Fatalf("seed %#x trial %d: fold order changed the log:\nin order: %s\nshuffled: %s",
				seed, trial, fullFwd, fullShuf)
		}
		vBefore, _ := fwd.Since(0)
		version := fwd.Version()
		if _, changed := fwd.Fold(fullShuf); changed || fwd.Version() != version {
			t.Fatalf("seed %#x trial %d: re-folding the cumulative set moved the log v%d -> v%d",
				seed, trial, version, fwd.Version())
		}
		if after, _ := fwd.Since(0); !after.Equal(vBefore) {
			t.Fatalf("seed %#x trial %d: idempotent fold altered the full set", seed, trial)
		}
	}
}

// TestHistoryMergeCommutesButIsNotIdempotent pins cumulative evidence's
// actual algebra: merge order never matters (observations are
// exchangeable under the §5.1 model), but evidence is a multiset —
// merging the same history twice double-counts, which is exactly why
// exactly-once ingest lives in the partitions' dedup window rather than
// in the merge itself.
func TestHistoryMergeCommutesButIsNotIdempotent(t *testing.T) {
	const seed, trials = 0xCAFE, 100
	rng := xrand.New(seed)
	canonical := func(h *cumulative.History) []byte {
		h.Canonicalize()
		return codec.EncodeHistory(&codec.Buffer{}, h)
	}
	randHistory := func() *cumulative.History {
		h := cumulative.NewHistory(cumulative.DefaultConfig())
		s := &cumulative.Snapshot{Runs: rng.Intn(4) + 1}
		for i, n := 0, rng.Intn(4); i < n; i++ {
			id := site.ID(rng.Intn(6))
			s.Sites = append(s.Sites, id)
			s.Overflow = append(s.Overflow, cumulative.SiteObservations{
				Site: id,
				Obs:  []cumulative.Observation{{X: float64(rng.Intn(100)) / 100, Y: rng.Intn(2) == 1}},
			})
		}
		h.Absorb(s)
		return h
	}
	for trial := 0; trial < trials; trial++ {
		a, b, c := randHistory(), randHistory(), randHistory()

		ab := cumulative.NewHistory(cumulative.DefaultConfig())
		ab.Merge(a)
		ab.Merge(b)
		ab.Merge(c)
		cba := cumulative.NewHistory(cumulative.DefaultConfig())
		cba.Merge(c)
		cba.Merge(b)
		cba.Merge(a)
		if !bytes.Equal(canonical(ab), canonical(cba)) {
			t.Fatalf("seed %#x trial %d: merge order changed the evidence", seed, trial)
		}

		once := cumulative.NewHistory(cumulative.DefaultConfig())
		once.Merge(a)
		twice := cumulative.NewHistory(cumulative.DefaultConfig())
		twice.Merge(a)
		twice.Merge(a)
		if a.Runs > 0 && twice.Runs != 2*once.Runs {
			t.Fatalf("seed %#x trial %d: double merge runs = %d, want %d (multiset semantics)",
				seed, trial, twice.Runs, 2*once.Runs)
		}
	}
}
