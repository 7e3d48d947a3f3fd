package fleet

import (
	"testing"

	"exterminator/internal/cumulative"
	"exterminator/internal/fleet/codec"
	"exterminator/internal/site"
)

// TestAbsorbSnapshotStripesEachKey: ingest decodes a batch whole and the
// store splits it. On an 8-stripe store every key lands in the stripe
// shardIndex names, run counters count once (and never in a stripe's
// history), a counters-only batch keeps its runs, and the evidence and
// counters equal those of a one-stripe store fed the same batches.
func TestAbsorbSnapshotStripesEachKey(t *testing.T) {
	batches := testBatches(6)
	wide := &cumulative.Snapshot{C: 4, P: 0.5, Runs: 7, FailedRuns: 2, CorruptRuns: 1}
	for i := 0; i < 40; i++ {
		id := site.ID(0x2000 + 3*i)
		wide.Sites = append(wide.Sites, id)
		wide.Overflow = append(wide.Overflow, cumulative.SiteObservations{
			Site: id, Obs: []cumulative.Observation{{X: 0.25, Y: i%2 == 0}},
		})
		wide.Dangling = append(wide.Dangling, cumulative.PairObservations{
			Alloc: id + 1, Free: id + 2, Obs: []cumulative.Observation{{X: 0.5, Y: true}},
		})
		wide.PadHints = append(wide.PadHints, cumulative.PadHint{Site: id, Pad: uint32(i)})
		wide.DeferralHints = append(wide.DeferralHints, cumulative.DeferralHint{Alloc: id + 1, Free: id + 2, Deferral: 10})
	}
	counters := &cumulative.Snapshot{C: 4, P: 0.5, Runs: 9, FailedRuns: 4, CorruptRuns: 3}
	batches = append(batches, wide, counters)

	striped := NewStore(8, cumulative.DefaultConfig())
	single := NewStore(1, cumulative.DefaultConfig())
	var runs, failed, corrupt int64
	for i, b := range batches {
		frame := codec.EncodeBatch(&codec.Buffer{}, &codec.Batch{Client: "c", BatchID: "b", Snapshot: b})
		decoded, err := codec.DecodeBatch(frame)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		striped.AbsorbSnapshot(decoded.Snapshot)
		single.AbsorbSnapshot(decoded.Snapshot)
		runs += int64(b.Runs)
		failed += int64(b.FailedRuns)
		corrupt += int64(b.CorruptRuns)
	}

	// Expected per-stripe counts, from the striping rule alone.
	want := make([]ShardStatus, striped.NumShards())
	sites := map[site.ID]bool{}
	overflow := map[site.ID]bool{}
	dangling := map[site.Pair]bool{}
	for _, b := range batches {
		for _, id := range b.Sites {
			sites[id] = true
		}
		for _, g := range b.Overflow {
			sites[g.Site] = true
			overflow[g.Site] = true
		}
		for _, g := range b.Dangling {
			dangling[site.Pair{Alloc: g.Alloc, Free: g.Free}] = true
		}
	}
	for id := range sites {
		want[striped.shardIndex(id)].Sites++
	}
	for id := range overflow {
		want[striped.shardIndex(id)].OverflowKeys++
	}
	for p := range dangling {
		want[striped.shardIndex(p.Alloc)].DanglingKeys++
	}
	used := 0
	for i, got := range striped.ShardStats() {
		if got.Sites != want[i].Sites || got.OverflowKeys != want[i].OverflowKeys || got.DanglingKeys != want[i].DanglingKeys {
			t.Errorf("stripe %d holds %+v, want %+v", i, got, want[i])
		}
		if got.Sites > 0 {
			used++
		}
	}
	if used < striped.NumShards() {
		t.Fatalf("the batches touch %d of %d stripes; the test needs every stripe", used, striped.NumShards())
	}

	for _, st := range []*Store{striped, single} {
		for i := range st.shards {
			if h := st.shards[i].hist; h.Runs != 0 || h.FailedRuns != 0 || h.CorruptRuns != 0 {
				t.Errorf("%d-stripe store: stripe %d history carries run counters %d/%d/%d",
					st.NumShards(), i, h.Runs, h.FailedRuns, h.CorruptRuns)
			}
		}
		if st.Runs() != runs || st.FailedRuns() != failed || st.CorruptRuns() != corrupt {
			t.Errorf("%d-stripe store counts %d/%d/%d runs, want %d/%d/%d (the counters-only batch included)",
				st.NumShards(), st.Runs(), st.FailedRuns(), st.CorruptRuns(), runs, failed, corrupt)
		}
	}
	if !striped.Combined().Equal(single.Combined()) {
		t.Fatalf("8-stripe evidence differs from one-stripe evidence:\n  striped %s\n  single  %s",
			striped.Combined(), single.Combined())
	}
}
