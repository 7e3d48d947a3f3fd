package fleet_test

import (
	"context"
	"fmt"
	"net/http/httptest"

	"exterminator/internal/cumulative"
	"exterminator/internal/fleet"
	"exterminator/internal/fleet/codec"
	"exterminator/internal/site"
)

// A server absorbs stamped observation batches exactly once: the second
// delivery of the same batch — what a client does after a lost ack — is
// acknowledged as a duplicate without touching the evidence pool.
func ExampleServer_exactlyOnceIngest() {
	srv := fleet.NewServer(fleet.ServerOptions{CorrectEvery: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	client := fleet.NewClient(ts.URL, "install-1")
	snap := &cumulative.Snapshot{
		C: 4, P: 0.5, Runs: 3,
		Sites: []site.ID{0x100, 0x101},
	}
	batch := &codec.Batch{
		Snapshot: snap,
		BatchID:  codec.BatchID("install-1", 1, 0, 0, snap),
	}

	first, _ := client.PushBatchContext(context.Background(), batch)
	second, _ := client.PushBatchContext(context.Background(), batch) // retry after a "lost ack"

	fmt.Println("first duplicate:", first.Duplicate)
	fmt.Println("second duplicate:", second.Duplicate)
	fmt.Println("fleet runs:", second.Runs)
	// Output:
	// first duplicate: false
	// second duplicate: true
	// fleet runs: 3
}

// Clients poll patches with the last version they saw; merging a delta
// is always safe because patches compose by maxima.
func ExampleClient_patches() {
	srv := fleet.NewServer(fleet.ServerOptions{CorrectEvery: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Strong evidence for one overflow site crosses the Bayesian
	// threshold once a correction pass runs.
	snap := &cumulative.Snapshot{
		C: 4, P: 0.5, Runs: 6, CorruptRuns: 6,
		Sites: []site.ID{0xBAD, 0x101, 0x102},
		Overflow: []cumulative.SiteObservations{
			{Site: 0xBAD, Obs: []cumulative.Observation{
				{X: 0.1, Y: true}, {X: 0.1, Y: true}, {X: 0.1, Y: true},
			}},
		},
		PadHints: []cumulative.PadHint{{Site: 0xBAD, Pad: 16}},
	}
	client := fleet.NewClient(ts.URL, "install-2")
	client.PushBatchContext(context.Background(), &codec.Batch{
		Snapshot: snap,
		BatchID:  codec.BatchID("install-2", 1, 0, 0, snap),
	})
	srv.Correct()

	ps, version, _ := client.Patches(0)
	fmt.Println("version:", version)
	fmt.Println("pad for 0xBAD:", ps.Pad(0xBAD))
	// Output:
	// version: 1
	// pad for 0xBAD: 16
}
