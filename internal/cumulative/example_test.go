package cumulative_test

import (
	"fmt"

	"exterminator/internal/cumulative"
	"exterminator/internal/site"
)

// Evidence uploads are cut at the history's upload watermark: each
// delta carries exactly what was recorded since the last acknowledged
// upload, so uploading in rounds can never re-send acknowledged
// evidence.
func ExampleHistory_UploadDelta() {
	hist := cumulative.NewHistory(cumulative.DefaultConfig())

	// Round 1: two runs of evidence arrive, are uploaded, and the
	// acknowledged delta advances the watermark.
	hist.Absorb(&cumulative.Snapshot{
		Runs:  2,
		Sites: []site.ID{0x100},
		Overflow: []cumulative.SiteObservations{
			{Site: 0x100, Obs: []cumulative.Observation{{X: 0.2, Y: true}}},
		},
	})
	first := hist.UploadDelta()
	fmt.Printf("first delta: %d runs, %d overflow key(s)\n", first.Runs, len(first.Overflow))
	hist.MarkUploaded(first) // ...after the push succeeded

	// Round 2: only the new evidence is in the next delta.
	hist.Absorb(&cumulative.Snapshot{Runs: 1, Sites: []site.ID{0x200}})
	second := hist.UploadDelta()
	fmt.Printf("second delta: %d runs, %d new site(s), %d overflow key(s)\n",
		second.Runs, len(second.Sites), len(second.Overflow))

	// Nothing new after acknowledging it.
	hist.MarkUploaded(second)
	fmt.Println("drained:", cumulative.DeltaEmpty(hist.UploadDelta()))
	// Output:
	// first delta: 2 runs, 1 overflow key(s)
	// second delta: 1 runs, 1 new site(s), 0 overflow key(s)
	// drained: true
}
