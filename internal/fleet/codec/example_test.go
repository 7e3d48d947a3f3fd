package codec_test

import (
	"fmt"

	"exterminator/internal/cumulative"
	"exterminator/internal/fleet/codec"
	"exterminator/internal/site"
)

// A batch's identity is content-addressed: a verbatim retry (the
// lost-ack case) reproduces the same ID, while any new delta — more
// content or a moved watermark — gets a fresh one, and so does the same
// delta from another history (lineage) under the same client id.
// Servers keep a bounded window of absorbed IDs and acknowledge
// duplicates without re-absorbing, making ingest exactly-once.
func ExampleBatchID() {
	snap := &cumulative.Snapshot{Runs: 3, Sites: []site.ID{0x100}}
	const lineage = 0x5eed

	id1 := codec.BatchID("install-7", lineage, 0, 0, snap)
	retry := codec.BatchID("install-7", lineage, 0, 0, snap)
	next := codec.BatchID("install-7", lineage, 3, 0, snap) // watermark moved
	fresh := codec.BatchID("install-7", lineage+1, 0, 0, snap)

	fmt.Println("retry matches:", retry == id1)
	fmt.Println("next delta differs:", next != id1)
	fmt.Println("other history differs:", fresh != id1)
	// Output:
	// retry matches: true
	// next delta differs: true
	// other history differs: true
}
