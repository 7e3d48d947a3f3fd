package cumulative

// Helpers of this package's tests, for the history-file tests in the
// external test package: those import internal/fleet/codec, which imports
// this package.
var (
	OverflowRun  = overflowRun
	RandSnapshot = randSnapshot
)
